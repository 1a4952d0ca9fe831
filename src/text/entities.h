#ifndef DWQA_TEXT_ENTITIES_H_
#define DWQA_TEXT_ENTITIES_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/date.h"
#include "text/token.h"

namespace dwqa {
namespace text {

/// \brief Token span [begin, end) of a recognized entity.
struct EntitySpan {
  size_t begin = 0;
  size_t end = 0;
  std::string text;
};

/// A calendar reference; partial dates (month+year, month+day) are allowed
/// and flagged. For partial dates missing fields hold defaults (day=1 etc.).
struct DateMention : EntitySpan {
  Date date;
  bool has_day = false;
  bool has_month = false;
  bool has_year = false;

  bool IsComplete() const { return has_day && has_month && has_year; }
};

/// "8ºC", "46.4 F", "8 degrees Celsius". `scale` is 'C', 'F' or '?' when the
/// unit could not be determined (the table-page failure mode of Figure 5).
struct TemperatureMention : EntitySpan {
  double value = 0.0;
  char scale = '?';
};

/// Plain cardinal.
struct NumberMention : EntitySpan {
  double value = 0.0;
};

/// "120 euros", "$99".
struct MoneyMention : EntitySpan {
  double value = 0.0;
  std::string currency;
};

/// "12 percent", "12%".
struct PercentMention : EntitySpan {
  double value = 0.0;
};

/// Maximal run of proper-noun (NP) tokens that is not a month/weekday name.
struct ProperNounMention : EntitySpan {};

/// \brief Rule-based entity recognizers over tagged token sequences.
///
/// These implement the lexical side of the paper's answer-type taxonomy: the
/// "numerical" and "temporal" categories need exactly these mentions, and
/// Step 4's axiomatic knowledge ("a temperature is a number followed by the
/// scale") is checked against TemperatureMention.
class EntityRecognizer {
 public:
  static std::vector<DateMention> FindDates(const TokenSequence& tokens);
  static std::vector<TemperatureMention> FindTemperatures(
      const TokenSequence& tokens);
  static std::vector<NumberMention> FindNumbers(const TokenSequence& tokens);
  static std::vector<MoneyMention> FindMoney(const TokenSequence& tokens);
  static std::vector<PercentMention> FindPercents(const TokenSequence& tokens);
  static std::vector<ProperNounMention> FindProperNouns(
      const TokenSequence& tokens);

  /// True if `lower` is a month name.
  static bool IsMonthName(std::string_view lower);
  /// True if `lower` is a weekday name.
  static bool IsWeekdayName(std::string_view lower);
  /// True if the token looks like a year (1000..2999).
  static bool LooksLikeYear(const Token& token);
};

}  // namespace text
}  // namespace dwqa

#endif  // DWQA_TEXT_ENTITIES_H_
