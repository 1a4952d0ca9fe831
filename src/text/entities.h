#ifndef DWQA_TEXT_ENTITIES_H_
#define DWQA_TEXT_ENTITIES_H_

#include <cstdint>
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

/// \brief Token span [begin, end) of a mention the analyzed corpus stores
/// without its text, which is rebuilt from the sentence's tokens when
/// needed (TokensToText, or EntityRecognizer::ProperNounText for a proper
/// noun). The three kinds it stores derive from it; each `...Mention`
/// recognizer result adds the text.
struct MentionSpan {
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// A calendar reference; partial dates (month+year, month+day) are allowed
/// and flagged. For partial dates missing fields hold defaults (day=1 etc.).
struct DateSpan : MentionSpan {
  Date date;
  bool has_day = false;
  bool has_month = false;
  bool has_year = false;

  bool IsComplete() const { return has_day && has_month && has_year; }
};

/// "8ºC", "46.4 F", "8 degrees Celsius". `scale` is 'C', 'F' or '?' when the
/// unit could not be determined (the table-page failure mode of Figure 5).
struct TemperatureSpan : MentionSpan {
  double value = 0.0;
  char scale = '?';
};

struct DateMention : DateSpan {
  std::string text;
};

struct TemperatureMention : TemperatureSpan {
  std::string text;
};

/// Maximal run of proper-noun (NP) tokens that is not a month/weekday name.
struct ProperNounMention : MentionSpan {
  std::string text;
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

  /// The mentions FindDates, FindTemperatures and FindProperNouns return,
  /// in the same order, appended to `out` without their text (a date's and
  /// a temperature's text is TokensToText over its span).
  static void AppendDateSpans(const TokenSequence& tokens,
                              std::vector<DateSpan>* out);
  static void AppendTemperatureSpans(const TokenSequence& tokens,
                                     std::vector<TemperatureSpan>* out);
  static void AppendProperNounSpans(const TokenSequence& tokens,
                                    std::vector<MentionSpan>* out);
  /// Writes the text FindProperNouns gives the proper noun at `span` into
  /// `*out`, replacing its contents. With `lowercase` it is built from the
  /// tokens' lowercase forms, which equals ToLower of that text.
  static void ProperNounText(const TokenSequence& tokens, MentionSpan span,
                             bool lowercase, std::string* out);

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
