#include "text/entities.h"

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/date.h"
#include "common/string_util.h"
#include "text/pos_tagger.h"
#include "text/tokenizer.h"

namespace dwqa {
namespace text {
namespace {

TokenSequence Tag(const std::string& s) {
  TokenSequence toks = Tokenizer::Tokenize(s);
  PosTagger tagger;
  tagger.Tag(&toks);
  return toks;
}

TEST(EntitiesDateTest, FullDateWithComma) {
  auto dates = EntityRecognizer::FindDates(Tag("January 31, 2004 was cold"));
  ASSERT_EQ(dates.size(), 1u);
  EXPECT_TRUE(dates[0].IsComplete());
  EXPECT_EQ(dates[0].date, Date(2004, 1, 31));
  EXPECT_EQ(dates[0].text, "January 31 , 2004");
}

TEST(EntitiesDateTest, MonthOfYear) {
  auto dates = EntityRecognizer::FindDates(Tag("in January of 2004"));
  ASSERT_EQ(dates.size(), 1u);
  EXPECT_TRUE(dates[0].has_month);
  EXPECT_TRUE(dates[0].has_year);
  EXPECT_FALSE(dates[0].has_day);
  EXPECT_EQ(dates[0].date.month(), 1);
  EXPECT_EQ(dates[0].date.year(), 2004);
}

TEST(EntitiesDateTest, MonthYearWithoutOf) {
  auto dates = EntityRecognizer::FindDates(Tag("May 1997 was rainy"));
  ASSERT_EQ(dates.size(), 1u);
  EXPECT_EQ(dates[0].date.month(), 5);
  EXPECT_EQ(dates[0].date.year(), 1997);
  EXPECT_FALSE(dates[0].has_day);
}

TEST(EntitiesDateTest, OrdinalOfMonthYear) {
  // "the 12th of May, 1997" (paper §3, Step 4 example).
  auto dates =
      EntityRecognizer::FindDates(Tag("on the 12th of May, 1997 it rained"));
  ASSERT_EQ(dates.size(), 1u);
  EXPECT_TRUE(dates[0].IsComplete());
  EXPECT_EQ(dates[0].date, Date(1997, 5, 12));
}

TEST(EntitiesDateTest, MonthDayWithoutYear) {
  auto dates = EntityRecognizer::FindDates(Tag("on January 5 it snowed"));
  ASSERT_EQ(dates.size(), 1u);
  EXPECT_TRUE(dates[0].has_day);
  EXPECT_FALSE(dates[0].has_year);
  EXPECT_EQ(dates[0].date.day(), 5);
}

TEST(EntitiesDateTest, ImpossibleDateRejected) {
  auto dates = EntityRecognizer::FindDates(Tag("February 30, 2004"));
  EXPECT_TRUE(dates.empty());
}

TEST(EntitiesDateTest, YearAloneIsNotADate) {
  auto dates = EntityRecognizer::FindDates(Tag("It happened in 1990."));
  EXPECT_TRUE(dates.empty());
}

TEST(EntitiesDateTest, MultipleDates) {
  auto dates = EntityRecognizer::FindDates(
      Tag("January 30, 2004 and January 31, 2004"));
  ASSERT_EQ(dates.size(), 2u);
  EXPECT_EQ(dates[0].date.day(), 30);
  EXPECT_EQ(dates[1].date.day(), 31);
}

TEST(EntitiesTemperatureTest, DegreeSignWithScale) {
  auto temps = EntityRecognizer::FindTemperatures(
      Tag("Temperature 8\xC2\xBA\x43 today"));
  ASSERT_EQ(temps.size(), 1u);
  EXPECT_DOUBLE_EQ(temps[0].value, 8.0);
  EXPECT_EQ(temps[0].scale, 'C');
}

TEST(EntitiesTemperatureTest, SpacedDegreeSign) {
  auto temps =
      EntityRecognizer::FindTemperatures(Tag("Temperature 8 \xC2\xBA C"));
  ASSERT_EQ(temps.size(), 1u);
  EXPECT_EQ(temps[0].scale, 'C');
}

TEST(EntitiesTemperatureTest, FahrenheitLetterAfterNumber) {
  auto temps = EntityRecognizer::FindTemperatures(Tag("around 46.4 F Clear"));
  ASSERT_EQ(temps.size(), 1u);
  EXPECT_DOUBLE_EQ(temps[0].value, 46.4);
  EXPECT_EQ(temps[0].scale, 'F');
}

TEST(EntitiesTemperatureTest, DegreesCelsiusWords) {
  auto temps =
      EntityRecognizer::FindTemperatures(Tag("about 21 degrees Celsius"));
  ASSERT_EQ(temps.size(), 1u);
  EXPECT_EQ(temps[0].scale, 'C');
}

TEST(EntitiesTemperatureTest, BareDegreeSignUnknownScale) {
  // The Figure 5 failure mode: number + º with no scale letter.
  auto temps = EntityRecognizer::FindTemperatures(Tag("high of 12\xC2\xBA"));
  ASSERT_EQ(temps.size(), 1u);
  EXPECT_EQ(temps[0].scale, '?');
}

TEST(EntitiesTemperatureTest, PlainNumberIsNotATemperature) {
  auto temps = EntityRecognizer::FindTemperatures(Tag("He bought 8 tickets"));
  EXPECT_TRUE(temps.empty());
}

TEST(EntitiesTemperatureTest, NegativeTemperature) {
  auto temps = EntityRecognizer::FindTemperatures(Tag("it was -5 \xC2\xBA C"));
  ASSERT_EQ(temps.size(), 1u);
  EXPECT_DOUBLE_EQ(temps[0].value, -5.0);
}

TEST(EntitiesMoneyTest, NumberCurrencyWord) {
  auto money = EntityRecognizer::FindMoney(Tag("the ticket is 120 euros"));
  ASSERT_EQ(money.size(), 1u);
  EXPECT_DOUBLE_EQ(money[0].value, 120.0);
  EXPECT_EQ(money[0].currency, "EUR");
}

TEST(EntitiesMoneyTest, DollarSignPrefix) {
  auto money = EntityRecognizer::FindMoney(Tag("a fare of $ 99 only"));
  ASSERT_EQ(money.size(), 1u);
  EXPECT_DOUBLE_EQ(money[0].value, 99.0);
  EXPECT_EQ(money[0].currency, "USD");
}

TEST(EntitiesPercentTest, PercentWordAndSign) {
  auto p1 = EntityRecognizer::FindPercents(Tag("grew by 12 percent"));
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_DOUBLE_EQ(p1[0].value, 12.0);
  auto p2 = EntityRecognizer::FindPercents(Tag("grew by 12 %"));
  ASSERT_EQ(p2.size(), 1u);
}

TEST(EntitiesNumberTest, FindsAllCardinals) {
  auto nums = EntityRecognizer::FindNumbers(Tag("8 of 120 seats on 2 days"));
  ASSERT_EQ(nums.size(), 3u);
  EXPECT_DOUBLE_EQ(nums[1].value, 120.0);
}

TEST(EntitiesProperNounTest, MaximalRuns) {
  auto pns = EntityRecognizer::FindProperNouns(
      Tag("El Prat serves Barcelona and Madrid"));
  ASSERT_EQ(pns.size(), 3u);
  EXPECT_EQ(pns[0].text, "El Prat");
  EXPECT_EQ(pns[1].text, "Barcelona");
  EXPECT_EQ(pns[2].text, "Madrid");
}

TEST(EntitiesProperNounTest, MonthsAndWeekdaysExcluded) {
  auto pns = EntityRecognizer::FindProperNouns(
      Tag("Monday January Barcelona"));
  ASSERT_EQ(pns.size(), 1u);
  EXPECT_EQ(pns[0].text, "Barcelona");
}

TEST(EntitiesHelpersTest, MonthWeekdayYearPredicates) {
  EXPECT_TRUE(EntityRecognizer::IsMonthName("january"));
  EXPECT_FALSE(EntityRecognizer::IsMonthName("janua"));
  EXPECT_FALSE(EntityRecognizer::IsMonthName("ma"));
  EXPECT_FALSE(EntityRecognizer::IsMonthName("mayo"));
  EXPECT_FALSE(EntityRecognizer::IsMonthName("junes"));
  EXPECT_TRUE(EntityRecognizer::IsMonthName("June"));
  EXPECT_TRUE(EntityRecognizer::IsMonthName("oCTOBER"));
  EXPECT_FALSE(EntityRecognizer::IsMonthName("\xC2\xBA"));
  EXPECT_FALSE(EntityRecognizer::IsMonthName("may\xC2\xBA"));
  const std::string buffer = "the july heat";
  EXPECT_TRUE(
      EntityRecognizer::IsMonthName(std::string_view(buffer).substr(4, 4)));
  EXPECT_FALSE(
      EntityRecognizer::IsMonthName(std::string_view(buffer).substr(4, 5)));
  EXPECT_FALSE(
      EntityRecognizer::IsMonthName(std::string_view(buffer).substr(4, 3)));
  EXPECT_TRUE(EntityRecognizer::IsWeekdayName("sunday"));
  EXPECT_FALSE(EntityRecognizer::IsWeekdayName("someday"));
  Token year("2004", 0, 4);
  year.lower = "2004";
  year.tag = "CD";
  EXPECT_TRUE(EntityRecognizer::LooksLikeYear(year));
  Token small("31", 0, 2);
  small.lower = "31";
  small.tag = "CD";
  EXPECT_FALSE(EntityRecognizer::LooksLikeYear(small));
}

/// The month and weekday lookups as linear scans over every name, the
/// reference the length-and-first-letter dispatch must reproduce.
int LinearMonthFromName(std::string_view name) {
  static const char* const kMonths[] = {
      "January", "February", "March",     "April",   "May",      "June",
      "July",    "August",   "September", "October", "November", "December"};
  for (int i = 0; i < 12; ++i) {
    if (EqualsIgnoreCase(name, kMonths[i])) return i + 1;
  }
  return 0;
}

bool LinearIsWeekdayName(std::string_view lower) {
  for (const char* d : {"sunday", "monday", "tuesday", "wednesday",
                        "thursday", "friday", "saturday"}) {
    if (lower == d) return true;
  }
  return false;
}

TEST(EntitiesHelpersTest, MonthAndWeekdayLookupsMatchLinearScan) {
  const std::vector<std::string> months = {
      "january", "february", "march",     "april",   "may",      "june",
      "july",    "august",   "september", "october", "november", "december"};
  const std::vector<std::string> weekdays = {
      "sunday", "monday", "tuesday", "wednesday", "thursday", "friday",
      "saturday"};
  std::vector<std::string> probes;
  for (const std::vector<std::string>* names : {&months, &weekdays}) {
    for (const std::string& name : *names) {
      std::string title = name;
      title[0] = static_cast<char>(title[0] - 'a' + 'A');
      probes.push_back(name);
      probes.push_back(title);
      probes.push_back(ToUpper(name));
    }
  }
  // Every month is found in all three cases; a weekday only in lowercase
  // (IsWeekdayName takes a token's lowercase form).
  for (size_t i = 0; i < months.size(); ++i) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(Date::MonthFromName(probes[3 * i + c]), int(i) + 1)
          << probes[3 * i + c];
    }
  }
  for (size_t i = 0; i < weekdays.size(); ++i) {
    const size_t at = 3 * (months.size() + i);
    EXPECT_TRUE(EntityRecognizer::IsWeekdayName(probes[at]));
    EXPECT_FALSE(EntityRecognizer::IsWeekdayName(probes[at + 1]));
    EXPECT_FALSE(EntityRecognizer::IsWeekdayName(probes[at + 2]));
  }
  // Non-names: near misses of every length and first letter, bytes whose
  // `| 0x20` is a letter only for letters, and words of other classes.
  for (const std::string& name : months) {
    probes.push_back(name.substr(0, name.size() - 1));
    probes.push_back(name + "s");
    probes.push_back("x" + name.substr(1));
    probes.push_back(name.substr(0, name.size() - 1) + "x");
  }
  for (const std::string& name : weekdays) {
    probes.push_back(name.substr(1));
    probes.push_back(name + "y");
    probes.push_back(name.substr(0, name.size() - 1) + "Y");
  }
  for (const char* other :
       {"", "m", "ma", "mayo", "junio", "jule", "jun", "Barcelona", "degrees",
        "2004", ".", "\xC2\xBA", "*ay", "\x0D" "ay", "\x2D" "ay",
        "\xCD" "ay", "\xED" "ay", "Jyly", "Juny", "sundays", "frid", "sat",
        "tues"}) {
    probes.push_back(other);
  }
  for (const std::string& probe : probes) {
    EXPECT_EQ(Date::MonthFromName(probe), LinearMonthFromName(probe))
        << probe;
    EXPECT_EQ(EntityRecognizer::IsMonthName(probe),
              LinearMonthFromName(probe) != 0)
        << probe;
    EXPECT_EQ(EntityRecognizer::IsWeekdayName(probe),
              LinearIsWeekdayName(probe))
        << probe;
  }
}

}  // namespace
}  // namespace text
}  // namespace dwqa
