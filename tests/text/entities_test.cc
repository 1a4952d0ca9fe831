#include "text/entities.h"

#include <string>
#include <string_view>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace text
}  // namespace dwqa
