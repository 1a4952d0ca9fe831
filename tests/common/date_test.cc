#include "common/date.h"

#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace dwqa {
namespace {

TEST(DateTest, MakeValidatesFields) {
  EXPECT_TRUE(Date::Make(2004, 1, 31).ok());
  EXPECT_FALSE(Date::Make(2004, 1, 32).ok());
  EXPECT_FALSE(Date::Make(2004, 13, 1).ok());
  EXPECT_FALSE(Date::Make(2004, 0, 1).ok());
  EXPECT_FALSE(Date::Make(2004, 2, 30).ok());
}

TEST(DateTest, LeapYears) {
  EXPECT_TRUE(Date::IsLeapYear(2004));
  EXPECT_TRUE(Date::IsLeapYear(2000));
  EXPECT_FALSE(Date::IsLeapYear(1900));
  EXPECT_FALSE(Date::IsLeapYear(2003));
  EXPECT_TRUE(Date::Make(2004, 2, 29).ok());
  EXPECT_FALSE(Date::Make(2003, 2, 29).ok());
}

TEST(DateTest, DaysInMonth) {
  EXPECT_EQ(Date::DaysInMonth(2004, 1), 31);
  EXPECT_EQ(Date::DaysInMonth(2004, 2), 29);
  EXPECT_EQ(Date::DaysInMonth(2003, 2), 28);
  EXPECT_EQ(Date::DaysInMonth(2004, 4), 30);
  EXPECT_EQ(Date::DaysInMonth(2004, 13), 0);
}

TEST(DateTest, KnownWeekdays) {
  EXPECT_EQ(Date(2004, 1, 31).DayOfWeekName(), "Saturday");
  EXPECT_EQ(Date(2000, 1, 1).DayOfWeekName(), "Saturday");
  EXPECT_EQ(Date(1970, 1, 1).DayOfWeekName(), "Thursday");
  EXPECT_EQ(Date(2026, 7, 6).DayOfWeekName(), "Monday");
}

TEST(DateTest, EpochRoundTripProperty) {
  // Property: FromEpochDays(ToEpochDays(d)) == d, walked over 3 years
  // including leap boundaries.
  Date d(2003, 12, 20);
  for (int i = 0; i < 1100; ++i) {
    Date back = Date::FromEpochDays(d.ToEpochDays());
    ASSERT_EQ(back, d) << d.ToIsoString();
    d = d.NextDay();
  }
}

TEST(DateTest, NextDayAdvancesMonotonically) {
  Date d(2004, 2, 28);
  d = d.NextDay();
  EXPECT_EQ(d, Date(2004, 2, 29));
  d = d.NextDay();
  EXPECT_EQ(d, Date(2004, 3, 1));
  Date eoy(2004, 12, 31);
  EXPECT_EQ(eoy.NextDay(), Date(2005, 1, 1));
}

TEST(DateTest, EpochDaysKnownValues) {
  EXPECT_EQ(Date(1970, 1, 1).ToEpochDays(), 0);
  EXPECT_EQ(Date(1970, 1, 2).ToEpochDays(), 1);
  EXPECT_EQ(Date(1969, 12, 31).ToEpochDays(), -1);
}

TEST(DateTest, Formatting) {
  Date d(2004, 1, 31);
  EXPECT_EQ(d.ToIsoString(), "2004-01-31");
  EXPECT_EQ(d.ToLongString(), "Saturday, January 31, 2004");
  EXPECT_EQ(d.MonthName(), "January");
}

TEST(DateTest, MonthFromName) {
  EXPECT_EQ(Date::MonthFromName("January"), 1);
  EXPECT_EQ(Date::MonthFromName("january"), 1);
  EXPECT_EQ(Date::MonthFromName("DECEMBER"), 12);
  EXPECT_EQ(Date::MonthFromName("Januar"), 0);
  EXPECT_EQ(Date::MonthFromName(""), 0);
}

TEST(DateTest, MonthFromNameEdgeCases) {
  // Prefixes and extensions of a month name are not month names.
  EXPECT_EQ(Date::MonthFromName("Ma"), 0);
  EXPECT_EQ(Date::MonthFromName("Mayo"), 0);
  EXPECT_EQ(Date::MonthFromName("Junes"), 0);
  EXPECT_EQ(Date::MonthFromName("May"), 5);
  // Mixed case.
  EXPECT_EQ(Date::MonthFromName("sEpTeMbEr"), 9);
  EXPECT_EQ(Date::MonthFromName("fEBRUARy"), 2);
  // Non-ASCII bytes match nothing and compare as themselves.
  EXPECT_EQ(Date::MonthFromName("\xC2\xBA"), 0);
  EXPECT_EQ(Date::MonthFromName("Ma\xC2\xBA"), 0);
  EXPECT_EQ(Date::MonthFromName("M\xC3\xA1rch"), 0);
  // A view into a larger buffer reads only its own bytes.
  const std::string buffer = "xMarchember";
  EXPECT_EQ(Date::MonthFromName(std::string_view(buffer).substr(1, 5)), 3);
  EXPECT_EQ(Date::MonthFromName(std::string_view(buffer).substr(1, 4)), 0);
  EXPECT_EQ(Date::MonthFromName(std::string_view(buffer).substr(0, 6)), 0);
}

TEST(DateTest, ComparisonOperators) {
  EXPECT_LT(Date(2004, 1, 30), Date(2004, 1, 31));
  EXPECT_LT(Date(2004, 1, 31), Date(2004, 2, 1));
  EXPECT_LT(Date(2003, 12, 31), Date(2004, 1, 1));
  EXPECT_EQ(Date(2004, 1, 31), Date(2004, 1, 31));
}

class DateWeekdaySweep : public ::testing::TestWithParam<int> {};

TEST_P(DateWeekdaySweep, ConsecutiveDaysCycleThroughWeek) {
  // Property: weekday advances by exactly one (mod 7) day over day.
  Date d(2000 + GetParam(), 1, 1);
  int prev = d.DayOfWeek();
  for (int i = 0; i < 370; ++i) {
    d = d.NextDay();
    int cur = d.DayOfWeek();
    ASSERT_EQ(cur, (prev + 1) % 7) << d.ToIsoString();
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Years, DateWeekdaySweep,
                         ::testing::Values(0, 3, 4, 10, 23, 24));

}  // namespace
}  // namespace dwqa
