#include "common/string_util.h"

#include <gtest/gtest.h>

namespace dwqa {
namespace {

TEST(StringUtilTest, ToLowerAndUpper) {
  EXPECT_EQ(ToLower("BarCeloNa"), "barcelona");
  EXPECT_EQ(ToUpper("ºc stays"), "ºC STAYS");  // Non-ASCII untouched.
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, EqualsIgnoreCaseMatchesToLowerComparison) {
  EXPECT_TRUE(EqualsIgnoreCase("BarCeloNa", "barcelona"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_TRUE(EqualsIgnoreCase("City", "CITY"));
  EXPECT_FALSE(EqualsIgnoreCase("City", "Cities"));
  EXPECT_FALSE(EqualsIgnoreCase("City", "Citz"));
  EXPECT_FALSE(EqualsIgnoreCase("", "a"));
  // Non-letters and bytes above ASCII compare exactly, as ToLower leaves
  // them unchanged.
  EXPECT_TRUE(EqualsIgnoreCase("18\xc2\xb0" "C", "18\xc2\xb0" "c"));
  EXPECT_FALSE(EqualsIgnoreCase("a_b", "a-b"));
  const char* words[] = {"Date", "date", "DATE", "Dates", "Month", ""};
  for (const char* a : words) {
    for (const char* b : words) {
      EXPECT_EQ(EqualsIgnoreCase(a, b), ToLower(a) == ToLower(b))
          << a << " vs " << b;
    }
  }
}

TEST(StringUtilTest, TrimRemovesEdgesOnly) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpties) {
  auto parts = SplitWhitespace("  one \t two\nthree  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "one");
  EXPECT_EQ(parts[2], "three");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, JoinRoundTripsWithSplit) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, " - "), "solo");
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("no hits", "xyz", "q"), "no hits");
  EXPECT_EQ(ReplaceAll("ababab", "ab", ""), "");
  // Empty needle: identity, no infinite loop.
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("web://weather/x", "web://"));
  EXPECT_FALSE(StartsWith("web", "web://"));
  EXPECT_TRUE(EndsWith("page.html", ".html"));
  EXPECT_FALSE(EndsWith(".html", "page.html"));
}

TEST(StringUtilTest, NumberPredicates) {
  EXPECT_TRUE(IsDigits("2004"));
  EXPECT_FALSE(IsDigits("20a4"));
  EXPECT_FALSE(IsDigits(""));
  EXPECT_TRUE(IsNumber("46.4"));
  EXPECT_TRUE(IsNumber("-3.5"));
  EXPECT_TRUE(IsNumber("+8"));
  EXPECT_FALSE(IsNumber("4.6.4"));
  EXPECT_FALSE(IsNumber("."));
  EXPECT_FALSE(IsNumber("-"));
  EXPECT_FALSE(IsNumber("12th"));
}

TEST(StringUtilTest, IsCapitalized) {
  EXPECT_TRUE(IsCapitalized("Barcelona"));
  EXPECT_FALSE(IsCapitalized("barcelona"));
  EXPECT_FALSE(IsCapitalized(""));
  EXPECT_FALSE(IsCapitalized("8ºC"));
}

TEST(StringUtilTest, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("airport", "airport"), 0u);
}

TEST(StringUtilTest, EditDistanceSymmetry) {
  // Property: d(a,b) == d(b,a) over a sample of pairs.
  const char* words[] = {"sale", "sales", "mile", "smile", "temperature"};
  for (const char* a : words) {
    for (const char* b : words) {
      EXPECT_EQ(EditDistance(a, b), EditDistance(b, a)) << a << "/" << b;
    }
  }
}

TEST(StringUtilTest, EditDistanceTriangleInequality) {
  const char* words[] = {"city", "cite", "kite", "site", "sight"};
  for (const char* a : words) {
    for (const char* b : words) {
      for (const char* c : words) {
        EXPECT_LE(EditDistance(a, c),
                  EditDistance(a, b) + EditDistance(b, c));
      }
    }
  }
}

TEST(StringUtilTest, StringSimilarityRange) {
  EXPECT_DOUBLE_EQ(StringSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(StringSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(StringSimilarity("abc", "xyz"), 0.0);
  double sim = StringSimilarity("sale", "sales");
  EXPECT_GT(sim, 0.7);
  EXPECT_LT(sim, 1.0);
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(46.4, 1), "46.4");
  EXPECT_EQ(FormatDouble(8.0, 0), "8");
  EXPECT_EQ(FormatDouble(-3.456, 2), "-3.46");
}

}  // namespace
}  // namespace dwqa
