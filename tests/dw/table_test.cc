#include "dw/table.h"

#include <gtest/gtest.h>

namespace dwqa {
namespace dw {
namespace {

Table MakeTable() {
  return Table("t", {{"name", ColumnType::kString},
                     {"count", ColumnType::kInt64},
                     {"score", ColumnType::kDouble},
                     {"day", ColumnType::kDate}});
}

TEST(ColumnTest, TypedAppendAndGet) {
  Column c("x", ColumnType::kDouble);
  ASSERT_TRUE(c.Append(Value(1.5)).ok());
  ASSERT_TRUE(c.Append(Value(2)).ok());  // Int coerces into double column.
  EXPECT_DOUBLE_EQ(c.Get(0).as_double(), 1.5);
  EXPECT_DOUBLE_EQ(c.Get(1).as_double(), 2.0);
  EXPECT_DOUBLE_EQ(c.GetDouble(1), 2.0);
}

TEST(ColumnTest, TypeMismatchRejected) {
  Column c("x", ColumnType::kInt64);
  EXPECT_TRUE(c.Append(Value("nope")).IsInvalidArgument());
  EXPECT_TRUE(c.Append(Value(1.5)).IsInvalidArgument());
  EXPECT_EQ(c.size(), 0u);
}

TEST(ColumnTest, NullsTracked) {
  Column c("x", ColumnType::kString);
  ASSERT_TRUE(c.Append(Value()).ok());
  ASSERT_TRUE(c.Append(Value("a")).ok());
  EXPECT_TRUE(c.Get(0).is_null());
  EXPECT_EQ(c.Get(1).as_string(), "a");
  EXPECT_DOUBLE_EQ(c.GetDouble(0), 0.0);
}

TEST(ColumnTest, GetIntReadsInt64CellsOnly) {
  Column ints("fk", ColumnType::kInt64);
  ASSERT_TRUE(ints.Append(Value(int64_t{7})).ok());
  ASSERT_TRUE(ints.Append(Value()).ok());
  EXPECT_EQ(ints.GetInt(0), 7);
  EXPECT_EQ(ints.GetInt(1), 0);   // null
  EXPECT_EQ(ints.GetInt(99), 0);  // out of range
  Column doubles("x", ColumnType::kDouble);
  ASSERT_TRUE(doubles.Append(Value(1.5)).ok());
  EXPECT_EQ(doubles.GetInt(0), 0);
}

TEST(ColumnTest, OutOfRangeRowIsNull) {
  Column c("x", ColumnType::kInt64);
  EXPECT_TRUE(c.Get(99).is_null());
}

TEST(TableTest, AppendRowAndGet) {
  Table t = MakeTable();
  ASSERT_TRUE(t.AppendRow({Value("a"), Value(1), Value(0.5),
                           Value(Date(2004, 1, 1))})
                  .ok());
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.Get(0, 0).as_string(), "a");
  EXPECT_EQ(t.Get(0, 1).as_int(), 1);
}

TEST(TableTest, ArityMismatchRejected) {
  Table t = MakeTable();
  EXPECT_TRUE(t.AppendRow({Value("a")}).IsInvalidArgument());
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(TableTest, TypeMismatchLeavesNoPartialRow) {
  Table t = MakeTable();
  // Third column expects double; give it a string — nothing is appended,
  // including to the columns before it.
  EXPECT_FALSE(
      t.AppendRow({Value("a"), Value(1), Value("bad"), Value()}).ok());
  EXPECT_EQ(t.row_count(), 0u);
  EXPECT_EQ(t.column(0).size(), 0u);
  EXPECT_EQ(t.column(1).size(), 0u);
}

TEST(TableTest, NullsAllowedAnywhere) {
  Table t = MakeTable();
  ASSERT_TRUE(t.AppendRow({Value(), Value(), Value(), Value()}).ok());
  for (size_t c = 0; c < t.column_count(); ++c) {
    EXPECT_TRUE(t.Get(0, c).is_null());
  }
}

TEST(TableTest, ColumnIndexLookup) {
  Table t = MakeTable();
  EXPECT_EQ(t.ColumnIndex("score").ValueOrDie(), 2u);
  EXPECT_TRUE(t.ColumnIndex("missing").status().IsNotFound());
}

TEST(TableTest, DisplayStringTruncates) {
  Table t("t", {{"n", ColumnType::kInt64}});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i)}).ok());
  }
  std::string out = t.ToDisplayString(3);
  EXPECT_NE(out.find("7 more rows"), std::string::npos);
}

}  // namespace
}  // namespace dw
}  // namespace dwqa
