#include "dw/warehouse.h"

#include <gtest/gtest.h>

namespace dwqa {
namespace dw {
namespace {

MdSchema SmallSchema() {
  MdSchema s;
  EXPECT_TRUE(
      s.AddDimension({"Geo", {{"Airport"}, {"City"}, {"Country"}}}).ok());
  EXPECT_TRUE(s.AddDimension({"Date", {{"Date"}, {"Year"}}}).ok());
  FactDef f;
  f.name = "Sales";
  f.measures = {{"Price", ColumnType::kDouble, AggFn::kSum},
                {"Tickets", ColumnType::kDouble, AggFn::kSum}};
  f.roles = {{"dest", "Geo"}, {"when", "Date"}};
  EXPECT_TRUE(s.AddFact(std::move(f)).ok());
  return s;
}

class WarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wh_ = std::make_unique<Warehouse>(
        Warehouse::Create(SmallSchema()).ValueOrDie());
  }
  std::unique_ptr<Warehouse> wh_;
};

TEST_F(WarehouseTest, AddAndFindMember) {
  MemberId prat =
      wh_->AddMember("Geo", {"El Prat", "Barcelona", "Spain"}).ValueOrDie();
  EXPECT_EQ(wh_->FindMember("Geo", "El Prat").ValueOrDie(), prat);
  EXPECT_EQ(wh_->FindMember("Geo", "el prat").ValueOrDie(), prat);
  EXPECT_TRUE(wh_->FindMember("Geo", "Ghost").status().IsNotFound());
}

TEST_F(WarehouseTest, ReAddingMemberReturnsSameId) {
  MemberId a = wh_->AddMember("Geo", {"El Prat", "Barcelona"}).ValueOrDie();
  MemberId b = wh_->AddMember("Geo", {"El Prat"}).ValueOrDie();
  EXPECT_EQ(a, b);
  EXPECT_EQ(wh_->DimensionTable("Geo").ValueOrDie()->row_count(), 1u);
}

TEST_F(WarehouseTest, ShortPathLeavesCoarseLevelsNull) {
  MemberId m = wh_->AddMember("Geo", {"Lonely"}).ValueOrDie();
  EXPECT_EQ(wh_->MemberLevelValue("Geo", m, "Airport").ValueOrDie(),
            "Lonely");
  EXPECT_EQ(wh_->MemberLevelValue("Geo", m, "Country").ValueOrDie(), "");
}

TEST_F(WarehouseTest, PathValidation) {
  EXPECT_TRUE(wh_->AddMember("Geo", {}).status().IsInvalidArgument());
  EXPECT_TRUE(wh_->AddMember("Geo", {""}).status().IsInvalidArgument());
  EXPECT_TRUE(wh_->AddMember("Geo", {"a", "b", "c", "d"})
                  .status()
                  .IsInvalidArgument());  // Longer than hierarchy.
  EXPECT_TRUE(wh_->AddMember("Ghost", {"a"}).status().IsNotFound());
}

TEST_F(WarehouseTest, MemberLevelValue) {
  MemberId m =
      wh_->AddMember("Geo", {"El Prat", "Barcelona", "Spain"}).ValueOrDie();
  EXPECT_EQ(wh_->MemberLevelValue("Geo", m, "City").ValueOrDie(),
            "Barcelona");
  EXPECT_TRUE(
      wh_->MemberLevelValue("Geo", m, "Continent").status().IsNotFound());
  EXPECT_TRUE(wh_->MemberLevelValue("Geo", 99, "City").status()
                  .IsOutOfRange());
}

TEST_F(WarehouseTest, LevelDictionariesInternValuesAndOnlyAppend) {
  const size_t geo = wh_->DimIndex("geo").ValueOrDie();
  MemberId prat =
      wh_->AddMember("Geo", {"El Prat", "Barcelona", "Spain"}).ValueOrDie();
  MemberId sants = wh_->AddMember("Geo", {"Sants", "Barcelona"}).ValueOrDie();
  const LevelDictionary& city = wh_->Dictionary(geo, 1);
  const LevelDictionary& country = wh_->Dictionary(geo, 2);
  // A value shared by two members is interned once.
  EXPECT_EQ(city.values, std::vector<std::string>({"Barcelona"}));
  EXPECT_EQ(city.of_member[prat], city.of_member[sants]);
  // A null coarse level is the "" value.
  EXPECT_EQ(country.values, std::vector<std::string>({"Spain", ""}));
  EXPECT_EQ(country.values[country.of_member[sants]], "");
  // New members append; earlier ordinals keep their meaning.
  const uint32_t spain = country.of_member[prat];
  MemberId orly = wh_->AddMember("Geo", {"Orly", "Paris", "France"})
                      .ValueOrDie();
  EXPECT_EQ(country.of_member[prat], spain);
  EXPECT_EQ(country.values[country.of_member[orly]], "France");
  EXPECT_EQ(city.of_member.size(), 3u);
}

TEST_F(WarehouseTest, MemberNamesInInsertionOrder) {
  ASSERT_TRUE(wh_->AddMember("Geo", {"B"}).ok());
  ASSERT_TRUE(wh_->AddMember("Geo", {"A"}).ok());
  auto names = wh_->MemberNames("Geo").ValueOrDie();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "B");
  EXPECT_EQ(names[1], "A");
}

TEST_F(WarehouseTest, InsertFactChecksArityAndIntegrity) {
  MemberId geo = wh_->AddMember("Geo", {"X"}).ValueOrDie();
  MemberId date = wh_->AddMember("Date", {"2004-01-01", "2004"}).ValueOrDie();
  EXPECT_TRUE(wh_->InsertFact("Sales", {geo, date},
                              {Value(10.0), Value(2.0)})
                  .ok());
  EXPECT_EQ(wh_->FactRowCount("Sales").ValueOrDie(), 1u);
  // Wrong member count.
  EXPECT_TRUE(wh_->InsertFact("Sales", {geo}, {Value(1.0), Value(1.0)})
                  .IsInvalidArgument());
  // Wrong measure count.
  EXPECT_TRUE(
      wh_->InsertFact("Sales", {geo, date}, {Value(1.0)}).IsInvalidArgument());
  // Foreign key out of range.
  EXPECT_TRUE(wh_->InsertFact("Sales", {geo, 77},
                              {Value(1.0), Value(1.0)})
                  .IsInvalidArgument());
  // Unknown fact.
  EXPECT_TRUE(wh_->InsertFact("Ghost", {geo, date},
                              {Value(1.0), Value(1.0)})
                  .IsNotFound());
  // The failed inserts left no rows behind.
  EXPECT_EQ(wh_->FactRowCount("Sales").ValueOrDie(), 1u);
}

TEST_F(WarehouseTest, FactTableLayout) {
  MemberId geo = wh_->AddMember("Geo", {"X"}).ValueOrDie();
  MemberId date = wh_->AddMember("Date", {"2004-01-01"}).ValueOrDie();
  ASSERT_TRUE(
      wh_->InsertFact("Sales", {geo, date}, {Value(10.0), Value(2.0)}).ok());
  const Table* fact = wh_->FactTable("Sales").ValueOrDie();
  EXPECT_EQ(fact->column_count(), 4u);  // 2 FKs + 2 measures.
  EXPECT_EQ(fact->column(0).name(), "fk_dest");
  EXPECT_EQ(fact->column(2).name(), "Price");
  EXPECT_EQ(fact->Get(0, 0).as_int(), geo);
  EXPECT_DOUBLE_EQ(fact->Get(0, 2).as_double(), 10.0);
}

TEST_F(WarehouseTest, CreateRejectsInvalidSchema) {
  MdSchema bad;
  ASSERT_TRUE(bad.AddDimension({"D", {{"L"}}}).ok());
  FactDef f;
  f.name = "F";
  f.roles = {{"a", "D"}, {"A", "D"}};
  ASSERT_TRUE(bad.AddFact(std::move(f)).ok());
  EXPECT_FALSE(Warehouse::Create(std::move(bad)).ok());
}

}  // namespace
}  // namespace dw
}  // namespace dwqa
