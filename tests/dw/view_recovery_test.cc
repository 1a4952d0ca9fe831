#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/io.h"
#include "dw/etl.h"
#include "dw/materialized_view.h"
#include "dw/olap.h"
#include "dw/recovery.h"
#include "integration/last_minute_sales.h"

namespace dwqa {
namespace dw {
namespace {

namespace stdfs = std::filesystem;

WalFact MakeFact(int day, const std::string& city) {
  char date[11];
  std::snprintf(date, sizeof(date), "2004-01-%02d", day);
  WalFact fact;
  fact.fact_name = "Weather";
  fact.attribute = "temperature";
  fact.value = 5.0 + day;
  fact.unit = "\xC2\xBA\x43";
  fact.date_iso = date;
  fact.location = city;
  fact.url = "http://weather.example/" + city;
  fact.confidence = 0.9;
  fact.dedup_key = "temperature|" + city + "|" + date;
  fact.record.role_paths = {
      {city}, DateMemberPath(Date::FromIsoString(date).ValueOrDie()),
      {fact.url}};
  fact.record.measures = {Value(fact.value)};
  return fact;
}

/// The durability workload of the crash sweep: groups of two facts (WAL
/// appends interleaved with warehouse loads, closed by a commit and one
/// sync), a mid-run snapshot dropping covered segments, more groups after
/// it — so recovery exercises both the snapshot-load + Bind() rebuild AND
/// the WAL-replay incremental maintenance of the same catalog.
size_t RunWorkload(const std::string& dir, FaultFs* fs) {
  WalOptions options;
  options.segment_bytes = 256;  // Small enough to force a rotation.
  auto wal = WalWriter::Open(dir, options, fs);
  if (!wal.ok()) return fs->op_count();
  Warehouse wh = integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
  EtlLoader loader(&wh);
  CommitSet commits;
  const std::vector<std::string> cities = {"Barcelona", "Madrid"};
  auto feed = [&](int from, int to) -> bool {
    for (int day = from; day <= to; day += 2) {
      WalCommit commit;
      commit.question = "days-" + std::to_string(day);
      for (int d = day; d <= day + 1; ++d) {
        WalFact fact = MakeFact(d, cities[size_t(d) % cities.size()]);
        auto lsn = (*wal)->AppendFact(fact);
        if (!lsn.ok()) return false;
        if (commit.first_lsn == 0) commit.first_lsn = *lsn;
        commit.last_lsn = *lsn;
        if (!loader.LoadRecord(fact.fact_name, fact.record).ok()) {
          return false;
        }
        commits.fed_keys.insert(fact.dedup_key);
      }
      if (!(*wal)->AppendCommit(commit).ok() || !(*wal)->Sync().ok()) {
        return false;
      }
      commits.questions.insert(commit.question);
    }
    return true;
  };
  if (!feed(1, 4)) return fs->op_count();
  if (SnapshotWriter::Write(dir, wh, commits, (*wal)->last_lsn(), fs).ok()) {
    (void)(*wal)->DropSegmentsCoveredBy((*wal)->last_lsn());
  }
  (void)feed(5, 8);
  return fs->op_count();
}

/// The queries the BI layer reads over the recovered Weather fact.
std::vector<OlapQuery> WeatherQueries() {
  std::vector<OlapQuery> queries;
  OlapQuery by_city;
  by_city.fact = "Weather";
  by_city.measures = {{"TemperatureC", AggFn::kAvg}};
  by_city.group_by = {{"location", "City"}};
  queries.push_back(by_city);
  OlapQuery by_day;
  by_day.fact = "Weather";
  by_day.measures = {{"TemperatureC", AggFn::kMax}};
  by_day.group_by = {{"day", "Date"}};
  queries.push_back(by_day);
  OlapQuery slice;
  slice.fact = "Weather";
  slice.measures = {{"TemperatureC", AggFn::kAvg}};
  slice.group_by = {{"location", "City"}, {"day", "Date"}};
  queries.push_back(slice);
  return queries;
}

/// Asserts the recovered catalog's answers are byte-identical to BOTH the
/// engine recompute and a second catalog bound from scratch over the
/// recovered facts — the "views equal a from-scratch rebuild" contract.
void ExpectViewsEqualRebuild(const Warehouse& wh, const ViewCatalog& views,
                             const std::string& context) {
  ViewCatalog fresh;
  ASSERT_TRUE(fresh.DefineAll(DeriveViewsFromSchema(wh.schema())).ok())
      << context;
  ASSERT_TRUE(fresh.Bind(wh).ok()) << context;
  OlapEngine engine(&wh);
  for (const OlapQuery& q : WeatherQueries()) {
    auto recovered = views.Answer(q);
    auto rebuilt = fresh.Answer(q);
    ASSERT_TRUE(recovered.ok()) << context << ": "
                                << recovered.status().ToString();
    ASSERT_TRUE(rebuilt.ok()) << context;
    OlapResult golden = engine.Execute(q).ValueOrDie();
    EXPECT_EQ(recovered->ToDisplayString(), golden.ToDisplayString())
        << context;
    EXPECT_EQ(recovered->ToDisplayString(), rebuilt->ToDisplayString())
        << context;
    EXPECT_EQ(recovered->facts_scanned, golden.facts_scanned) << context;
    EXPECT_EQ(recovered->facts_matched, golden.facts_matched) << context;
    EXPECT_EQ(recovered->headers, golden.headers) << context;
  }
  // The materialized state itself matches, view by view.
  auto a = views.StatsSnapshot();
  auto b = fresh.StatsSnapshot();
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << context;
    EXPECT_EQ(a[i].groups, b[i].groups) << context << " " << a[i].name;
    EXPECT_EQ(a[i].facts_absorbed, b[i].facts_absorbed)
        << context << " " << a[i].name;
  }
}

class ViewRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::path(::testing::TempDir()) / (std::string("dwqa_view_recovery.") + std::to_string(::getpid()));
    stdfs::remove_all(dir_);
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  Result<RecoveredWarehouse> Recover(ViewCatalog* catalog) {
    RecoveryOptions options;
    options.bootstrap_schema = integration::LastMinuteSales::MakeSchema();
    if (catalog != nullptr) {
      Status defined = catalog->DefineAll(
          DeriveViewsFromSchema(*options.bootstrap_schema));
      if (!defined.ok()) return defined;
      options.views = catalog;
    }
    return Recovery::Open(Dir(), options);
  }

  stdfs::path dir_;
};

/// Clean-shutdown recovery: the catalog rebuilds from the snapshot via
/// Bind(), then WAL replay routes the tail through incremental
/// maintenance — and the result equals a from-scratch rebuild.
TEST_F(ViewRecoveryTest, RecoveryRebuildsViewsFromSnapshotAndWalTail) {
  FaultFs fs(RealFilesystem());
  RunWorkload(Dir(), &fs);

  ViewCatalog catalog;
  auto recovered = Recover(&catalog);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(
      recovered->warehouse.FactRowCount("Weather").ValueOrDie(), 8u);
  EXPECT_EQ(recovered->warehouse.views(), &catalog);
  // The WAL tail past the snapshot reached the views incrementally, not
  // through another rebuild.
  EXPECT_GT(catalog.maintenance_updates(), 0u);
  ExpectViewsEqualRebuild(recovered->warehouse, catalog, "clean recovery");
}

/// The tentpole sweep: crash at EVERY mutating fs op, in both stop and
/// torn-write modes; after each crash, recovery with a view catalog must
/// leave view contents equal to a from-scratch rebuild over the recovered
/// facts.
TEST_F(ViewRecoveryTest, EveryCrashPointRecoversViewsEqualToRebuild) {
  FaultFs recorder(RealFilesystem());
  size_t ops = RunWorkload(Dir(), &recorder);
  ASSERT_GT(ops, 20u) << "workload too small to be a real sweep";

  for (CrashMode mode : {CrashMode::kStop, CrashMode::kTornWrite}) {
    for (size_t crash_at = 0; crash_at < ops; ++crash_at) {
      stdfs::remove_all(dir_);
      CrashPlan plan;
      plan.crash_at_op = crash_at;
      plan.mode = mode;
      plan.seed = 23 + crash_at;
      FaultFs fs(RealFilesystem(), plan);
      RunWorkload(Dir(), &fs);
      ASSERT_TRUE(fs.crashed()) << "op " << crash_at << " never executed";
      const std::string context = std::string(CrashModeName(mode)) +
                                  " @ op " + std::to_string(crash_at);

      ViewCatalog catalog;
      auto recovered = Recover(&catalog);
      ASSERT_TRUE(recovered.ok())
          << context << ": " << recovered.status().ToString();
      ExpectViewsEqualRebuild(recovered->warehouse, catalog, context);
    }
  }
}

/// A recovery opened WITHOUT views must stay view-free (no hook installed),
/// and one whose catalog holds an unresolvable definition must fail loudly
/// instead of serving stale answers.
TEST_F(ViewRecoveryTest, RecoveryWithoutViewsAndWithBadViewsBehave) {
  FaultFs fs(RealFilesystem());
  RunWorkload(Dir(), &fs);

  auto plain = Recover(nullptr);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->warehouse.views(), nullptr);

  ViewCatalog bad;
  ViewDefinition ghost;
  ghost.name = "ghost";
  ghost.fact = "NoSuchFact";
  ghost.group_by = {{"location", "City"}};
  ASSERT_TRUE(bad.Define(ghost).ok());
  RecoveryOptions options;
  options.bootstrap_schema = integration::LastMinuteSales::MakeSchema();
  options.views = &bad;
  EXPECT_FALSE(Recovery::Open(Dir(), options).ok());
}

}  // namespace
}  // namespace dw
}  // namespace dwqa
