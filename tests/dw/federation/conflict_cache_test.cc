// Conflict resolution in the FederatedEngine: a read's conflict resolution
// is part of its stored plan, reused only while no member changed
// (Warehouse::stamp()) and the policy is the one it was planned under, and
// counted on every read. Every answer test checks the federated answer
// against the MergeWarehouses oracle of the warehouses' current content, so
// a stale resolution shows as a wrong row.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "common/fault.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "dw/etl.h"
#include "dw/federation/federated_engine.h"
#include "dw/federation/merge_warehouses.h"
#include "dw/federation/partner_warehouse.h"
#include "dw/olap.h"
#include "integration/last_minute_sales.h"
#include "web/weather_model.h"

namespace dwqa {
namespace dw {
namespace fed {
namespace {

constexpr int kDays = 7;
constexpr char kPartnerBarcelona[] =
    "http://partner.example/weather/barcelona";

OlapQuery WeatherByCityDay() {
  OlapQuery q;
  q.fact = "Weather";
  q.measures = {{"TemperatureC", AggFn::kAvg}, {"TemperatureC", AggFn::kCount}};
  q.group_by = {{"location", "City"}, {"day", "Date"}};
  return q;
}

OlapQuery SalesByCityDay() {
  OlapQuery q;
  q.fact = "LastMinuteSales";
  q.measures = {{"Tickets", AggFn::kSum}};
  q.group_by = {{"destination", "City"}, {"date", "Date"}};
  return q;
}

/// The two-airline federation of federated_engine_test.cc, small enough to
/// re-merge after every write.
class ConflictCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    local_ = std::make_unique<Warehouse>(MakeLocal());
    auto remote = PartnerAirline::MakeWarehouse();
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    remote_ = std::make_unique<Warehouse>(std::move(*remote));
    ASSERT_TRUE(
        PartnerAirline::GeneratePartnerSales(remote_.get(), kStart, kDays)
            .ok());
    ASSERT_TRUE(
        PartnerAirline::GeneratePartnerWeather(remote_.get(), kStart, kDays)
            .ok());
    SchemaMatcher matcher(PartnerAirline::DefaultMatcherOptions());
    auto mapping = matcher.Match(*local_, *remote_);
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    mapping_ = std::move(*mapping);
  }

  /// A local warehouse with a week of sales and one Barcelona reading.
  static Warehouse MakeLocal() {
    Warehouse wh = integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
    web::WeatherModel weather(42);
    EXPECT_TRUE(integration::LastMinuteSales::GenerateSales(&wh, weather,
                                                            kStart, kDays)
                    .ok());
    InsertWeather(&wh, "Barcelona", "2004-01-03", 9.25,
                  "http://local.example/weather/barcelona");
    return wh;
  }

  /// One Weather fact; `url` decides whether its key meets a partner one.
  static void InsertWeather(Warehouse* wh, const std::string& city,
                            const std::string& iso_day, double celsius,
                            const std::string& url) {
    auto city_id = wh->AddMember("City", {city, "Spain"});
    ASSERT_TRUE(city_id.ok()) << city_id.status().ToString();
    auto day_id =
        wh->AddMember("Date", DateMemberPath(*Date::FromIsoString(iso_day)));
    ASSERT_TRUE(day_id.ok());
    auto source_id = wh->AddMember("Source", {url});
    ASSERT_TRUE(source_id.ok());
    ASSERT_TRUE(wh->InsertFact("Weather", {*city_id, *day_id, *source_id},
                               {Value(celsius)})
                    .ok());
  }

  /// The partner's reading of `iso_day` under its own fact key.
  double PartnerBarcelona(const std::string& iso_day) const {
    OlapQuery q = WeatherByCityDay();
    q.filters = {{"location", "City", {"Barcelona"}},
                 {"day", "Date", {iso_day}}};
    auto result = OlapEngine(remote_.get()).Execute(q);
    EXPECT_TRUE(result.ok() && result->rows.size() == 1);
    return result->rows.front()[2].ToDouble();
  }

  std::unique_ptr<FederatedEngine> MakeEngine(const MergePolicy& policy = {}) {
    auto engine = std::make_unique<FederatedEngine>(local_.get());
    EXPECT_TRUE(engine->AddRemote("partner", remote_.get(), mapping_).ok());
    engine->set_policy(policy);
    return engine;
  }

  /// `engine`'s answer to `query` equals the merged oracle of the current
  /// warehouses under `policy`.
  void ExpectMatchesMerged(const FederatedEngine& engine,
                           const OlapQuery& query, const MergePolicy& policy,
                           const std::string& context) {
    auto merged = MergeWarehouses(*local_, *remote_, mapping_, policy);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    auto oracle = OlapEngine(&*merged).Execute(query);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    auto fed = engine.Execute(query);
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    EXPECT_EQ(oracle->headers, fed->result.headers) << context;
    EXPECT_TRUE(oracle->rows == fed->result.rows)
        << context << "\noracle:\n"
        << oracle->ToDisplayString(200) << "federated:\n"
        << fed->result.ToDisplayString(200);
  }

  static inline const Date kStart{2004, 1, 1};
  std::unique_ptr<Warehouse> local_;
  std::unique_ptr<Warehouse> remote_;
  SchemaMapping mapping_;
};

TEST(WarehouseStampTest, EveryWriteTakesAFreshStamp) {
  Warehouse a = integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
  Warehouse b = integration::LastMinuteSales::MakeWarehouse().ValueOrDie();
  EXPECT_NE(a.stamp(), b.stamp());

  uint64_t before = a.stamp();
  MemberId city = a.AddMember("City", {"Oslo", "Norway"}).ValueOrDie();
  EXPECT_NE(a.stamp(), before);
  before = a.stamp();
  EXPECT_EQ(a.AddMember("City", {"OSLO"}).ValueOrDie(), city);  // Found.
  EXPECT_EQ(a.stamp(), before);

  MemberId day =
      a.AddMember("Date", DateMemberPath(Date(2004, 1, 1))).ValueOrDie();
  MemberId source = a.AddMember("Source", {"http://x"}).ValueOrDie();
  before = a.stamp();
  ASSERT_TRUE(a.InsertFact("Weather", {city, day, source}, {Value(1.5)}).ok());
  EXPECT_NE(a.stamp(), before);
  before = a.stamp();
  EXPECT_FALSE(a.InsertFact("Weather", {city, day}, {Value(1.5)}).ok());
  EXPECT_EQ(a.stamp(), before);  // A refused insert changes nothing.

  // A copy shares the stamp until either side writes.
  Warehouse copy = a;
  EXPECT_EQ(copy.stamp(), a.stamp());
  ASSERT_TRUE(
      copy.InsertFact("Weather", {city, day, source}, {Value(2.5)}).ok());
  EXPECT_NE(copy.stamp(), a.stamp());
  EXPECT_NE(copy.stamp(), b.stamp());
}

TEST_F(ConflictCacheTest, WritesOnEitherSideAreSeenByTheNextQuery) {
  const MergePolicy policy;  // prefer_local
  auto engine = MakeEngine(policy);
  const std::vector<OlapQuery> queries = {WeatherByCityDay(),
                                          SalesByCityDay()};
  auto check = [&](const std::string& context) {
    for (const OlapQuery& q : queries) {
      ExpectMatchesMerged(*engine, q, policy, context);
    }
  };
  check("initial");
  check("cached");

  // A local reading under the partner's key that disagrees: the partner's
  // row must now be excluded.
  InsertWeather(local_.get(), "Barcelona", "2004-01-01",
                PartnerBarcelona("2004-01-01") + 10.0, kPartnerBarcelona);
  check("after a conflicting local insert");

  // A local copy of a partner reading: the partner's copy is deduplicated.
  InsertWeather(local_.get(), "Barcelona", "2004-01-02",
                PartnerBarcelona("2004-01-02"), kPartnerBarcelona);
  check("after a duplicating local insert");

  // A remote reading meeting a local key.
  InsertWeather(remote_.get(), "Barcelona", "2004-01-03", 30.0,
                "http://local.example/weather/barcelona");
  check("after a conflicting remote insert");

  // Member registrations alone.
  ASSERT_TRUE(local_->AddMember("City", {"Tromso", "Norway"}).ok());
  check("after a local AddMember");
  ASSERT_TRUE(remote_->AddMember("City", {"Bergen", "Norway"}).ok());
  check("after a remote AddMember");
}

TEST_F(ConflictCacheTest, PolicySwitchTakesEffect) {
  InsertWeather(local_.get(), "Barcelona", "2004-01-01",
                PartnerBarcelona("2004-01-01") + 10.0, kPartnerBarcelona);
  MergePolicy prefer_local;
  auto engine = MakeEngine(prefer_local);
  const OlapQuery q = WeatherByCityDay();
  ExpectMatchesMerged(*engine, q, prefer_local, "prefer_local");
  auto before = engine->Execute(q);
  ASSERT_TRUE(before.ok());

  MergePolicy quarantine;
  quarantine.conflicts = ConflictPolicy::kQuarantine;
  engine->set_policy(quarantine);
  ExpectMatchesMerged(*engine, q, quarantine, "quarantine");
  auto after = engine->Execute(q);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(before->result.rows == after->result.rows)
      << "the conflict must change the answer between the two policies";

  MergePolicy fresher;
  fresher.conflicts = ConflictPolicy::kPreferFresher;
  fresher.remote_refresh_iso = "2004-06-01";
  engine->set_policy(fresher);
  ExpectMatchesMerged(*engine, q, fresher, "prefer_fresher");
}

TEST_F(ConflictCacheTest, MoveAssignedWarehouseIsNotServedAStaleResolution) {
  InsertWeather(local_.get(), "Barcelona", "2004-01-01",
                PartnerBarcelona("2004-01-01") + 10.0, kPartnerBarcelona);
  const MergePolicy policy;
  auto engine = MakeEngine(policy);
  const OlapQuery q = WeatherByCityDay();
  ExpectMatchesMerged(*engine, q, policy, "before the move");

  // Same address, different content: the conflict moves to another day.
  Warehouse replacement = MakeLocal();
  InsertWeather(&replacement, "Barcelona", "2004-01-02",
                PartnerBarcelona("2004-01-02") + 10.0, kPartnerBarcelona);
  *local_ = std::move(replacement);
  ExpectMatchesMerged(*engine, q, policy, "after the move");

  // And back to a state with no conflict at all.
  *local_ = MakeLocal();
  ExpectMatchesMerged(*engine, q, policy, "after a second move");
}

TEST_F(ConflictCacheTest, ConflictCountsAreBumpedPerQuery) {
  InsertWeather(local_.get(), "Barcelona", "2004-01-01",
                PartnerBarcelona("2004-01-01") + 10.0, kPartnerBarcelona);
  InsertWeather(local_.get(), "Barcelona", "2004-01-02",
                PartnerBarcelona("2004-01-02"), kPartnerBarcelona);
  const MergePolicy policy;
  const FactMapping* weather = mapping_.FindLocalFact("Weather");
  ASSERT_NE(weather, nullptr);
  auto resolution =
      ResolveConflicts(*local_, *remote_, mapping_, *weather, policy);
  ASSERT_TRUE(resolution.ok());
  ASSERT_GT(resolution->stats.deduplicated_rows, 0u);
  ASSERT_GT(resolution->stats.remote_rows_dropped, 0u);

  MetricRegistry metrics;
  FaultInjector chaos;  // Disabled except for the partial read.
  FaultConfig partner_fails;
  partner_fails.rules = {{kFaultPointFedSubquery, 1.0}};
  auto engine = std::make_unique<FederatedEngine>(local_.get());
  ASSERT_TRUE(
      engine->AddRemote("partner", remote_.get(), mapping_, &chaos).ok());
  engine->set_policy(policy);
  engine->set_metrics(&metrics);
  // Every kind of read: planned, reused, partial off the stored plan, and
  // planned again after a write on either side. The writes meet no key of
  // the other side, so every read resolves the same conflicts.
  const std::vector<std::string> reads = {"first", "reused", "partial",
                                          "after a local write",
                                          "after a remote write"};
  for (int queries = 1; queries <= int(reads.size()); ++queries) {
    const std::string& read = reads[queries - 1];
    chaos = read == "partial" ? FaultInjector(partner_fails) : FaultInjector();
    if (read == "after a local write") {
      InsertWeather(local_.get(), "Oslo", "2004-01-04", 1.5,
                    "http://local.example/weather/oslo");
    } else if (read == "after a remote write") {
      InsertWeather(remote_.get(), "Oslo", "2004-01-05", 2.5,
                    "http://partner.example/weather/oslo");
    }
    auto now = ResolveConflicts(*local_, *remote_, mapping_, *weather, policy);
    ASSERT_TRUE(now.ok());
    ASSERT_EQ(now->stats.deduplicated_rows,
              resolution->stats.deduplicated_rows);
    ASSERT_EQ(now->stats.remote_rows_dropped,
              resolution->stats.remote_rows_dropped);

    auto got = engine->Execute(WeatherByCityDay());
    ASSERT_TRUE(got.ok()) << read;
    EXPECT_EQ(got->coverage.full(), read != "partial") << read;
    const MetricLabels dedup = {{"policy", "prefer_local"},
                          {"resolution", "deduplicated"}};
    const MetricLabels dropped = {{"policy", "prefer_local"},
                            {"resolution", "remote"}};
    EXPECT_EQ(metrics.Value(kMetricFedConflicts, dedup),
              queries * double(resolution->stats.deduplicated_rows))
        << read;
    EXPECT_EQ(metrics.Value(kMetricFedConflicts, dropped),
              queries * double(resolution->stats.remote_rows_dropped))
        << read;
  }
  // The sequence took the paths it names.
  EXPECT_EQ(metrics.Value(kMetricFedSubqueries,
                          {{"warehouse", "partner"}, {"outcome", "reused"}}),
            1.0);
  EXPECT_EQ(metrics.Value(kMetricFedSubqueries,
                          {{"warehouse", "partner"}, {"outcome", "ok"}}),
            3.0);
}

/// Concurrent GroupShared calls over a cold store race to fill it: every
/// caller must see the serial answer (the suite runs under TSan via
/// `threads`).
TEST_F(ConflictCacheTest, ConcurrentGroupCallsMatchTheSerialAnswer) {
  InsertWeather(local_.get(), "Barcelona", "2004-01-01",
                PartnerBarcelona("2004-01-01") + 10.0, kPartnerBarcelona);
  const std::vector<OlapQuery> queries = {WeatherByCityDay(),
                                          SalesByCityDay()};
  std::vector<OlapResult> expected;
  {
    auto serial = MakeEngine();
    for (const OlapQuery& q : queries) {
      expected.push_back(serial->Execute(q).ValueOrDie().result);
    }
  }
  ThreadPool pool(2);
  MetricRegistry metrics;
  auto engine = MakeEngine();
  engine->set_pool(&pool);
  engine->set_metrics(&metrics);
  constexpr size_t kCallers = 4;
  constexpr size_t kRounds = 6;
  std::vector<std::string> failures(kCallers);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        const size_t qi = (t + round) % queries.size();
        auto grouped = engine->GroupShared(queries[qi]);
        if (!grouped.ok()) {
          failures[t] = grouped.status().ToString();
          return;
        }
        auto rendered =
            Render(queries[qi], (*grouped)->grouped, (*grouped)->slots);
        if (!rendered.ok() || !(*grouped)->coverage.full() ||
            rendered->rows != expected[qi].rows) {
          failures[t] = "caller " + std::to_string(t) +
                        " diverged on query " + std::to_string(qi);
          return;
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
}

}  // namespace
}  // namespace fed
}  // namespace dw
}  // namespace dwqa
