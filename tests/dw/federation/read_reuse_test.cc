// The FederatedEngine answers a query once per federation state: the
// finished groups are stored with the Warehouse::stamp() of every member and
// handed out again until a member changes, the policy changes or a member
// joins. The seeded differential test interleaves reads with writes on
// both sides, policy switches, chaos and concurrent reads, and checks every
// answer bit for bit against a fresh engine and the MergeWarehouses oracle.

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "common/fault.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
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

constexpr uint64_t kSeeds = 24;
constexpr int kSteps = 40;
constexpr int kDays = 5;
const Date kStart(2004, 1, 1);

/// "" when `got` renders exactly like `want`: headers, group order, every
/// cell's type and, for doubles, its bits. Otherwise what differs.
std::string Diff(const OlapResult& want, const OlapResult& got) {
  if (want.headers != got.headers) return "headers differ";
  if (want.rows.size() != got.rows.size()) {
    return std::to_string(want.rows.size()) + " rows, got " +
           std::to_string(got.rows.size());
  }
  for (size_t r = 0; r < want.rows.size(); ++r) {
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      const Value& a = want.rows[r][c];
      const Value& b = got.rows[r][c];
      const bool same =
          a.is_double() && b.is_double()
              ? std::bit_cast<uint64_t>(a.as_double()) ==
                    std::bit_cast<uint64_t>(b.as_double())
              : a == b;
      if (!same) {
        return "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": want '" + a.ToString() + "', got '" + b.ToString() + "'";
      }
    }
  }
  return "";
}

/// The query shapes the reads draw from: the two BI aggregates, a roll-up
/// with HAVING and a case-mangled slice.
std::vector<OlapQuery> Queries() {
  std::vector<OlapQuery> q(4);
  q[0].fact = "Weather";
  q[0].measures = {{"TemperatureC", AggFn::kAvg},
                   {"TemperatureC", AggFn::kCount}};
  q[0].group_by = {{"location", "City"}, {"day", "Date"}};
  q[1].fact = "LastMinuteSales";
  q[1].measures = {{"Tickets", AggFn::kSum}};
  q[1].group_by = {{"destination", "City"}, {"date", "Date"}};
  q[2].fact = "LastMinuteSales";
  q[2].measures = {{"Miles", AggFn::kSum}, {"Price", AggFn::kMax}};
  q[2].group_by = {{"destination", "Country"}};
  q[2].having = {{0, CompareOp::kGreater, 100.0}};
  q[3].fact = "Weather";
  q[3].measures = {{"TemperatureC", AggFn::kMin}};
  q[3].group_by = {{"location", "City"}};
  q[3].filters = {{"location", "City", {"barcelona", "GIRONA", "Paris"}}};
  return q;
}

/// Weather cities the writes draw from: partner cities, a local-only one,
/// and spellings that differ from a member of the other side only by case.
const std::vector<std::string> kCities = {"Barcelona", "BARCELONA", "Paris",
                                          "Girona",    "GIRONA",    "Oslo"};

/// One seed's federation: the two-airline scenario, grown at random.
class World {
 public:
  explicit World(uint64_t seed) : rng_(seed) {
    local_ = std::make_unique<Warehouse>(
        integration::LastMinuteSales::MakeWarehouse().ValueOrDie());
    web::WeatherModel weather(42);
    EXPECT_TRUE(integration::LastMinuteSales::GenerateSales(
                    local_.get(), weather, kStart, kDays)
                    .ok());
    remote_ = std::make_unique<Warehouse>(
        PartnerAirline::MakeWarehouse().ValueOrDie());
    EXPECT_TRUE(
        PartnerAirline::GeneratePartnerSales(remote_.get(), kStart, kDays)
            .ok());
    EXPECT_TRUE(
        PartnerAirline::GeneratePartnerWeather(remote_.get(), kStart, kDays)
            .ok());
    SchemaMatcher matcher(PartnerAirline::DefaultMatcherOptions());
    mapping_ = matcher.Match(*local_, *remote_).ValueOrDie();
    // One local reading under a partner fact key with another value: every
    // policy has a conflict to resolve, and each resolves it differently.
    InsertWeather(local_.get(), "Barcelona", 0, 99.0,
                  "http://partner.example/weather/barcelona");
  }

  Rng& rng() { return rng_; }
  Warehouse* local() { return local_.get(); }
  Warehouse* remote() { return remote_.get(); }
  const SchemaMapping& mapping() const { return mapping_; }

  /// A Weather fact on `wh`: `city` on day `day` of the run.
  static void InsertWeather(Warehouse* wh, const std::string& city, int day,
                            double celsius, const std::string& url) {
    Date date = kStart;
    for (int d = 0; d < day; ++d) date = date.NextDay();
    auto city_id = wh->AddMember("City", {city, "Spain"});
    auto day_id = wh->AddMember("Date", DateMemberPath(date));
    auto source_id = wh->AddMember("Source", {url});
    ASSERT_TRUE(city_id.ok() && day_id.ok() && source_id.ok());
    ASSERT_TRUE(wh->InsertFact("Weather", {*city_id, *day_id, *source_id},
                               {Value(celsius)})
                    .ok());
  }

  /// A random Weather fact on `wh`, sometimes under a partner fact key.
  void RandomWeather(Warehouse* wh) {
    const std::string city = kCities[rng_.NextIndex(kCities.size())];
    const std::string url =
        rng_.NextBool(0.4)
            ? "http://partner.example/weather/" + ToLower(city)
            : "http://local.example/weather/" +
                  std::to_string(rng_.NextIndex(4));
    InsertWeather(wh, city, static_cast<int>(rng_.NextIndex(kDays + 2)),
                  double(rng_.NextInRange(-20, 120)) / 4, url);
  }

  /// A random local sale between registered airports.
  void RandomSale() {
    const size_t airports = (*local_->DimensionTable("Airport"))->row_count();
    const size_t customers =
        (*local_->DimensionTable("Customer"))->row_count();
    Date date = kStart;
    for (size_t d = rng_.NextIndex(kDays); d > 0; --d) date = date.NextDay();
    const MemberId day =
        local_->AddMember("Date", DateMemberPath(date)).ValueOrDie();
    ASSERT_TRUE(
        local_
            ->InsertFact("LastMinuteSales",
                         {MemberId(rng_.NextIndex(airports)),
                          MemberId(rng_.NextIndex(airports)),
                          MemberId(rng_.NextIndex(customers)), day},
                         {Value(double(rng_.NextInRange(40, 400)) / 4),
                          Value(double(rng_.NextInRange(100, 900))),
                          Value(double(rng_.NextInRange(1, 6)))})
            .ok());
  }

  /// A member with no facts: the answer stays, the stamp moves.
  void NewCity(Warehouse* wh) {
    ASSERT_TRUE(
        wh->AddMember("City", {"Town " + std::to_string(towns_++), "Spain"})
            .ok());
  }

 private:
  Rng rng_;
  std::unique_ptr<Warehouse> local_;
  std::unique_ptr<Warehouse> remote_;
  SchemaMapping mapping_;
  size_t towns_ = 0;
};

/// A random conflict policy.
MergePolicy RandomPolicy(Rng* rng) {
  MergePolicy policy;
  policy.conflicts = static_cast<ConflictPolicy>(rng->NextIndex(3));
  policy.remote_refresh_iso = rng->NextBool(0.5) ? "2004-06-01" : "1970-01-01";
  return policy;
}

/// Fails on every probe: stands in for a member chaos took away.
FaultInjector AlwaysFails() {
  FaultConfig config;
  config.rules = {{kFaultPointFedSubquery, 1.0}};
  return FaultInjector(config);
}

/// What `query` answers with a fresh engine (no stored answers) over the
/// current warehouses, missing the members `coverage` says were missing.
Result<FederatedResult> FreshAnswer(World* world, const MergePolicy& policy,
                                    const OlapQuery& query,
                                    const FederatedCoverage& coverage) {
  auto missing = [&](const std::string& name) {
    for (const CoverageGap& gap : coverage.missing) {
      if (gap.warehouse == name) return true;
    }
    return false;
  };
  FaultInjector local_fails = AlwaysFails(), remote_fails = AlwaysFails();
  FederatedEngine fresh(world->local());
  EXPECT_TRUE(fresh
                  .AddRemote("partner", world->remote(), world->mapping(),
                             missing("partner") ? &remote_fails : nullptr)
                  .ok());
  if (missing("local")) fresh.set_local_chaos(&local_fails);
  fresh.set_policy(policy);
  return fresh.Execute(query);
}

/// The merged oracle's answer to `query` over the current warehouses.
OlapResult OracleAnswer(World* world, const MergePolicy& policy,
                        const OlapQuery& query) {
  Warehouse merged = MergeWarehouses(*world->local(), *world->remote(),
                                     world->mapping(), policy)
                         .ValueOrDie();
  return OlapEngine(&merged).Execute(query).ValueOrDie();
}

TEST(FederatedReadReuseTest, ReusedAnswersMatchAFreshEngineAndTheOracle) {
  const std::vector<OlapQuery> queries = Queries();
  size_t reads = 0, partial_reads = 0, concurrent_rounds = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    World world(seed);
    Rng& rng = world.rng();
    ThreadPool pool(2);
    MergePolicy policy = RandomPolicy(&rng);
    FaultConfig chaos_config;
    chaos_config.rules = {{kFaultPointFedSubquery, 0.4}};
    FaultInjector remote_chaos, local_chaos;  // Disabled until toggled.
    FederatedEngine engine(world.local());
    ASSERT_TRUE(engine
                    .AddRemote("partner", world.remote(), world.mapping(),
                               &remote_chaos)
                    .ok());
    engine.set_local_chaos(&local_chaos);
    engine.set_pool(&pool);
    engine.set_policy(policy);
    bool chaos = false;

    for (int step = 0; step < kSteps; ++step) {
      const std::string ctx =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const double u = rng.NextDouble();
      if (u < 0.08) {
        world.RandomWeather(world.local());
      } else if (u < 0.16) {
        world.RandomWeather(world.remote());
      } else if (u < 0.20) {
        world.RandomSale();
      } else if (u < 0.23) {
        world.NewCity(rng.NextBool(0.5) ? world.local() : world.remote());
      } else if (u < 0.28) {
        policy = RandomPolicy(&rng);
        engine.set_policy(policy);
      } else if (u < 0.34) {
        chaos = !chaos;
        chaos_config.seed = rng.Next();
        remote_chaos = chaos ? FaultInjector(chaos_config) : FaultInjector();
        local_chaos = chaos && rng.NextBool(0.5) ? FaultInjector(chaos_config)
                                                 : FaultInjector();
      } else if (u < 0.40 && !chaos) {
        // Concurrent reads of every shape against one state.
        std::vector<OlapResult> expected;
        for (const OlapQuery& q : queries) {
          expected.push_back(
              FreshAnswer(&world, policy, q, {}).ValueOrDie().result);
        }
        constexpr size_t kCallers = 3;
        std::vector<std::string> failures(kCallers);
        std::vector<std::thread> callers;
        for (size_t t = 0; t < kCallers; ++t) {
          callers.emplace_back([&, t] {
            for (size_t i = 0; i < 2 * queries.size(); ++i) {
              const size_t qi = (t + i) % queries.size();
              auto groups = engine.GroupShared(queries[qi]);
              if (!groups.ok()) {
                failures[t] = groups.status().ToString();
                return;
              }
              auto rendered = Render(queries[qi], (*groups)->grouped,
                                     (*groups)->slots);
              const std::string diff =
                  rendered.ok() ? Diff(expected[qi], *rendered)
                                : rendered.status().ToString();
              if (!diff.empty()) {
                failures[t] = "query " + std::to_string(qi) + ": " + diff;
                return;
              }
            }
          });
        }
        for (std::thread& caller : callers) caller.join();
        for (const std::string& failure : failures) {
          ASSERT_EQ(failure, "") << ctx << " concurrent";
        }
        ++concurrent_rounds;
      } else {
        const size_t qi = rng.NextIndex(queries.size());
        const OlapQuery& q = queries[qi];
        const std::string qctx = ctx + " query " + std::to_string(qi);
        auto got = engine.Execute(q);
        ++reads;
        if (!got.ok()) {
          // Every member was lost: a fresh engine missing both fails too.
          FederatedCoverage none;
          none.missing = {{"local", ""}, {"partner", ""}};
          auto fresh = FreshAnswer(&world, policy, q, none);
          ASSERT_FALSE(fresh.ok()) << qctx;
          continue;
        }
        auto fresh = FreshAnswer(&world, policy, q, got->coverage);
        ASSERT_TRUE(fresh.ok()) << qctx << ": " << fresh.status().ToString();
        ASSERT_EQ(fresh->coverage.answered, got->coverage.answered) << qctx;
        ASSERT_EQ(Diff(fresh->result, got->result), "") << qctx << " fresh";
        if (got->coverage.full()) {
          ASSERT_EQ(Diff(OracleAnswer(&world, policy, q), got->result), "")
              << qctx << " oracle";
        } else {
          ++partial_reads;
        }
      }
    }
  }
  // The sequences did what they are for.
  EXPECT_GT(reads, kSeeds * kSteps / 3);
  EXPECT_GT(partial_reads, 0u);
  EXPECT_GT(concurrent_rounds, 0u);
}

/// The two-airline federation of the differential test, without writes.
class ReadReuseTest : public ::testing::Test {
 protected:
  ReadReuseTest() : world_(7) {}
  World world_;
};

TEST_F(ReadReuseTest, ReusedReadCountsEachMemberAndOpensNoFanOut) {
  MetricRegistry metrics;
  FederatedEngine engine(world_.local());
  ASSERT_TRUE(
      engine.AddRemote("partner", world_.remote(), world_.mapping()).ok());
  engine.set_metrics(&metrics);
  const OlapQuery q = Queries()[0];

  TraceRecorder first_trace, second_trace;
  engine.set_trace_recorder(&first_trace);
  auto first = engine.Execute(q);
  engine.set_trace_recorder(&second_trace);
  auto second = engine.Execute(q);
  engine.set_trace_recorder(nullptr);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(Diff(first->result, second->result), "");

  for (const char* member : {"local", "partner"}) {
    EXPECT_EQ(metrics.Value(kMetricFedSubqueries,
                            {{"warehouse", member}, {"outcome", "ok"}}),
              1.0)
        << member;
    EXPECT_EQ(metrics.Value(kMetricFedSubqueries,
                            {{"warehouse", member}, {"outcome", "reused"}}),
              1.0)
        << member;
  }
  EXPECT_EQ(metrics.Value(kMetricFedQueries, {{"coverage", "full"}}), 2.0);

  auto names = [](const TraceRecorder& trace) {
    std::vector<std::string> out;
    for (const SpanRecord& span : trace.spans()) out.push_back(span.name);
    return out;
  };
  EXPECT_EQ(names(first_trace),
            (std::vector<std::string>{"fed.plan", "fed.fanout", "fed.merge"}));
  ASSERT_EQ(names(second_trace), std::vector<std::string>{"fed.plan"});
  const std::vector<SpanRecord> spans = second_trace.spans();
  const auto& notes = spans.front().annotations;
  EXPECT_NE(std::find(notes.begin(), notes.end(),
                      std::pair<std::string, std::string>("reused", "1")),
            notes.end());
}

TEST_F(ReadReuseTest, AHitIsSharedNotCopied) {
  FederatedEngine engine(world_.local());
  ASSERT_TRUE(
      engine.AddRemote("partner", world_.remote(), world_.mapping()).ok());
  const OlapQuery q = Queries()[1];
  auto first = engine.GroupShared(q);
  auto second = engine.GroupShared(q);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->get(), second->get());

  // A write, a policy switch or a new member each force a fresh answer.
  World::InsertWeather(world_.remote(), "Oslo", 1, 3.5,
                       "http://partner.example/weather/new");
  auto after_write = engine.GroupShared(q);
  ASSERT_TRUE(after_write.ok());
  EXPECT_NE(after_write->get(), second->get());
  engine.set_policy(MergePolicy{});
  auto after_policy = engine.GroupShared(q);
  ASSERT_TRUE(after_policy.ok());
  EXPECT_NE(after_policy->get(), after_write->get());
  Warehouse other = PartnerAirline::MakeWarehouse().ValueOrDie();
  ASSERT_TRUE(engine.AddRemote("other", &other, world_.mapping()).ok());
  auto after_member = engine.GroupShared(q);
  ASSERT_TRUE(after_member.ok());
  EXPECT_NE(after_member->get(), after_policy->get());
}

TEST_F(ReadReuseTest, AChaosPartialAnswerIsNeverReused) {
  FaultConfig config;
  config.rules = {{kFaultPointFedSubquery, 1.0}};
  FaultInjector chaos;
  FederatedEngine engine(world_.local());
  ASSERT_TRUE(engine
                  .AddRemote("partner", world_.remote(), world_.mapping(),
                             &chaos)
                  .ok());
  const OlapQuery q = Queries()[0];
  chaos = FaultInjector(config);
  auto partial = engine.Execute(q);
  ASSERT_TRUE(partial.ok());
  ASSERT_FALSE(partial->coverage.full());
  chaos = FaultInjector();
  auto full = engine.Execute(q);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->coverage.full());
  EXPECT_EQ(Diff(OracleAnswer(&world_, {}, q), full->result), "");
  // And a full answer is not handed to a read that lost a member.
  chaos = FaultInjector(config);
  auto again = engine.Execute(q);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->coverage.full());
  EXPECT_EQ(Diff(partial->result, again->result), "");
}

TEST_F(ReadReuseTest, LocalChaosArmedAfterAStoredReadIsProbed) {
  FederatedEngine engine(world_.local());
  ASSERT_TRUE(
      engine.AddRemote("partner", world_.remote(), world_.mapping()).ok());
  const OlapQuery q = Queries()[0];
  auto stored = engine.Execute(q);
  ASSERT_TRUE(stored.ok() && stored->coverage.full());
  // The stored read's plan must not keep the injector it was planned with.
  FaultInjector local_fails = AlwaysFails();
  engine.set_local_chaos(&local_fails);
  auto partial = engine.Execute(q);
  ASSERT_TRUE(partial.ok());
  ASSERT_EQ(partial->coverage.missing.size(), 1u);
  EXPECT_EQ(partial->coverage.missing.front().warehouse, "local");
}

}  // namespace
}  // namespace fed
}  // namespace dw
}  // namespace dwqa
