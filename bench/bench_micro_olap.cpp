// Microbenchmarks of the OLAP engine over the Last Minute Sales cube:
// scan+aggregate cost by grouping level, slice selectivity and roll-up —
// plus the materialized-view sweep: view read vs recompute at 1k/10k-fact
// scale and the per-insert cost of incremental view maintenance — and the
// Step-5 sales-vs-temperature analysis read from views, recomputed, and
// federated with the partner airline.

#include <benchmark/benchmark.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_json_main.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "dw/etl.h"
#include "dw/federation/federated_engine.h"
#include "dw/federation/partner_warehouse.h"
#include "dw/materialized_view.h"
#include "dw/olap.h"
#include "integration/bi_analysis.h"
#include "integration/last_minute_sales.h"
#include "web/weather_model.h"

namespace {

using dwqa::dw::AggFn;
using dwqa::dw::DeriveViewsFromSchema;
using dwqa::dw::MemberId;
using dwqa::dw::OlapEngine;
using dwqa::dw::OlapQuery;
using dwqa::dw::Value;
using dwqa::dw::ViewCatalog;
using dwqa::dw::Warehouse;
using dwqa::integration::LastMinuteSales;

Warehouse& FullWarehouse() {
  static auto* wh = [] {
    auto warehouse = new Warehouse(
        LastMinuteSales::MakeWarehouse().ValueOrDie());
    dwqa::web::WeatherModel weather(42);
    LastMinuteSales::GenerateSales(warehouse, weather,
                                   dwqa::Date(2004, 1, 1), 730)
        .ValueOrDie();
    return warehouse;
  }();
  return *wh;
}

void BM_GroupByLevel(benchmark::State& state) {
  const char* levels[] = {"Airport", "City", "State", "Country"};
  OlapEngine engine(&FullWarehouse());
  OlapQuery q;
  q.fact = "LastMinuteSales";
  q.measures = {{"Tickets", AggFn::kSum}, {"Price", AggFn::kAvg}};
  q.group_by = {{"destination", levels[state.range(0)]}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(q).ValueOrDie());
  }
  state.SetItemsProcessed(
      int64_t(state.iterations()) *
      int64_t(FullWarehouse().FactRowCount("LastMinuteSales").ValueOrDie()));
}
BENCHMARK(BM_GroupByLevel)->DenseRange(0, 3);

void BM_SliceSelectivity(benchmark::State& state) {
  OlapEngine engine(&FullWarehouse());
  OlapQuery q;
  q.fact = "LastMinuteSales";
  q.measures = {{"Tickets", AggFn::kSum}};
  q.group_by = {{"destination", "City"}};
  q.filters = {{"destination", "Country", {"Spain"}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(q).ValueOrDie());
  }
}
BENCHMARK(BM_SliceSelectivity);

void BM_TwoAxisCube(benchmark::State& state) {
  OlapEngine engine(&FullWarehouse());
  OlapQuery q;
  q.fact = "LastMinuteSales";
  q.measures = {{"Tickets", AggFn::kSum}};
  q.group_by = {{"destination", "City"}, {"date", "Month"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(q).ValueOrDie());
  }
}
BENCHMARK(BM_TwoAxisCube);

void BM_RollUpDerivation(benchmark::State& state) {
  OlapEngine engine(&FullWarehouse());
  OlapQuery q;
  q.fact = "LastMinuteSales";
  q.measures = {{"Tickets", AggFn::kSum}};
  q.group_by = {{"destination", "Airport"}};
  for (auto _ : state) {
    auto up = engine.RollUp(q, "destination").ValueOrDie();
    benchmark::DoNotOptimize(engine.Execute(up).ValueOrDie());
  }
}
BENCHMARK(BM_RollUpDerivation);

// ---------------------------------------------------------------------------
// Materialized-view sweep: the same canonical BI aggregate answered by a
// full recompute vs a view read, at 1k to 1M facts (the `perf` ctest smoke
// filters out the 100k and 1M points). The acceptance bar
// is the ratio: a view read must be ≥50x faster than BM_GroupByLevelAtScale
// at 10k facts (it reads ~10 groups instead of scanning every row).
// ---------------------------------------------------------------------------

/// A warehouse with exactly `facts` synthetic sales rows, spread over 10
/// destinations × 365 dates, plus (when `with_views`) the derived catalog
/// bound and maintained through every insert.
struct ScaledCube {
  std::unique_ptr<Warehouse> wh;
  std::unique_ptr<ViewCatalog> views;
  std::vector<MemberId> airports, customers, dates;

  explicit ScaledCube(size_t facts, bool with_views) {
    wh = std::make_unique<Warehouse>(
        LastMinuteSales::MakeWarehouse().ValueOrDie());
    if (with_views) {
      views = std::make_unique<ViewCatalog>();
      DWQA_CHECK(
          views->DefineAll(DeriveViewsFromSchema(wh->schema())).ok());
      wh->AttachViews(views.get());
      DWQA_CHECK(views->Bind(*wh).ok());
    }
    for (int i = 0; i < 10; ++i) {
      airports.push_back(
          wh->AddMember("Airport", {"AP" + std::to_string(i),
                                    "City" + std::to_string(i), "State",
                                    "Country" + std::to_string(i % 3)})
              .ValueOrDie());
      customers.push_back(
          wh->AddMember("Customer",
                        {"Cust" + std::to_string(i),
                         i % 2 == 0 ? "Business" : "Leisure"})
              .ValueOrDie());
    }
    dwqa::Date d(2004, 1, 1);
    for (int i = 0; i < 365; ++i, d = d.NextDay()) {
      dates.push_back(
          wh->AddMember("Date", dwqa::dw::DateMemberPath(d)).ValueOrDie());
    }
    for (size_t i = 0; i < facts; ++i) Insert(i);
  }

  void Insert(size_t i) {
    DWQA_CHECK(wh->InsertFact("LastMinuteSales",
                              {airports[i % airports.size()],
                               airports[(i + 3) % airports.size()],
                               customers[i % customers.size()],
                               dates[i % dates.size()]},
                              {Value(100.0 + double(i % 50)), Value(800.0),
                               Value(1.0 + double(i % 3))})
                   .ok());
  }
};

OlapQuery CanonicalBiQuery() {
  OlapQuery q;
  q.fact = "LastMinuteSales";
  q.measures = {{"Tickets", AggFn::kSum}, {"Price", AggFn::kAvg}};
  q.group_by = {{"destination", "City"}};
  return q;
}

ScaledCube& CubeAtScale(size_t facts) {
  static auto* cubes = new std::vector<std::unique_ptr<ScaledCube>>();
  for (auto& cube : *cubes) {
    if (cube->wh->FactRowCount("LastMinuteSales").ValueOrDie() == facts) {
      return *cube;
    }
  }
  cubes->push_back(std::make_unique<ScaledCube>(facts, /*with_views=*/true));
  return *cubes->back();
}

void BM_GroupByLevelAtScale(benchmark::State& state) {
  ScaledCube& cube = CubeAtScale(size_t(state.range(0)));
  OlapEngine engine(cube.wh.get());
  OlapQuery q = CanonicalBiQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(q).ValueOrDie());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_GroupByLevelAtScale)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

void BM_ViewReadAtScale(benchmark::State& state) {
  ScaledCube& cube = CubeAtScale(size_t(state.range(0)));
  OlapQuery q = CanonicalBiQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cube.views->Answer(q).ValueOrDie());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ViewReadAtScale)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

/// Per-insert cost of the fact append alone (arg 0) vs append + delta
/// maintenance of the full derived view set (arg 1) — the write-side price
/// of the read-side collapse above.
void BM_InsertFactMaintenance(benchmark::State& state) {
  const bool with_views = state.range(0) != 0;
  ScaledCube cube(1000, with_views);
  size_t i = 1000;
  for (auto _ : state) {
    cube.Insert(i++);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_InsertFactMaintenance)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// The Step-5 BI analysis (BiAnalysis::SalesVsTemperature) over an archive of
// three years of sales and Weather facts (about 10.5k sales facts) — read
// from the derived views, recomputed from base facts, and federated with the
// partner airline's warehouse (a year of partner sales and weather, mapped
// by the schema matcher, two fan-out threads).
// ---------------------------------------------------------------------------

/// Three years of sales plus a Weather history of every airline city,
/// loaded the way the Step-5 feed loads a fact.
std::unique_ptr<Warehouse> MakeArchive() {
  auto wh = std::make_unique<Warehouse>(
      LastMinuteSales::MakeWarehouse().ValueOrDie());
  dwqa::web::WeatherModel weather(42);
  const dwqa::Date start(2002, 1, 1);
  const int days = 1096;
  LastMinuteSales::GenerateSales(wh.get(), weather, start, days)
      .ValueOrDie();
  std::set<std::string> cities;
  for (const auto& airport : LastMinuteSales::Airports()) {
    cities.insert(airport.city);
  }
  dwqa::dw::EtlLoader loader(wh.get());
  for (const std::string& city : cities) {
    dwqa::Date date = start;
    for (int d = 0; d < days; ++d, date = date.NextDay()) {
      auto celsius = weather.TemperatureCelsius(city, date);
      if (!celsius.ok()) continue;
      dwqa::dw::FactRecord record;
      record.role_paths = {{city},
                           dwqa::dw::DateMemberPath(date),
                           {"web://history/" + dwqa::ToLower(city)}};
      record.measures = {Value(*celsius)};
      DWQA_CHECK(loader.LoadRecord("Weather", record).ok());
    }
  }
  return wh;
}

struct BiWorld {
  std::unique_ptr<Warehouse> archive;  ///< No views (recompute, federated).
  std::unique_ptr<Warehouse> viewed;   ///< The same data, views bound.
  std::unique_ptr<ViewCatalog> views;
  std::unique_ptr<Warehouse> partner;
  std::unique_ptr<dwqa::ThreadPool> pool;
  std::unique_ptr<dwqa::dw::fed::FederatedEngine> federation;

  BiWorld() {
    namespace fed = dwqa::dw::fed;
    archive = MakeArchive();
    viewed = MakeArchive();
    views = std::make_unique<ViewCatalog>();
    DWQA_CHECK(views->DefineAll(DeriveViewsFromSchema(viewed->schema())).ok());
    viewed->AttachViews(views.get());
    DWQA_CHECK(views->Bind(*viewed).ok());
    partner = std::make_unique<Warehouse>(
        fed::PartnerAirline::MakeWarehouse().ValueOrDie());
    fed::PartnerAirline::GeneratePartnerSales(partner.get(),
                                              dwqa::Date(2004, 1, 1), 366)
        .ValueOrDie();
    fed::PartnerAirline::GeneratePartnerWeather(partner.get(),
                                                dwqa::Date(2004, 1, 1), 366)
        .ValueOrDie();
    fed::SchemaMatcher matcher(fed::PartnerAirline::DefaultMatcherOptions());
    fed::SchemaMapping mapping =
        matcher.Match(*archive, *partner).ValueOrDie();
    pool = std::make_unique<dwqa::ThreadPool>(2);
    federation =
        std::make_unique<fed::FederatedEngine>(archive.get(), "archive");
    DWQA_CHECK(federation->AddRemote("partner", partner.get(), mapping).ok());
    federation->set_pool(pool.get());
  }
};

BiWorld& Bi() {
  static auto* world = new BiWorld();
  return *world;
}

using dwqa::integration::BiAnalysis;
using dwqa::integration::BiMode;

void BM_SalesVsTemperatureView(benchmark::State& state) {
  const Warehouse& wh = *Bi().viewed;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BiAnalysis::SalesVsTemperature(wh, "LastMinuteSales", "Weather", 5.0,
                                       BiMode::kViewOnly)
            .ValueOrDie());
  }
}
BENCHMARK(BM_SalesVsTemperatureView);

void BM_SalesVsTemperatureRecompute(benchmark::State& state) {
  const Warehouse& wh = *Bi().archive;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BiAnalysis::SalesVsTemperature(wh, "LastMinuteSales", "Weather", 5.0,
                                       BiMode::kRecompute)
            .ValueOrDie());
  }
}
BENCHMARK(BM_SalesVsTemperatureRecompute);

// A federated read after a member changed: the engine's stored answer is
// stale, so every iteration plans, resolves conflicts, fans out and merges.
// The change (a new Source member, which no query reads) happens outside
// the timed region.
void BM_SalesVsTemperatureFederated(benchmark::State& state) {
  BiWorld& world = Bi();
  const dwqa::dw::fed::FederatedEngine& engine = *world.federation;
  size_t sources = 0;
  for (auto _ : state) {
    state.PauseTiming();
    DWQA_CHECK(world.archive
                   ->AddMember("Source", {"web://bench/change/" +
                                          std::to_string(sources++)})
                   .ok());
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        BiAnalysis::SalesVsTemperatureFederated(engine).ValueOrDie());
  }
}
BENCHMARK(BM_SalesVsTemperatureFederated);

// The same read while no member changes: both aggregates are the engine's
// stored answers, read in place. The untimed first read stores them.
void BM_SalesVsTemperatureFederatedReused(benchmark::State& state) {
  const dwqa::dw::fed::FederatedEngine& engine = *Bi().federation;
  DWQA_CHECK(BiAnalysis::SalesVsTemperatureFederated(engine).ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BiAnalysis::SalesVsTemperatureFederated(engine).ValueOrDie());
  }
}
BENCHMARK(BM_SalesVsTemperatureFederatedReused);

}  // namespace

DWQA_BENCH_JSON_MAIN("bench_micro_olap");
