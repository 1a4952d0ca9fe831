// Microbenchmarks of the OLAP engine over the Last Minute Sales cube:
// scan+aggregate cost by grouping level, slice selectivity and roll-up —
// plus the materialized-view sweep: view read vs recompute at 1k/10k-fact
// scale and the per-insert cost of incremental view maintenance.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_json_main.h"

#include "common/logging.h"
#include "dw/materialized_view.h"
#include "dw/olap.h"
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

}  // namespace

DWQA_BENCH_JSON_MAIN("bench_micro_olap");
