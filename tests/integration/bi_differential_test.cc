// Seeded differential test of the Step-5 BI analysis.
//
// BiAnalysis joins its two aggregates on value ordinals. The reference here
// is the string join the analysis used to run: render both aggregates into
// OlapResult rows, map (lowercased city, day) to the temperature of the last
// weather row, and walk the sales rows in order. Every seed grows a local
// and a partner warehouse in the Last Minute Sales schema and compares every
// BiReport field bit for bit — recompute, view-first and federated — and the
// NotFound text when nothing joins. The generator plants what the join must
// get right: sales cities (Airport.City) spelled in other cases than the
// weather cities (City.City), two federated weather spellings that
// lowercase equal (the later one in rendered order wins), cities and days
// with no partner, and empty joins. The federation folds a remote spelling
// into a local member that matches it up to case, as MergeWarehouses does,
// so two spellings of one city reach the join only from two remotes: a
// second partner grows from its own stream, leaving every other draw as it
// was. Measures are not dyadic, so a join that walked the groups in another
// order would round differently.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "dw/etl.h"
#include "dw/federation/federated_engine.h"
#include "dw/federation/merge_warehouses.h"
#include "dw/materialized_view.h"
#include "dw/olap.h"
#include "integration/bi_analysis.h"
#include "integration/last_minute_sales.h"

namespace dwqa {
namespace integration {
namespace {

constexpr uint64_t kSeeds = 120;
constexpr char kSales[] = "LastMinuteSales";
constexpr char kWeather[] = "Weather";

/// What the reference join saw, summed over seeds: each planted situation
/// must occur, or the test proves nothing about it.
struct Coverage {
  size_t case_variant_joins = 0;  ///< Sales city spelled unlike weather's.
  size_t later_weather_wins = 0;  ///< A (class, day) set twice, differently.
  size_t unpartnered_sales = 0;   ///< Sales groups that found no weather.
  size_t empty_joins = 0;         ///< Reports that were NotFound.
  size_t federated_reports = 0;   ///< Federated reports that joined.
};

/// The string join over rendered rows (the analysis before it joined on
/// ordinals), kept as the reference.
Result<BiReport> ReferenceJoin(const dw::OlapResult& sales,
                               const dw::OlapResult& weather,
                               double bucket_width_c, Coverage* coverage) {
  std::unordered_map<std::string, std::unordered_map<std::string, double>>
      temp_by_city_day;
  std::unordered_map<std::string, std::string> spelling_of_class;
  for (const auto& row : weather.rows) {
    const std::string city = row[0].ToString();
    auto& days = temp_by_city_day[ToLower(city)];
    auto [it, fresh] = days.try_emplace(row[1].ToString(), row[2].ToDouble());
    if (!fresh) {
      if (it->second != row[2].ToDouble()) ++coverage->later_weather_wins;
      it->second = row[2].ToDouble();
    }
    spelling_of_class[ToLower(city)] = city;
  }
  std::map<int64_t, TempRangeStat> buckets;
  double sum_t = 0, sum_k = 0, sum_tt = 0, sum_kk = 0, sum_tk = 0;
  size_t n = 0;
  for (const auto& row : sales.rows) {
    const std::string city = row[0].ToString();
    auto found = temp_by_city_day.find(ToLower(city));
    if (found == temp_by_city_day.end()) {
      ++coverage->unpartnered_sales;
      continue;
    }
    auto it = found->second.find(row[1].ToString());
    if (it == found->second.end()) {
      ++coverage->unpartnered_sales;
      continue;
    }
    if (spelling_of_class[ToLower(city)] != city) {
      ++coverage->case_variant_joins;
    }
    double temp = it->second;
    double tickets = row[2].ToDouble();
    int64_t bucket = static_cast<int64_t>(std::floor(temp / bucket_width_c));
    TempRangeStat& stat = buckets[bucket];
    stat.low_c = static_cast<double>(bucket) * bucket_width_c;
    stat.high_c = stat.low_c + bucket_width_c;
    stat.avg_tickets += tickets;
    ++stat.observations;
    sum_t += temp;
    sum_k += tickets;
    sum_tt += temp * temp;
    sum_kk += tickets * tickets;
    sum_tk += temp * tickets;
    ++n;
  }
  if (n == 0) {
    ++coverage->empty_joins;
    return Status::NotFound(
        "no (city, day) pairs joined between '" + std::string(kSales) +
        "' and '" + kWeather + "' — has Step 5 fed the warehouse?");
  }
  BiReport report;
  report.joined_days = n;
  for (auto& [bucket, stat] : buckets) {
    stat.avg_tickets /= static_cast<double>(stat.observations);
    report.ranges.push_back(stat);
  }
  report.best = report.ranges.front();
  for (const TempRangeStat& s : report.ranges) {
    bool better = s.avg_tickets > report.best.avg_tickets;
    if (report.best.observations >= 3 && s.observations < 3) better = false;
    if (report.best.observations < 3 && s.observations >= 3 &&
        s.avg_tickets > 0) {
      better = true;
    }
    if (better) report.best = s;
  }
  double dn = static_cast<double>(n);
  double cov = sum_tk / dn - (sum_t / dn) * (sum_k / dn);
  double var_t = sum_tt / dn - (sum_t / dn) * (sum_t / dn);
  double var_k = sum_kk / dn - (sum_k / dn) * (sum_k / dn);
  if (var_t > 0 && var_k > 0) {
    report.pearson_temperature_tickets = cov / std::sqrt(var_t * var_k);
  }
  return report;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameStat(const TempRangeStat& want, const TempRangeStat& got,
                    const std::string& context) {
  EXPECT_EQ(Bits(want.low_c), Bits(got.low_c)) << context;
  EXPECT_EQ(Bits(want.high_c), Bits(got.high_c)) << context;
  EXPECT_EQ(want.observations, got.observations) << context;
  EXPECT_EQ(Bits(want.avg_tickets), Bits(got.avg_tickets))
      << context << " avg " << want.avg_tickets << " vs " << got.avg_tickets;
}

/// Every report field bit for bit, or the same failure text.
void ExpectSameReport(const Result<BiReport>& want,
                      const Result<BiReport>& got,
                      const std::string& context) {
  ASSERT_EQ(want.ok(), got.ok())
      << context << ": " << (want.ok() ? got : want).status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(want.status().ToString(), got.status().ToString()) << context;
    return;
  }
  ASSERT_EQ(want->ranges.size(), got->ranges.size()) << context;
  for (size_t i = 0; i < want->ranges.size(); ++i) {
    ExpectSameStat(want->ranges[i], got->ranges[i],
                   context + " range " + std::to_string(i));
  }
  ExpectSameStat(want->best, got->best, context + " best");
  EXPECT_EQ(Bits(want->pearson_temperature_tickets),
            Bits(got->pearson_temperature_tickets))
      << context;
  EXPECT_EQ(want->joined_days, got->joined_days) << context;
}

const std::vector<std::string> kCities = {"Barcelona", "Paris", "Oslo",
                                          "Roma", "Lyon"};

/// Random ASCII case of `s` ("Paris" → "pARis").
std::string Mangle(Rng* rng, const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (rng->NextBool(0.3)) c = static_cast<char>(std::toupper(c));
    if (rng->NextBool(0.3)) c = static_cast<char>(std::tolower(c));
  }
  return out;
}

/// A warehouse of the Last Minute Sales schema with random members and
/// facts: sales over airports whose City level is a case-mangled city,
/// weather over City members (first spelling registered wins), both over
/// random subsets of ten days. `tag` keeps source URLs apart per side.
struct Side {
  Side(Rng* rng, std::string tag)
      : rng(rng),
        tag(std::move(tag)),
        wh(dw::Warehouse::Create(LastMinuteSales::MakeSchema()).ValueOrDie()) {
    customer = wh.AddMember("Customer", {"C", "Leisure"}).ValueOrDie();
  }

  dw::MemberId Day() {
    Date d = Date(2004, 3, 1);
    for (size_t i = rng->NextIndex(10); i > 0; --i) d = d.NextDay();
    return wh.AddMember("Date", dw::DateMemberPath(d)).ValueOrDie();
  }

  void AddAirport() {
    const std::string city = Mangle(rng, kCities[rng->NextIndex(kCities.size())]);
    airports.push_back(
        wh.AddMember("Airport", {tag + "-AP" + std::to_string(airports.size()),
                                 city, "", "Europe"})
            .ValueOrDie());
  }

  void InsertSale() {
    if (airports.empty()) AddAirport();
    // Tenths: sums depend on the order they run in.
    const double tickets = double(rng->NextInRange(1, 60)) / 10.0;
    ASSERT_TRUE(wh.InsertFact(kSales,
                              {airports[rng->NextIndex(airports.size())],
                               airports[rng->NextIndex(airports.size())],
                               customer, Day()},
                              {dw::Value(100.0), dw::Value(500.0),
                               dw::Value(tickets)})
                    .ok());
  }

  void InsertWeather() {
    // Cities 0-3 only: "Lyon" sales never find weather.
    const std::string city = Mangle(rng, kCities[rng->NextIndex(4)]);
    const dw::MemberId location =
        wh.AddMember("City", {city, "Europe"}).ValueOrDie();
    // A shared source puts both sides' readings under one fact key, so
    // the conflict policies have rows to exclude.
    const std::string host = rng->NextBool(0.3) ? "shared" : tag;
    const dw::MemberId source =
        wh.AddMember("Source", {"http://" + host + ".example/" +
                                std::to_string(rng->NextIndex(3))})
            .ValueOrDie();
    const double celsius = double(rng->NextInRange(-50, 350)) / 10.0;
    ASSERT_TRUE(
        wh.InsertFact(kWeather, {location, Day(), source}, {dw::Value(celsius)})
            .ok());
  }

  void Grow(size_t steps) {
    for (size_t i = 0; i < steps; ++i) {
      const double u = rng->NextDouble();
      if (u < 0.1) {
        AddAirport();
      } else if (u < 0.55) {
        InsertSale();
      } else {
        InsertWeather();
      }
    }
  }

  Rng* rng;
  std::string tag;
  dw::Warehouse wh;
  dw::MemberId customer;
  std::vector<dw::MemberId> airports;
};

/// The identity mapping between two Last Minute Sales warehouses, with no
/// member map: a partner's "BARCELONA" stays a spelling of its own.
dw::fed::SchemaMapping IdentityMapping(const dw::MdSchema& schema) {
  dw::fed::SchemaMapping mapping;
  for (const dw::DimensionDef& dim : schema.dimensions()) {
    dw::fed::DimensionMapping dm{dim.name, dim.name, {}, {}};
    for (const dw::LevelDef& level : dim.levels) {
      dm.levels.push_back({level.name, level.name});
    }
    mapping.dimensions.push_back(std::move(dm));
  }
  for (const dw::FactDef& fact : schema.facts()) {
    dw::fed::FactMapping fm;
    fm.local_fact = fact.name;
    fm.remote_fact = fact.name;
    for (const dw::DimRole& role : fact.roles) {
      fm.roles.push_back({role.role, role.role});
    }
    for (const dw::MeasureDef& m : fact.measures) {
      dw::fed::MeasureMapping mm;
      mm.local_measure = m.name;
      mm.remote_measure = m.name;
      fm.measures.push_back(mm);
    }
    fm.key_complete = true;
    mapping.facts.push_back(std::move(fm));
  }
  return mapping;
}

TEST(BiDifferentialTest, OrdinalJoinMatchesTheStringJoinBitForBit) {
  Coverage coverage;
  const double widths[] = {2.0, 2.5, 5.0, 10.0};
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    Side local(&rng, "local");
    Side partner(&rng, "partner");
    Rng rng2(seed + 1000);
    Side partner2(&rng2, "partner2");
    dw::ViewCatalog views;
    ASSERT_TRUE(
        views.DefineAll(dw::DeriveViewsFromSchema(local.wh.schema())).ok());
    local.wh.AttachViews(&views);
    ASSERT_TRUE(views.Bind(local.wh).ok());

    dw::fed::FederatedEngine engine(&local.wh);
    ASSERT_TRUE(engine
                    .AddRemote("partner", &partner.wh,
                               IdentityMapping(local.wh.schema()))
                    .ok());
    ASSERT_TRUE(engine
                    .AddRemote("partner2", &partner2.wh,
                               IdentityMapping(local.wh.schema()))
                    .ok());
    dw::fed::MergePolicy policy;
    policy.conflicts = static_cast<dw::fed::ConflictPolicy>(rng.NextIndex(3));
    engine.set_policy(policy);

    const dw::OlapQuery sales_q = BiAnalysis::SalesQuery();
    const dw::OlapQuery weather_q = BiAnalysis::WeatherQuery();
    dw::OlapEngine olap(&local.wh);
    // Round 0 often has nothing to join; later rounds grow both sides.
    for (int round = 0; round < 4; ++round) {
      const std::string ctx =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      const double width = widths[rng.NextIndex(4)];

      auto recompute = BiAnalysis::SalesVsTemperature(
          local.wh, kSales, kWeather, width, BiMode::kRecompute);
      ExpectSameReport(
          ReferenceJoin(olap.Execute(sales_q).ValueOrDie(),
                        olap.Execute(weather_q).ValueOrDie(), width,
                        &coverage),
          recompute, ctx + " recompute");

      auto viewed = BiAnalysis::SalesVsTemperature(local.wh, kSales, kWeather,
                                                   width, BiMode::kViewFirst);
      Coverage ignored;
      ExpectSameReport(ReferenceJoin(views.Answer(sales_q).ValueOrDie(),
                                     views.Answer(weather_q).ValueOrDie(),
                                     width, &ignored),
                       viewed, ctx + " view");
      if (viewed.ok()) {
        EXPECT_TRUE(viewed->sales_from_view && viewed->weather_from_view)
            << ctx;
      }
      ExpectSameReport(recompute, viewed, ctx + " view vs recompute");

      auto fed = BiAnalysis::SalesVsTemperatureFederated(engine, kSales,
                                                         kWeather, width);
      auto fed_sales = engine.Execute(sales_q).ValueOrDie();
      auto fed_weather = engine.Execute(weather_q).ValueOrDie();
      Result<BiReport> fed_report = fed.ok()
                                        ? Result<BiReport>(fed->report)
                                        : Result<BiReport>(fed.status());
      ExpectSameReport(ReferenceJoin(fed_sales.result, fed_weather.result,
                                     width, &coverage),
                       fed_report, ctx + " federated");
      if (fed.ok()) {
        EXPECT_TRUE(fed->full()) << ctx;
        ++coverage.federated_reports;
      }

      local.Grow(4 + rng.NextIndex(12));
      partner.Grow(4 + rng.NextIndex(12));
      partner2.Grow(4 + rng2.NextIndex(12));
    }
  }
  EXPECT_GT(coverage.case_variant_joins, 0u);
  EXPECT_GT(coverage.later_weather_wins, 0u);
  EXPECT_GT(coverage.unpartnered_sales, 0u);
  EXPECT_GT(coverage.empty_joins, 0u);
  EXPECT_GT(coverage.federated_reports, 0u);
}

}  // namespace
}  // namespace integration
}  // namespace dwqa
