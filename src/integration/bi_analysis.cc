#include "integration/bi_analysis.h"

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/string_util.h"
#include "dw/grouping.h"
#include "dw/materialized_view.h"

namespace dwqa {
namespace integration {

const char* BiModeName(BiMode mode) {
  switch (mode) {
    case BiMode::kViewFirst:
      return "view_first";
    case BiMode::kViewOnly:
      return "view_only";
    case BiMode::kRecompute:
      return "recompute";
  }
  return "?";
}

namespace {

constexpr uint32_t kNone = UINT32_MAX;

/// One aggregate of the analysis before rendering: groups keyed by (city,
/// day) and the state column and function of the query's one measure. The
/// groups are shared, so a federated answer the engine stored is read in
/// place.
struct Aggregate {
  std::shared_ptr<const dw::GroupedStates> groups;
  size_t slot = 0;
  dw::AggFn agg = dw::AggFn::kSum;

  /// Group `g`'s measure, read exactly as Render() renders it.
  double Measure(size_t g) const {
    return groups->states[g * groups->width + slot].Finish(agg).ToDouble();
  }
  /// Group `g`'s value ordinal on axis `a` (0 = city, 1 = day).
  uint32_t Key(size_t g, size_t a) const { return groups->keys[g * 2 + a]; }
};

/// Groups `query` from the warehouse's view catalog when `mode` allows and
/// a view covers it (identical to the recompute by the catalog's
/// contract), recomputing otherwise. kViewOnly never scans base facts.
Result<Aggregate> RunQuery(const dw::Warehouse& wh,
                           const dw::OlapQuery& query, BiMode mode,
                           bool* from_view) {
  *from_view = false;
  Aggregate out;
  out.agg = query.measures.front().agg;
  if (mode != BiMode::kRecompute && wh.views() != nullptr) {
    auto viewed = wh.views()->Group(query);
    if (viewed.ok()) {
      *from_view = true;
      out.groups = std::make_shared<dw::GroupedStates>(std::move(*viewed));
      return out;
    }
    if (!viewed.status().IsNotFound()) return viewed.status();
  }
  if (mode == BiMode::kViewOnly) {
    return Status::Unavailable(
        "no materialized view covers the '" + query.fact +
        "' aggregate and view-only mode never recomputes from base facts");
  }
  DWQA_ASSIGN_OR_RETURN(dw::GroupedStates grouped,
                        dw::GroupFacts(wh, query));
  out.groups = std::make_shared<dw::GroupedStates>(std::move(grouped));
  return out;
}

/// The shared tail of both analyses: joins the two aggregates on (city,
/// day), buckets tickets by temperature and computes the correlation. The
/// local and federated paths differ only in where the aggregates came from.
///
/// The join runs on value ordinals. Cities match case-insensitively: each
/// distinct weather spelling is lowercased once into a city class, each
/// distinct sales spelling looked up once. Days match exactly: both day
/// axes are sorted, so one merge pass pairs them. A dense (class, day)
/// table then holds the weather group each pair reads — the later group
/// in rendered order where two spellings of one class share a day — and
/// the sales groups are walked in rendered order, so every sum accumulates
/// in the order the rendered rows would give.
Result<BiReport> JoinAndBucket(const Aggregate& sales,
                               const Aggregate& weather,
                               const std::string& sales_fact,
                               const std::string& weather_fact,
                               double bucket_width_c) {
  const std::vector<std::string>& weather_cities = weather.groups->values[0];
  const std::vector<std::string>& weather_days = weather.groups->values[1];
  std::unordered_map<std::string, uint32_t> class_of;
  std::vector<uint32_t> weather_class;
  weather_class.reserve(weather_cities.size());
  for (const std::string& city : weather_cities) {
    weather_class.push_back(
        class_of.try_emplace(ToLower(city), class_of.size()).first->second);
  }
  const size_t days = weather_days.size();
  std::vector<uint32_t> cell(class_of.size() * days, kNone);
  for (size_t g = 0; g < weather.groups->size(); ++g) {
    cell[weather_class[weather.Key(g, 0)] * days + weather.Key(g, 1)] =
        static_cast<uint32_t>(g);
  }

  const std::vector<std::string>& sales_cities = sales.groups->values[0];
  const std::vector<std::string>& sales_days = sales.groups->values[1];
  std::vector<uint32_t> sales_class(sales_cities.size(), kNone);
  for (size_t c = 0; c < sales_cities.size(); ++c) {
    auto found = class_of.find(ToLower(sales_cities[c]));
    if (found != class_of.end()) sales_class[c] = found->second;
  }
  std::vector<uint32_t> sales_day(sales_days.size(), kNone);
  for (size_t s = 0, w = 0; s < sales_days.size() && w < days;) {
    if (sales_days[s] < weather_days[w]) {
      ++s;
    } else if (weather_days[w] < sales_days[s]) {
      ++w;
    } else {
      sales_day[s++] = static_cast<uint32_t>(w++);
    }
  }

  // Join and bucket, in sales-group order.
  std::map<int64_t, TempRangeStat> buckets;
  double sum_t = 0, sum_k = 0, sum_tt = 0, sum_kk = 0, sum_tk = 0;
  size_t n = 0;
  for (size_t g = 0; g < sales.groups->size(); ++g) {
    const uint32_t city = sales_class[sales.Key(g, 0)];
    const uint32_t day = sales_day[sales.Key(g, 1)];
    if (city == kNone || day == kNone) continue;
    const uint32_t partner = cell[city * days + day];
    if (partner == kNone) continue;
    double temp = weather.Measure(partner);
    double tickets = sales.Measure(g);
    int64_t bucket = static_cast<int64_t>(
        std::floor(temp / bucket_width_c));
    TempRangeStat& stat = buckets[bucket];
    stat.low_c = static_cast<double>(bucket) * bucket_width_c;
    stat.high_c = stat.low_c + bucket_width_c;
    stat.avg_tickets += tickets;  // Sum for now; divided below.
    ++stat.observations;
    sum_t += temp;
    sum_k += tickets;
    sum_tt += temp * temp;
    sum_kk += tickets * tickets;
    sum_tk += temp * tickets;
    ++n;
  }
  if (n == 0) {
    return Status::NotFound(
        "no (city, day) pairs joined between '" + sales_fact + "' and '" +
        weather_fact + "' — has Step 5 fed the warehouse?");
  }

  BiReport report;
  report.joined_days = n;
  for (auto& [bucket, stat] : buckets) {
    stat.avg_tickets /= static_cast<double>(stat.observations);
    report.ranges.push_back(stat);
  }
  report.best = report.ranges.front();
  for (const TempRangeStat& s : report.ranges) {
    // Prefer well-supported buckets (≥ 3 observations) over outliers.
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

}  // namespace

dw::OlapQuery BiAnalysis::SalesQuery(const std::string& sales_fact) {
  // Daily tickets per destination city.
  dw::OlapQuery q;
  q.fact = sales_fact;
  q.measures = {{"Tickets", dw::AggFn::kSum}};
  q.group_by = {{"destination", "City"}, {"date", "Date"}};
  return q;
}

dw::OlapQuery BiAnalysis::WeatherQuery(const std::string& weather_fact) {
  // Daily temperature per city from the QA-fed Weather fact (average of
  // the extracted tuples for that day).
  dw::OlapQuery q;
  q.fact = weather_fact;
  q.measures = {{"TemperatureC", dw::AggFn::kAvg}};
  q.group_by = {{"location", "City"}, {"day", "Date"}};
  return q;
}

Result<dw::CostEstimate> BiAnalysis::EstimateCost(
    const dw::Warehouse& wh, const dw::CostEstimator& estimator,
    const std::string& sales_fact, const std::string& weather_fact) {
  DWQA_ASSIGN_OR_RETURN(dw::CostEstimate sales,
                        estimator.Estimate(wh, SalesQuery(sales_fact)));
  DWQA_ASSIGN_OR_RETURN(dw::CostEstimate weather,
                        estimator.Estimate(wh, WeatherQuery(weather_fact)));
  dw::CostEstimate combined;
  combined.estimated_rows = sales.estimated_rows + weather.estimated_rows;
  combined.from_view = sales.from_view && weather.from_view;
  combined.cost_units = sales.cost_units + weather.cost_units;
  return combined;
}

Result<BiReport> BiAnalysis::SalesVsTemperature(
    const dw::Warehouse& wh, const std::string& sales_fact,
    const std::string& weather_fact, double bucket_width_c, BiMode mode) {
  if (bucket_width_c <= 0.0) {
    return Status::InvalidArgument("bucket width must be positive");
  }
  bool sales_from_view = false;
  DWQA_ASSIGN_OR_RETURN(
      Aggregate sales,
      RunQuery(wh, SalesQuery(sales_fact), mode, &sales_from_view));

  bool weather_from_view = false;
  DWQA_ASSIGN_OR_RETURN(
      Aggregate weather,
      RunQuery(wh, WeatherQuery(weather_fact), mode, &weather_from_view));

  DWQA_ASSIGN_OR_RETURN(BiReport report,
                        JoinAndBucket(sales, weather, sales_fact,
                                      weather_fact, bucket_width_c));
  report.sales_from_view = sales_from_view;
  report.weather_from_view = weather_from_view;
  return report;
}

Result<FederatedBiReport> BiAnalysis::SalesVsTemperatureFederated(
    const dw::fed::FederatedEngine& engine, const std::string& sales_fact,
    const std::string& weather_fact, double bucket_width_c) {
  if (bucket_width_c <= 0.0) {
    return Status::InvalidArgument("bucket width must be positive");
  }
  FederatedBiReport out;
  auto group = [&](const dw::OlapQuery& query,
                   dw::fed::FederatedCoverage* coverage) -> Result<Aggregate> {
    DWQA_ASSIGN_OR_RETURN(
        std::shared_ptr<const dw::fed::FederatedGroups> groups,
        engine.GroupShared(query));
    *coverage = groups->coverage;
    // Aliases the engine's stored answer: read in place, never copied.
    std::shared_ptr<const dw::GroupedStates> grouped(groups,
                                                     &groups->grouped);
    return Aggregate{std::move(grouped), groups->slots.front(),
                     query.measures.front().agg};
  };
  DWQA_ASSIGN_OR_RETURN(Aggregate sales,
                        group(SalesQuery(sales_fact), &out.sales_coverage));
  DWQA_ASSIGN_OR_RETURN(
      Aggregate weather,
      group(WeatherQuery(weather_fact), &out.weather_coverage));
  DWQA_ASSIGN_OR_RETURN(out.report,
                        JoinAndBucket(sales, weather, sales_fact,
                                      weather_fact, bucket_width_c));
  return out;
}

}  // namespace integration
}  // namespace dwqa
