#include "integration/bi_analysis.h"

#include <cmath>
#include <map>
#include <unordered_map>

#include "common/string_util.h"
#include "dw/materialized_view.h"
#include "dw/olap.h"

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

/// Answers `query` from the warehouse's view catalog when `mode` allows and
/// a view covers it (byte-identical to the recompute by the catalog's
/// contract), recomputing otherwise. kViewOnly never scans base facts.
Result<dw::OlapResult> RunQuery(const dw::Warehouse& wh,
                                const dw::OlapEngine& engine,
                                const dw::OlapQuery& query, BiMode mode,
                                bool* from_view) {
  *from_view = false;
  if (mode != BiMode::kRecompute && wh.views() != nullptr) {
    auto viewed = wh.views()->Answer(query);
    if (viewed.ok()) {
      *from_view = true;
      return viewed;
    }
    if (!viewed.status().IsNotFound()) return viewed.status();
  }
  if (mode == BiMode::kViewOnly) {
    return Status::Unavailable(
        "no materialized view covers the '" + query.fact +
        "' aggregate and view-only mode never recomputes from base facts");
  }
  return engine.Execute(query);
}

/// The shared tail of both analyses: joins the two aggregates on (city,
/// day), buckets tickets by temperature and computes the correlation. The
/// local and federated paths differ only in where the aggregates came from.
Result<BiReport> JoinAndBucket(const dw::OlapResult& sales,
                               const dw::OlapResult& weather,
                               const std::string& sales_fact,
                               const std::string& weather_fact,
                               double bucket_width_c) {
  // (lowercased city, day) -> temperature, a later row overwriting an
  // earlier one. Rows come grouped by city, so each run of one city is
  // lowercased and looked up once.
  std::unordered_map<std::string, std::unordered_map<std::string, double>>
      temp_by_city_day;
  std::string city;
  std::unordered_map<std::string, double>* days = nullptr;
  for (const auto& row : weather.rows) {
    if (days == nullptr || row[0].ToString() != city) {
      city = row[0].ToString();
      days = &temp_by_city_day[ToLower(city)];
    }
    (*days)[row[1].ToString()] = row[2].ToDouble();
  }

  // Join and bucket, in sales-row order.
  std::map<int64_t, TempRangeStat> buckets;
  double sum_t = 0, sum_k = 0, sum_tt = 0, sum_kk = 0, sum_tk = 0;
  size_t n = 0;
  days = nullptr;
  bool city_known = false;
  for (const auto& row : sales.rows) {
    if (!city_known || row[0].ToString() != city) {
      city = row[0].ToString();
      city_known = true;
      auto found = temp_by_city_day.find(ToLower(city));
      days = found == temp_by_city_day.end() ? nullptr : &found->second;
    }
    if (days == nullptr) continue;
    auto it = days->find(row[1].ToString());
    if (it == days->end()) continue;
    double temp = it->second;
    double tickets = row[2].ToDouble();
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
  dw::OlapEngine engine(&wh);

  bool sales_from_view = false;
  DWQA_ASSIGN_OR_RETURN(
      dw::OlapResult sales,
      RunQuery(wh, engine, SalesQuery(sales_fact), mode, &sales_from_view));

  bool weather_from_view = false;
  DWQA_ASSIGN_OR_RETURN(dw::OlapResult weather,
                        RunQuery(wh, engine, WeatherQuery(weather_fact),
                                 mode, &weather_from_view));

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
  DWQA_ASSIGN_OR_RETURN(dw::fed::FederatedResult sales,
                        engine.Execute(SalesQuery(sales_fact)));
  DWQA_ASSIGN_OR_RETURN(dw::fed::FederatedResult weather,
                        engine.Execute(WeatherQuery(weather_fact)));
  FederatedBiReport out;
  out.sales_coverage = std::move(sales.coverage);
  out.weather_coverage = std::move(weather.coverage);
  DWQA_ASSIGN_OR_RETURN(out.report,
                        JoinAndBucket(sales.result, weather.result,
                                      sales_fact, weather_fact,
                                      bucket_width_c));
  return out;
}

}  // namespace integration
}  // namespace dwqa
