#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/logging.h"

namespace dwqa {

namespace {

/// Prometheus/JSON-safe number rendering: integers without a decimal point
/// (counters are almost always whole), everything else with up to six
/// significant digits. Deterministic, locale-independent.
std::string FormatMetricValue(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// Escapes a Prometheus label value (backslash, quote, newline).
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Escapes a JSON string.
std::string EscapeJson(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `{k="v",k2="v2"}` or "" for an empty label set.
std::string PrometheusLabels(const MetricLabels& labels,
                             const std::string& extra_key = "",
                             const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + EscapeLabelValue(value) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + EscapeLabelValue(extra_value) + "\"";
  }
  return out + "}";
}

}  // namespace

double HistogramQuantile(const MetricSnapshot& snapshot, double q) {
  if (snapshot.type != MetricType::kHistogram || snapshot.count == 0) {
    return 0.0;
  }
  q = std::min(std::max(q, 0.0), 1.0);
  const double rank = q * static_cast<double>(snapshot.count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < snapshot.bucket_counts.size(); ++i) {
    uint64_t in_bucket = snapshot.bucket_counts[i];
    if (static_cast<double>(cumulative + in_bucket) >= rank &&
        in_bucket > 0) {
      // The +Inf bucket has no upper bound to interpolate toward — clamp
      // to the largest finite bound, as Prometheus does.
      if (i >= snapshot.bounds.size()) {
        return snapshot.bounds.empty() ? 0.0 : snapshot.bounds.back();
      }
      double lower = i == 0 ? 0.0 : snapshot.bounds[i - 1];
      double upper = snapshot.bounds[i];
      double into = rank - static_cast<double>(cumulative);
      return lower +
             (upper - lower) * (into / static_cast<double>(in_bucket));
    }
    cumulative += in_bucket;
  }
  return snapshot.bounds.empty() ? 0.0 : snapshot.bounds.back();
}

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

void Counter::Increment(double delta) {
  if (delta < 0.0 || std::isnan(delta)) {
    DWQA_LOG(Debug) << "counter increment of " << delta << " dropped";
    return;
  }
  value_.fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::Add(double delta) {
  value_.fetch_add(delta, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  DWQA_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  // First bucket whose upper bound admits the value; the +Inf overflow
  // bucket (index bounds_.size()) catches the rest.
  size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

const std::vector<double>& MetricRegistry::LatencyBucketsMs() {
  static const std::vector<double> kBuckets = {
      0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
      250.0, 1000.0};
  return kBuckets;
}

MetricRegistry::Series* MetricRegistry::GetSeries(
    const std::string& name, const MetricLabels& labels, MetricType type,
    const std::string& help, const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [family_it, family_created] = families_.try_emplace(name);
  Family& family = family_it->second;
  if (family_created) {
    family.type = type;
  } else {
    // Same name, different type would split one exposition family across
    // incompatible kinds — a bug at the call site, not a runtime condition.
    DWQA_CHECK(family.type == type);
  }
  if (family.help.empty() && !help.empty()) family.help = help;
  auto [series_it, series_created] =
      series_.try_emplace({name, labels});
  Series& series = series_it->second;
  if (series_created) {
    switch (type) {
      case MetricType::kCounter:
        series.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        series.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        series.histogram = std::make_unique<Histogram>(
            bounds.empty() ? LatencyBucketsMs() : bounds);
        break;
    }
  }
  return &series;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const MetricLabels& labels,
                                    const std::string& help) {
  return GetSeries(name, labels, MetricType::kCounter, help, {})
      ->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const MetricLabels& labels,
                                const std::string& help) {
  return GetSeries(name, labels, MetricType::kGauge, help, {})->gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const MetricLabels& labels,
                                        const std::vector<double>& bounds,
                                        const std::string& help) {
  return GetSeries(name, labels, MetricType::kHistogram, help, bounds)
      ->histogram.get();
}

std::vector<MetricSnapshot> MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(series_.size());
  for (const auto& [key, series] : series_) {
    MetricSnapshot snap;
    snap.name = key.first;
    snap.labels = key.second;
    const Family& family = families_.at(key.first);
    snap.type = family.type;
    snap.help = family.help;
    switch (family.type) {
      case MetricType::kCounter:
        snap.value = series.counter->value();
        break;
      case MetricType::kGauge:
        snap.value = series.gauge->value();
        break;
      case MetricType::kHistogram:
        snap.bounds = series.histogram->bounds();
        snap.bucket_counts = series.histogram->bucket_counts();
        snap.count = series.histogram->count();
        snap.sum = series.histogram->sum();
        snap.value = snap.sum;
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<MetricSnapshot> MetricRegistry::SnapshotFamily(
    const std::string& name) const {
  std::vector<MetricSnapshot> out;
  for (MetricSnapshot& snap : Snapshot()) {
    if (snap.name == name) out.push_back(std::move(snap));
  }
  return out;
}

double MetricRegistry::Value(const std::string& name,
                             const MetricLabels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find({name, labels});
  if (it == series_.end()) return 0.0;
  if (it->second.counter != nullptr) return it->second.counter->value();
  if (it->second.gauge != nullptr) return it->second.gauge->value();
  if (it->second.histogram != nullptr) return it->second.histogram->sum();
  return 0.0;
}

double MetricRegistry::FamilySum(const std::string& name) const {
  double sum = 0.0;
  for (const MetricSnapshot& snap : SnapshotFamily(name)) {
    sum += snap.value;
  }
  return sum;
}

size_t MetricRegistry::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

std::string MetricRegistry::ExportPrometheus() const {
  return RenderPrometheus(Snapshot());
}

std::string RenderPrometheus(const std::vector<MetricSnapshot>& snapshots) {
  std::ostringstream out;
  for (size_t i = 0; i < snapshots.size(); ++i) {
    const MetricSnapshot& snap = snapshots[i];
    if (i == 0 || snap.name != snapshots[i - 1].name) {
      if (!snap.help.empty()) {
        out << "# HELP " << snap.name << " " << snap.help << "\n";
      }
      out << "# TYPE " << snap.name << " " << MetricTypeName(snap.type)
          << "\n";
    }
    if (snap.type == MetricType::kHistogram) {
      uint64_t cumulative = 0;
      for (size_t i = 0; i < snap.bucket_counts.size(); ++i) {
        cumulative += snap.bucket_counts[i];
        std::string le = i < snap.bounds.size()
                             ? FormatMetricValue(snap.bounds[i])
                             : std::string("+Inf");
        out << snap.name << "_bucket"
            << PrometheusLabels(snap.labels, "le", le) << " " << cumulative
            << "\n";
      }
      out << snap.name << "_sum" << PrometheusLabels(snap.labels) << " "
          << FormatMetricValue(snap.sum) << "\n";
      out << snap.name << "_count" << PrometheusLabels(snap.labels) << " "
          << snap.count << "\n";
    } else {
      out << snap.name << PrometheusLabels(snap.labels) << " "
          << FormatMetricValue(snap.value) << "\n";
    }
  }
  return out.str();
}

std::string MetricRegistry::ExportJson() const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"dwqa-metrics-v1\",\n  \"metrics\": [\n";
  std::vector<MetricSnapshot> snaps = Snapshot();
  for (size_t i = 0; i < snaps.size(); ++i) {
    const MetricSnapshot& snap = snaps[i];
    out << "    {\"name\": \"" << EscapeJson(snap.name) << "\", \"type\": \""
        << MetricTypeName(snap.type) << "\", \"labels\": {";
    bool first = true;
    for (const auto& [key, value] : snap.labels) {
      if (!first) out << ", ";
      first = false;
      out << "\"" << EscapeJson(key) << "\": \"" << EscapeJson(value)
          << "\"";
    }
    out << "}";
    if (snap.type == MetricType::kHistogram) {
      out << ", \"count\": " << snap.count
          << ", \"sum\": " << FormatMetricValue(snap.sum)
          << ", \"buckets\": [";
      for (size_t b = 0; b < snap.bucket_counts.size(); ++b) {
        if (b > 0) out << ", ";
        out << "{\"le\": ";
        if (b < snap.bounds.size()) {
          out << FormatMetricValue(snap.bounds[b]);
        } else {
          out << "\"+Inf\"";
        }
        out << ", \"count\": " << snap.bucket_counts[b] << "}";
      }
      out << "]";
    } else {
      out << ", \"value\": " << FormatMetricValue(snap.value);
    }
    out << "}" << (i + 1 < snaps.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace dwqa
