#ifndef DWQA_COMMON_METRICS_H_
#define DWQA_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dwqa {

/// Label set of one metric series, e.g. `{{"stage", "qa.extraction"}}`.
/// A std::map so series with the same labels compare equal regardless of
/// insertion order and exporters emit them deterministically sorted.
using MetricLabels = std::map<std::string, std::string>;

/// \brief What a registered metric measures.
enum class MetricType {
  /// Monotonically increasing sum (events, units spent).
  kCounter,
  /// Point-in-time value that can move both ways (queue depth, store size).
  kGauge,
  /// Fixed-bucket distribution (latencies) with count and sum.
  kHistogram,
};

/// "counter", "gauge", "histogram" — the Prometheus TYPE names.
const char* MetricTypeName(MetricType type);

/// \brief Monotonic counter. Increment is lock-free (atomic add), safe to
/// call from any ThreadPool worker.
class Counter {
 public:
  /// Adds `delta` (>= 0; negative deltas are a programmer error and are
  /// dropped with a debug log rather than corrupting the monotone series).
  void Increment(double delta = 1.0);

  /// Current value.
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Point-in-time gauge. Set/Add are lock-free.
class Gauge {
 public:
  /// Replaces the value.
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }

  /// Adds `delta` (may be negative).
  void Add(double delta);

  /// Current value.
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket histogram (cumulative-bucket semantics on export,
/// Prometheus style). Observe is lock-free: per-bucket atomic counters plus
/// an atomic sum, so ThreadPool workers can record concurrently and the
/// final counts are exact regardless of interleaving.
class Histogram {
 public:
  /// `bounds` are the inclusive upper bounds of the finite buckets, strictly
  /// ascending; an implicit +Inf bucket is appended.
  explicit Histogram(std::vector<double> bounds);

  /// Records one observation.
  void Observe(double value);

  /// Observations recorded so far.
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of all observations.
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// The finite upper bounds this histogram was built with.
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds().size() is +Inf.
  std::vector<uint64_t> bucket_counts() const;

 private:
  std::vector<double> bounds_;
  /// One slot per finite bound plus the +Inf overflow bucket.
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// \brief RAII latency probe: observes the elapsed wall time, in
/// milliseconds, into a Histogram when it goes out of scope. Null-safe —
/// constructing over a null histogram makes the timer a no-op, matching the
/// "null registry = observability off" convention.
class ScopedLatencyTimer {
 public:
  /// Starts timing; `histogram` may be null (the timer is then a no-op).
  explicit ScopedLatencyTimer(Histogram* histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  /// Non-copyable.
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  /// Non-copyable.
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;
  /// Observes the elapsed milliseconds into the histogram.
  ~ScopedLatencyTimer() {
    if (histogram_ == nullptr) return;
    histogram_->Observe(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start_)
                            .count());
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// \brief A series pointer resolved on first use and then kept: the
/// hot-path alternative to a registry lookup (mutex + label map) per event.
/// Resolution stays lazy, so a series still appears in the exposition only
/// once it is first used. Reads are lock-free; two racing first uses both
/// resolve and store the same stable pointer.
template <typename Instrument>
class MetricSlot {
 public:
  /// The kept instrument, or `resolve()` — stored for the next call.
  template <typename Resolve>
  Instrument* Get(Resolve resolve) {
    Instrument* instrument = ptr_.load(std::memory_order_acquire);
    if (instrument == nullptr) {
      instrument = resolve();
      ptr_.store(instrument, std::memory_order_release);
    }
    return instrument;
  }
  /// Forgets the kept instrument (its registry was swapped out).
  void Reset() { ptr_.store(nullptr, std::memory_order_release); }

 private:
  std::atomic<Instrument*> ptr_{nullptr};
};

/// \brief One exported series: the flattened, lock-free-read copy of a
/// metric that Snapshot() hands to exporters, tests and benches.
struct MetricSnapshot {
  std::string name;            ///< Family name ("dwqa_feed_facts_total").
  MetricType type = MetricType::kCounter;  ///< Family type.
  std::string help;            ///< HELP text ("" when none was registered).
  MetricLabels labels;         ///< This series' labels (may be empty).
  /// Counter/gauge value; for histograms, equal to `sum`.
  double value = 0.0;
  /// \name Histogram-only fields
  /// @{
  std::vector<double> bounds;         ///< Finite upper bounds.
  std::vector<uint64_t> bucket_counts;  ///< Per-bucket counts (+Inf last).
  uint64_t count = 0;                 ///< Total observations.
  double sum = 0.0;                   ///< Sum of observations.
  /// @}
};

/// Estimated `q`-quantile (q in [0, 1]) of a histogram snapshot, by linear
/// interpolation inside the bucket the quantile falls into (the Prometheus
/// `histogram_quantile` estimator). Observations in the +Inf bucket clamp
/// to the largest finite bound. Returns 0 for an empty histogram or a
/// non-histogram snapshot.
double HistogramQuantile(const MetricSnapshot& snapshot, double q);

/// Prometheus text exposition of `snapshots`, which must be sorted by
/// (name, labels): one HELP/TYPE block per family, then its series. The
/// one renderer behind MetricRegistry::ExportPrometheus and exports that
/// merge several registries.
std::string RenderPrometheus(const std::vector<MetricSnapshot>& snapshots);

/// \brief Thread-safe registry of named counters, gauges and histograms.
///
/// One registry per pipeline (IntegrationPipeline owns one); components
/// receive a `MetricRegistry*` via `set_metrics` and treat null as
/// "observability off". Series are created lazily on first Get and live as
/// long as the registry, so returned pointers are stable and hot paths may
/// cache them. Creation takes a mutex; recording on the returned instrument
/// is lock-free (atomics), which keeps the instrumented ThreadPool paths
/// TSan-clean and free of serialization points.
///
/// A family (one name) has one type and one help string; registering the
/// same name with a different type is a programmer error (DWQA_CHECK).
class MetricRegistry {
 public:
  /// Empty registry.
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;             ///< Non-copyable.
  MetricRegistry& operator=(const MetricRegistry&) = delete;  ///< Non-copyable.

  /// The counter series `name{labels}`, created on first use.
  /// `help` is recorded on the first call that provides one.
  Counter* GetCounter(const std::string& name,
                      const MetricLabels& labels = {},
                      const std::string& help = "");

  /// The gauge series `name{labels}`, created on first use.
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels = {},
                  const std::string& help = "");

  /// The histogram series `name{labels}`, created on first use with
  /// `bounds` (LatencyBucketsMs() when empty). Later calls ignore `bounds`.
  Histogram* GetHistogram(const std::string& name,
                          const MetricLabels& labels = {},
                          const std::vector<double>& bounds = {},
                          const std::string& help = "");

  /// Every series, sorted by (name, labels) — the one source all exporters,
  /// tests and bench tees read.
  std::vector<MetricSnapshot> Snapshot() const;

  /// The series of one family, sorted by labels (empty when unregistered).
  std::vector<MetricSnapshot> SnapshotFamily(const std::string& name) const;

  /// Counter/gauge value of `name{labels}`; 0 when the series does not
  /// exist (absent and never-incremented are indistinguishable, as in
  /// Prometheus).
  double Value(const std::string& name, const MetricLabels& labels = {}) const;

  /// Sum of a counter family across all label values (0 when absent).
  double FamilySum(const std::string& name) const;

  /// Number of distinct registered series.
  size_t series_count() const;

  /// Prometheus text exposition format (HELP/TYPE comments, one line per
  /// series, histograms as cumulative `_bucket{le=...}` + `_sum`/`_count`).
  std::string ExportPrometheus() const;

  /// JSON document `{"schema": "dwqa-metrics-v1", "metrics": [...]}` with
  /// one object per series (histograms carry buckets/sum/count).
  std::string ExportJson() const;

  /// Default latency buckets, in milliseconds:
  /// 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000.
  static const std::vector<double>& LatencyBucketsMs();

 private:
  /// One registered series (exactly one of the three instruments is live,
  /// per the family type).
  struct Series {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  /// Per-name metadata shared by all series of the family.
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
  };

  /// Looks up / creates the series under mu_.
  Series* GetSeries(const std::string& name, const MetricLabels& labels,
                    MetricType type, const std::string& help,
                    const std::vector<double>& bounds);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  std::map<std::pair<std::string, MetricLabels>, Series> series_;
};

}  // namespace dwqa

#endif  // DWQA_COMMON_METRICS_H_
