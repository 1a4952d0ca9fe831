#ifndef DWQA_SERVE_ADMISSION_H_
#define DWQA_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/status.h"

namespace dwqa {
namespace serve {

/// \brief Deterministic, tick-driven token bucket (per-tenant rate limit).
///
/// Refills `refill_per_tick` tokens per server tick up to `capacity`; each
/// admitted request takes one token. Like the circuit breaker's
/// attempt-counted cool-down, tick-counted refill keeps rate limiting
/// reproducible without a wall clock.
struct TokenBucketConfig {
  /// Burst size. <= 0 disables the bucket (every request has a token).
  double capacity = 0.0;
  /// Tokens regained per server tick.
  double refill_per_tick = 0.0;
};

/// \brief One tenant's token bucket. Not thread-safe on its own — the
/// AdmissionController serializes access under its mutex.
class TokenBucket {
 public:
  TokenBucket() = default;
  explicit TokenBucket(TokenBucketConfig config)
      : config_(config), tokens_(config.capacity) {}

  /// Refills up to `now_tick`, then takes one token if available.
  bool TryTake(uint64_t now_tick);

  /// Tokens currently available (after a refill to `now_tick`).
  double available(uint64_t now_tick);

  /// True when the bucket is a pass-through (capacity <= 0).
  bool disabled() const { return config_.capacity <= 0.0; }

 private:
  void Refill(uint64_t now_tick);

  TokenBucketConfig config_;
  double tokens_ = 0.0;
  uint64_t last_tick_ = 0;
};

/// \brief Tuning of the admission controller — the overload-protection
/// budgets, all enforced before a request touches a worker.
struct AdmissionConfig {
  /// Requests admitted and not yet finished, across all tenants. The
  /// bounded request queue of the serving loop: depth beyond this is shed
  /// with kOverloaded instead of queueing without limit.
  size_t max_queue_depth = 64;
  /// Estimated cost units admitted and not yet finished (an `ask` costs 1,
  /// a `feed` costs its question count — see ServerConfig). 0 = unlimited.
  double max_queued_cost = 0.0;
  /// In-flight requests per tenant. 0 = unlimited. Isolates tenants: one
  /// tenant flooding the server cannot occupy every worker.
  size_t per_tenant_concurrency = 0;
  /// Per-tenant rate limit (disabled when capacity <= 0).
  TokenBucketConfig rate;

  /// InvalidArgument on a zero queue depth or a negative cost budget.
  Status Validate() const;
};

/// \brief Outcome of one admission decision: OK, or kOverloaded with the
/// machine-readable shed reason ("queue_full", "cost_budget",
/// "tenant_concurrency", "rate_limited").
struct AdmissionDecision {
  Status status;
  std::string reason;
};

/// \brief Thread-safe admission controller: the bounded queue, the cost
/// budget, per-tenant concurrency and per-tenant token buckets, with shed
/// counters and depth gauges mirrored into the registry.
///
/// Usage: `Admit` before enqueueing (a rejected request was never
/// admitted); `Release` exactly once when an admitted request finishes,
/// however it ends.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config = {});

  /// Decides admission of one request of estimated `cost` by `tenant` at
  /// `now_tick`. On OK the depth/cost/tenant counters are already bumped.
  AdmissionDecision Admit(const std::string& tenant, double cost,
                          uint64_t now_tick);

  /// Returns an admitted request's capacity. Must mirror one successful
  /// Admit with the same tenant and cost.
  void Release(const std::string& tenant, double cost);

  /// Blocks until no admitted request is unreleased (depth 0).
  void WaitIdle();

  /// Requests admitted and not yet released.
  size_t depth() const;
  /// Cost units admitted and not yet released.
  double queued_cost() const;
  /// In-flight requests of one tenant.
  size_t tenant_inflight(const std::string& tenant) const;

  const AdmissionConfig& config() const { return config_; }

  /// Attaches a metrics registry (may be null): depth/cost gauges, the
  /// per-tenant in-flight gauge and the `dwqa_serve_rejections_total`
  /// shed counters.
  void set_metrics(MetricRegistry* metrics);

 private:
  /// One tenant's admission state.
  struct TenantState {
    explicit TenantState(TokenBucketConfig rate) : bucket(rate) {}
    size_t inflight = 0;
    TokenBucket bucket;
    /// Its `dwqa_serve_tenant_inflight` gauge, resolved on first use.
    MetricSlot<Gauge> inflight_gauge;
  };

  /// Counts a shed and returns the composed decision. Caller holds mu_.
  AdmissionDecision Shed(const std::string& reason,
                         const std::string& detail);
  /// Updates the tenant's in-flight gauge. Caller holds mu_.
  void ExportInflight(const std::string& tenant, TenantState* state);
  /// Updates the depth/cost gauges. Caller holds mu_.
  void ExportGauges();

  AdmissionConfig config_;
  mutable std::mutex mu_;
  size_t depth_ = 0;
  double queued_cost_ = 0.0;
  std::map<std::string, TenantState> tenants_;
  MetricRegistry* metrics_ = nullptr;
  /// Depth/cost gauges, resolved on first use (cleared by set_metrics) so
  /// an admission takes no registry lock.
  MetricSlot<Gauge> depth_gauge_;
  MetricSlot<Gauge> cost_gauge_;
  /// Notified when depth_ drops to 0. Declared last so that depth_ and
  /// queued_cost_, which every admission writes under mu_, sit right after
  /// it: declared between them, it cost perfbench `serve_mix` 4% of its
  /// throughput.
  std::condition_variable idle_cv_;
};

}  // namespace serve
}  // namespace dwqa

#endif  // DWQA_SERVE_ADMISSION_H_
