#ifndef DWQA_COMMON_RETRY_H_
#define DWQA_COMMON_RETRY_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace dwqa {

/// Seed of every RetryCall's jitter draw stream.
inline constexpr uint64_t kRetryJitterSeed = 42;

/// \brief Exponential backoff with seeded jitter.
///
/// Delays grow geometrically from `base_delay_ms`, capped at `max_delay_ms`,
/// and are spread by up to `jitter` of themselves so that retrying callers
/// do not stampede in lockstep. The jitter draws come from a seeded Rng, so
/// a fixed seed reproduces the exact retry schedule.
struct RetryPolicy {
  /// Total tries, including the first one. 1 = no retries.
  int max_attempts = 5;
  double base_delay_ms = 0.5;    ///< Delay before the second attempt.
  double max_delay_ms = 8.0;     ///< Backoff cap.
  double backoff_factor = 2.0;   ///< Multiplier between attempts.
  /// Fraction of the delay randomized away: delay *= 1 - U(0, jitter).
  double jitter = 0.5;
  /// When false, delays are computed (and reported) but not slept —
  /// deterministic-schedule tests do not want wall-clock in the loop.
  bool sleep = true;

  /// InvalidArgument on a policy that would loop zero times or backward:
  /// `max_attempts < 1`, negative delays, non-positive backoff factor, or
  /// jitter outside [0, 1].
  Status Validate() const;
};

/// \brief What one RetryCall did, for reports and diagnostics.
struct RetryStats {
  /// Tries made (>= 1 once the call ran).
  int attempts = 0;
  /// Transient failures seen (== attempts - 1 on eventual success).
  int transient_failures = 0;
  double total_delay_ms = 0.0;  ///< Backoff delay computed (slept or not).

  /// Folds another call's stats into this one (batch reporting).
  void Accumulate(const RetryStats& other) {
    attempts += other.attempts;
    transient_failures += other.transient_failures;
    total_delay_ms += other.total_delay_ms;
  }
};

/// Backoff delay before retry number `retry` (1-based), jittered via `rng`.
double BackoffDelayMs(const RetryPolicy& policy, int retry, Rng* rng);

/// Mirrors one RetryCall's stats into the registry (null = observability
/// off): attempts and transient failures go to
/// `dwqa_retry_attempts_total{stage}` /
/// `dwqa_retry_transient_failures_total{stage}`, and `gave_up` increments
/// `dwqa_retry_giveups_total{stage}` — the per-stage retry pressure the
/// Prometheus export shows for a served request. Call it once per settled
/// operation, after the final attempt.
void MirrorRetryStats(MetricRegistry* metrics, const std::string& stage,
                      const RetryStats& stats, bool gave_up);

namespace internal {
void SleepForMs(double ms);
}  // namespace internal

/// Runs `fn` (returning Status) up to `policy.max_attempts` times. Only
/// transient failures (IsTransient) are retried; permanent errors and
/// success return immediately. The last transient Status is returned when
/// the budget runs out. `stats`, when given, is overwritten.
///
/// A non-null `deadline` is charged one unit per attempt (under `stage`);
/// once the shared budget is exhausted the loop stops before the next
/// attempt and returns kDeadlineExceeded. Because every nesting level
/// charges the same Deadline object, budget spent by an inner RetryCall is
/// immediately visible to the enclosing loop.
template <typename Fn>
Status RetryCall(const RetryPolicy& policy, Fn&& fn,
                 RetryStats* stats = nullptr, Deadline* deadline = nullptr,
                 const std::string& stage = "retry") {
  Rng rng(kRetryJitterSeed);
  RetryStats local;
  Status last = Status::OK();
  int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (deadline != nullptr) {
      Status spend = deadline->Spend(stage);
      if (!spend.ok()) {
        last = spend;
        break;
      }
    }
    ++local.attempts;
    last = fn();
    if (!IsTransient(last)) break;  // Success or permanent failure.
    ++local.transient_failures;
    if (attempt == max_attempts) break;
    double delay = BackoffDelayMs(policy, attempt, &rng);
    local.total_delay_ms += delay;
    if (policy.sleep && delay > 0.0) internal::SleepForMs(delay);
  }
  if (stats != nullptr) *stats = local;
  return last;
}

/// Result<T> flavour of RetryCall: `fn` returns Result<T>.
template <typename T, typename Fn>
Result<T> RetryResultCall(const RetryPolicy& policy, Fn&& fn,
                          RetryStats* stats = nullptr,
                          Deadline* deadline = nullptr,
                          const std::string& stage = "retry") {
  Result<T> last = Status::Unavailable("retry loop never ran");
  Status st = RetryCall(
      policy,
      [&]() -> Status {
        last = fn();
        return last.status();
      },
      stats, deadline, stage);
  // On a deadline trip the loop never re-ran `fn`, so `last` still holds an
  // older status — surface the deadline error instead.
  if (st.IsDeadlineExceeded()) return st;
  return last;
}

}  // namespace dwqa

#endif  // DWQA_COMMON_RETRY_H_
