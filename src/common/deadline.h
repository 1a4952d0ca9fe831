#ifndef DWQA_COMMON_DEADLINE_H_
#define DWQA_COMMON_DEADLINE_H_

#include <limits>
#include <map>
#include <string>

#include "common/metrics.h"
#include "common/status.h"

namespace dwqa {

/// \brief Budget of a Deadline, in abstract cost units.
///
/// The unit is "one attempted operation" (one retry attempt, one probed
/// stage) rather than milliseconds: wall clocks are banned from the test
/// suite, and an attempt-counted budget makes deadline behaviour exactly
/// reproducible. There is no clock: a stage that wants a larger share of
/// the budget charges more units per attempt through Deadline::Spend.
struct DeadlineConfig {
  /// Units the run may spend; infinity (the default) disables the deadline.
  double budget = std::numeric_limits<double>::infinity();

  /// InvalidArgument on a negative or NaN budget.
  Status Validate() const;
};

/// \brief Cooperative, attempt-counted cost budget shared across pipeline
/// stages.
///
/// One Deadline object is threaded through a whole run (AliQAn::Ask →
/// passage retrieval → answer extraction, the Step-5 feed loop, the retry
/// layer). Every stage charges the units it spends, so budget consumed by
/// an inner retry loop is immediately visible to the outer loop. Once the
/// budget is exhausted every further charge or check fails with
/// kDeadlineExceeded naming the stage that hit the wall.
class Deadline {
 public:
  /// Unlimited deadline: never exhausts, charges are still tallied.
  Deadline() = default;
  /// Deadline with the configured (possibly finite) budget.
  explicit Deadline(DeadlineConfig config) : config_(config) {}

  /// True for an infinite budget (the default).
  bool unlimited() const {
    return config_.budget == std::numeric_limits<double>::infinity();
  }
  /// The configured budget in cost units.
  double budget() const { return config_.budget; }
  /// Units charged so far.
  double spent() const { return spent_; }
  /// Units left before exhaustion (0 once exhausted).
  double remaining() const {
    return spent_ >= config_.budget ? 0.0 : config_.budget - spent_;
  }
  /// True once spent() has reached the budget.
  bool exhausted() const { return spent_ >= config_.budget; }

  /// Charges `cost` units attributed to `stage`. The charge that crosses
  /// the budget line still succeeds (the work was already under way); every
  /// subsequent charge fails with kDeadlineExceeded naming `stage`.
  Status Spend(const std::string& stage, double cost = 1.0);

  /// Non-charging probe: OK while budget remains, kDeadlineExceeded naming
  /// `stage` once it is gone.
  Status Check(const std::string& stage);

  /// Stage that first observed exhaustion ("" while budget remains).
  const std::string& exhausted_stage() const { return exhausted_stage_; }

  /// Units charged per stage, for the PipelineHealth summary.
  const std::map<std::string, double>& spent_by_stage() const {
    return spent_by_stage_;
  }

  /// Attaches a metrics registry (owned by the caller, may be null): every
  /// subsequent Spend mirrors its charge into
  /// `dwqa_deadline_spent_units_total{stage}` and exhaustion flips the
  /// `dwqa_deadline_exhausted` gauge.
  void set_metrics(MetricRegistry* metrics);

 private:
  Status Exceeded(const std::string& stage);

  DeadlineConfig config_;
  double spent_ = 0.0;
  std::string exhausted_stage_;
  std::map<std::string, double> spent_by_stage_;
  MetricRegistry* metrics_ = nullptr;
};

/// Propagates kDeadlineExceeded out of the enclosing function when the
/// (possibly null) Deadline* is exhausted. Null means "no deadline".
#define DWQA_CHECK_DEADLINE(deadline, stage)                \
  do {                                                      \
    if ((deadline) != nullptr) {                            \
      ::dwqa::Status _dwqa_dl = (deadline)->Check(stage);   \
      if (!_dwqa_dl.ok()) return _dwqa_dl;                  \
    }                                                       \
  } while (false)

}  // namespace dwqa

#endif  // DWQA_COMMON_DEADLINE_H_
