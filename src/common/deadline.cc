#include "common/deadline.h"

#include <cmath>

#include "common/metric_names.h"

namespace dwqa {

Status DeadlineConfig::Validate() const {
  if (std::isnan(budget)) {
    return Status::InvalidArgument("deadline budget must not be NaN");
  }
  if (budget < 0.0) {
    return Status::InvalidArgument("deadline budget must be >= 0, got " +
                                   std::to_string(budget));
  }
  return Status::OK();
}

void Deadline::set_metrics(MetricRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    // Register the gauge at 0 so an unexhausted run still exports it.
    metrics_->GetGauge(kMetricDeadlineExhausted, {},
                      "1 once the shared deadline budget is exhausted")
        ->Set(exhausted() ? 1.0 : 0.0);
  }
}

Status Deadline::Exceeded(const std::string& stage) {
  if (exhausted_stage_.empty()) exhausted_stage_ = stage;
  if (metrics_ != nullptr) {
    metrics_->GetGauge(kMetricDeadlineExhausted)->Set(1.0);
  }
  return Status::DeadlineExceeded(
      "budget of " + std::to_string(config_.budget) +
      " units exhausted at stage '" + stage + "' (spent " +
      std::to_string(spent_) + ")");
}

Status Deadline::Spend(const std::string& stage, double cost) {
  if (exhausted()) return Exceeded(stage);
  spent_ += cost;
  spent_by_stage_[stage] += cost;
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter(kMetricDeadlineSpentUnits, {{"stage", stage}},
                     "Deadline budget units charged per stage")
        ->Increment(cost);
    if (exhausted()) {
      metrics_->GetGauge(kMetricDeadlineExhausted)->Set(1.0);
    }
  }
  return Status::OK();
}

Status Deadline::Check(const std::string& stage) {
  if (exhausted()) return Exceeded(stage);
  return Status::OK();
}

}  // namespace dwqa
