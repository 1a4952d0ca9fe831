#include "serve/admission.h"

#include <algorithm>

#include "common/metric_names.h"

namespace dwqa {
namespace serve {

void TokenBucket::Refill(uint64_t now_tick) {
  if (now_tick > last_tick_) {
    tokens_ = std::min(
        config_.capacity,
        tokens_ + static_cast<double>(now_tick - last_tick_) *
                      config_.refill_per_tick);
    last_tick_ = now_tick;
  }
}

bool TokenBucket::TryTake(uint64_t now_tick) {
  if (disabled()) return true;
  Refill(now_tick);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::available(uint64_t now_tick) {
  if (disabled()) return 0.0;
  Refill(now_tick);
  return tokens_;
}

Status AdmissionConfig::Validate() const {
  if (max_queue_depth == 0) {
    return Status::InvalidArgument(
        "admission max_queue_depth must be > 0 (a zero-depth queue rejects "
        "everything)");
  }
  if (max_queued_cost < 0.0) {
    return Status::InvalidArgument("admission max_queued_cost must be >= 0");
  }
  if (rate.capacity > 0.0 && rate.refill_per_tick <= 0.0) {
    return Status::InvalidArgument(
        "admission rate.refill_per_tick must be > 0 when the bucket is "
        "enabled (a bucket that never refills starves after one burst)");
  }
  return Status::OK();
}

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {}

AdmissionDecision AdmissionController::Shed(const std::string& reason,
                                            const std::string& detail) {
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter(kMetricServeRejections, {{"reason", reason}},
                     "Admissions the server refused, by reason")
        ->Increment();
  }
  AdmissionDecision decision;
  decision.status = Status::Overloaded(detail);
  decision.reason = reason;
  return decision;
}

void AdmissionController::ExportInflight(const std::string& tenant,
                                         TenantState* state) {
  if (metrics_ == nullptr) return;
  state->inflight_gauge
      .Get([&] {
        return metrics_->GetGauge(kMetricServeTenantInflight,
                                  {{"tenant", tenant}},
                                  "Requests of one tenant currently in flight");
      })
      ->Set(static_cast<double>(state->inflight));
}

void AdmissionController::ExportGauges() {
  if (metrics_ == nullptr) return;
  depth_gauge_
      .Get([&] {
        return metrics_->GetGauge(kMetricServeQueueDepth, {},
                                  "Requests admitted and not yet finished");
      })
      ->Set(static_cast<double>(depth_));
  cost_gauge_
      .Get([&] {
        return metrics_->GetGauge(
            kMetricServeQueuedCost, {},
            "Estimated cost units admitted and not yet finished");
      })
      ->Set(queued_cost_);
}

AdmissionDecision AdmissionController::Admit(const std::string& tenant,
                                             double cost,
                                             uint64_t now_tick) {
  std::lock_guard<std::mutex> lock(mu_);
  if (depth_ + 1 > config_.max_queue_depth) {
    return Shed("queue_full",
                "request queue at its depth limit of " +
                    std::to_string(config_.max_queue_depth));
  }
  if (config_.max_queued_cost > 0.0 &&
      queued_cost_ + cost > config_.max_queued_cost) {
    return Shed("cost_budget",
                "queued cost budget exceeded (queued " +
                    std::to_string(queued_cost_) + " + " +
                    std::to_string(cost) + " > " +
                    std::to_string(config_.max_queued_cost) + ")");
  }
  TenantState& state =
      tenants_.try_emplace(tenant, config_.rate).first->second;
  if (config_.per_tenant_concurrency > 0 &&
      state.inflight + 1 > config_.per_tenant_concurrency) {
    return Shed("tenant_concurrency",
                "tenant '" + tenant + "' at its concurrency limit of " +
                    std::to_string(config_.per_tenant_concurrency));
  }
  if (!state.bucket.TryTake(now_tick)) {
    return Shed("rate_limited",
                "tenant '" + tenant + "' exceeded its request rate");
  }
  ++depth_;
  queued_cost_ += cost;
  ++state.inflight;
  ExportInflight(tenant, &state);
  ExportGauges();
  return {Status::OK(), ""};
}

void AdmissionController::Release(const std::string& tenant, double cost) {
  std::lock_guard<std::mutex> lock(mu_);
  if (depth_ > 0) --depth_;
  queued_cost_ = std::max(0.0, queued_cost_ - cost);
  auto it = tenants_.find(tenant);
  if (it != tenants_.end() && it->second.inflight > 0) {
    --it->second.inflight;
    ExportInflight(tenant, &it->second);
  }
  ExportGauges();
  if (depth_ == 0) idle_cv_.notify_all();
}

void AdmissionController::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return depth_ == 0; });
}

size_t AdmissionController::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

double AdmissionController::queued_cost() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_cost_;
}

size_t AdmissionController::tenant_inflight(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.inflight;
}

void AdmissionController::set_metrics(MetricRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
  depth_gauge_.Reset();
  cost_gauge_.Reset();
  for (auto& [tenant, state] : tenants_) state.inflight_gauge.Reset();
}

}  // namespace serve
}  // namespace dwqa
