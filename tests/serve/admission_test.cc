// Admission-control tests: the bounded queue, the cost budget, per-tenant
// concurrency, the tick-driven token bucket, and the shed counters.

#include "serve/admission.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/metric_names.h"
#include "common/metrics.h"

namespace dwqa {
namespace serve {
namespace {

TEST(AdmissionConfigTest, Validation) {
  AdmissionConfig ok;
  EXPECT_TRUE(ok.Validate().ok());

  AdmissionConfig zero_depth;
  zero_depth.max_queue_depth = 0;
  EXPECT_TRUE(zero_depth.Validate().IsInvalidArgument());

  AdmissionConfig negative_cost;
  negative_cost.max_queued_cost = -1.0;
  EXPECT_TRUE(negative_cost.Validate().IsInvalidArgument());

  AdmissionConfig starving_bucket;
  starving_bucket.rate.capacity = 5.0;
  starving_bucket.rate.refill_per_tick = 0.0;
  EXPECT_TRUE(starving_bucket.Validate().IsInvalidArgument());
}

TEST(AdmissionTest, QueueDepthBoundsAdmissions) {
  AdmissionConfig config;
  config.max_queue_depth = 2;
  AdmissionController admission(config);

  EXPECT_TRUE(admission.Admit("a", 1.0, 1).status.ok());
  EXPECT_TRUE(admission.Admit("a", 1.0, 2).status.ok());
  AdmissionDecision shed = admission.Admit("a", 1.0, 3);
  EXPECT_TRUE(shed.status.IsOverloaded());
  EXPECT_EQ(shed.reason, "queue_full");
  EXPECT_EQ(admission.depth(), 2u);

  // Releasing frees a slot.
  admission.Release("a", 1.0);
  EXPECT_TRUE(admission.Admit("a", 1.0, 4).status.ok());
}

TEST(AdmissionTest, CostBudgetShedsExpensiveRequests) {
  AdmissionConfig config;
  config.max_queue_depth = 100;
  config.max_queued_cost = 10.0;
  AdmissionController admission(config);

  EXPECT_TRUE(admission.Admit("a", 8.0, 1).status.ok());
  AdmissionDecision shed = admission.Admit("a", 5.0, 2);
  EXPECT_TRUE(shed.status.IsOverloaded());
  EXPECT_EQ(shed.reason, "cost_budget");
  // A cheaper request still fits.
  EXPECT_TRUE(admission.Admit("a", 2.0, 3).status.ok());
  EXPECT_DOUBLE_EQ(admission.queued_cost(), 10.0);
  admission.Release("a", 8.0);
  admission.Release("a", 2.0);
  EXPECT_DOUBLE_EQ(admission.queued_cost(), 0.0);
}

TEST(AdmissionTest, PerTenantConcurrencyIsolatesTenants) {
  AdmissionConfig config;
  config.max_queue_depth = 100;
  config.per_tenant_concurrency = 2;
  AdmissionController admission(config);

  EXPECT_TRUE(admission.Admit("noisy", 1.0, 1).status.ok());
  EXPECT_TRUE(admission.Admit("noisy", 1.0, 2).status.ok());
  AdmissionDecision shed = admission.Admit("noisy", 1.0, 3);
  EXPECT_TRUE(shed.status.IsOverloaded());
  EXPECT_EQ(shed.reason, "tenant_concurrency");
  // The noisy neighbour does not block the quiet one.
  EXPECT_TRUE(admission.Admit("quiet", 1.0, 4).status.ok());
  EXPECT_EQ(admission.tenant_inflight("noisy"), 2u);
  EXPECT_EQ(admission.tenant_inflight("quiet"), 1u);
}

TEST(AdmissionTest, TokenBucketRateLimitsPerTick) {
  AdmissionConfig config;
  config.max_queue_depth = 100;
  config.rate.capacity = 2.0;
  config.rate.refill_per_tick = 0.5;
  AdmissionController admission(config);

  // Burst of two at tick 1, third is rate limited.
  EXPECT_TRUE(admission.Admit("a", 1.0, 1).status.ok());
  EXPECT_TRUE(admission.Admit("a", 1.0, 1).status.ok());
  AdmissionDecision shed = admission.Admit("a", 1.0, 1);
  EXPECT_TRUE(shed.status.IsOverloaded());
  EXPECT_EQ(shed.reason, "rate_limited");

  // Two ticks later 0.5 * 2 = 1 token has refilled.
  EXPECT_TRUE(admission.Admit("a", 1.0, 3).status.ok());
  EXPECT_FALSE(admission.Admit("a", 1.0, 3).status.ok());

  // Each tenant has its own bucket.
  EXPECT_TRUE(admission.Admit("b", 1.0, 3).status.ok());
}

TEST(AdmissionTest, DisabledBucketAdmitsEverything) {
  TokenBucket bucket;  // Default config: capacity 0 = disabled.
  EXPECT_TRUE(bucket.disabled());
  for (uint64_t tick = 0; tick < 100; ++tick) {
    EXPECT_TRUE(bucket.TryTake(tick));
  }
}

TEST(AdmissionTest, ShedsAndGaugesLandInTheRegistry) {
  AdmissionConfig config;
  config.max_queue_depth = 1;
  AdmissionController admission(config);
  MetricRegistry metrics;
  admission.set_metrics(&metrics);

  ASSERT_TRUE(admission.Admit("a", 2.0, 1).status.ok());
  ASSERT_FALSE(admission.Admit("a", 1.0, 2).status.ok());
  EXPECT_DOUBLE_EQ(
      metrics.Value(kMetricServeRejections, {{"reason", "queue_full"}}),
      1.0);
  EXPECT_DOUBLE_EQ(metrics.Value(kMetricServeQueueDepth), 1.0);
  EXPECT_DOUBLE_EQ(metrics.Value(kMetricServeQueuedCost), 2.0);
  EXPECT_DOUBLE_EQ(
      metrics.Value(kMetricServeTenantInflight, {{"tenant", "a"}}), 1.0);
  admission.Release("a", 2.0);
  EXPECT_DOUBLE_EQ(metrics.Value(kMetricServeQueueDepth), 0.0);
  EXPECT_DOUBLE_EQ(
      metrics.Value(kMetricServeTenantInflight, {{"tenant", "a"}}), 0.0);
}

TEST(AdmissionTest, WaitIdleReturnsOnceEveryAdmissionIsReleased) {
  AdmissionController admission;
  admission.WaitIdle();  // Idle from the start.
  ASSERT_TRUE(admission.Admit("a", 1.0, 1).status.ok());
  ASSERT_TRUE(admission.Admit("b", 2.0, 1).status.ok());
  std::thread releaser([&admission] {
    admission.Release("a", 1.0);
    admission.Release("b", 2.0);
  });
  admission.WaitIdle();
  EXPECT_EQ(admission.depth(), 0u);
  EXPECT_EQ(admission.queued_cost(), 0.0);
  releaser.join();
}

}  // namespace
}  // namespace serve
}  // namespace dwqa
