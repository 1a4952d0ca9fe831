#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "integration/last_minute_sales.h"
#include "integration/pipeline.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace integration {
namespace {

const char kQ1[] = "What is the temperature in Barcelona in January of 2004?";
const char kQ2[] = "What is the temperature in Madrid in January of 2004?";
/// The one prose weather page per (city, month) the chaos web serves — the
/// poisoned-source tests arm faults scoped to this exact URL.
const char kBarcelonaUrl[] = "web://weather/barcelona/2004-1.html";

RetryPolicy FastRetry(int max_attempts = 3) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.sleep = false;
  return policy;
}

BreakerConfig BreakerOn(size_t threshold = 2, size_t cooldown = 100) {
  BreakerConfig config;
  config.enabled = true;
  config.failure_threshold = threshold;
  config.cooldown_attempts = cooldown;
  return config;
}

/// Fact rows with the surrogate keys resolved to member names. Surrogate
/// ids depend on load order, and a chaos run loads fewer (and differently
/// ordered) members than a clean one — only the resolved rows compare.
std::multiset<std::string> WeatherRows(const dw::Warehouse& wh) {
  const dw::Table* table = wh.FactTable("Weather").ValueOrDie();
  size_t loc = table->ColumnIndex("fk_location").ValueOrDie();
  size_t day = table->ColumnIndex("fk_day").ValueOrDie();
  size_t src = table->ColumnIndex("fk_source").ValueOrDie();
  size_t temp = table->ColumnIndex("TemperatureC").ValueOrDie();
  std::multiset<std::string> rows;
  for (size_t r = 0; r < table->row_count(); ++r) {
    auto name = [&](const char* dim, size_t col, const char* level) {
      return wh.MemberLevelValue(dim, dw::MemberId(table->Get(r, col).as_int()),
                                 level)
          .ValueOrDie();
    };
    rows.insert(name("City", loc, "City") + "|" + name("Date", day, "Date") +
                "|" + name("Source", src, "Url") + "|" +
                table->Get(r, temp).ToString());
  }
  return rows;
}

/// Empty when `sub` ⊆ `super`; otherwise the offending rows, for messages.
std::string ExtraRows(const std::multiset<std::string>& sub,
                      const std::multiset<std::string>& super) {
  std::multiset<std::string> extra;
  std::set_difference(sub.begin(), sub.end(), super.begin(), super.end(),
                      std::inserter(extra, extra.begin()));
  std::string out;
  for (const std::string& row : extra) out += row + "\n";
  return out;
}

/// One prose page per (city, month): every Barcelona fact carries
/// kBarcelonaUrl, so a per-source breaker has a single well-known victim.
class ChaosPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    uml_ = LastMinuteSales::MakeUmlModel();
    web::WebConfig config;
    config.cities = {"Barcelona", "Madrid"};
    config.months = {1};
    config.table_weather = false;
    web_ = std::make_unique<web::SyntheticWeb>(
        web::SyntheticWeb::Build(config).ValueOrDie());
  }

  Result<FeedReport> Feed(dw::Warehouse* wh, const ResilienceConfig& res,
                          IntegrationPipeline** out_pipeline = nullptr,
                          size_t qa_threads = 1) {
    PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
    // Wider extraction than the default so each question yields several
    // facts — the per-source breaker needs a stream of loads to trip on.
    config.qa.max_answers = 10;
    config.qa.passages_to_analyze = 8;
    config.qa.threads = qa_threads;
    config.resilience = res;
    pipeline_ = std::make_unique<IntegrationPipeline>(wh, &uml_, config);
    if (out_pipeline != nullptr) *out_pipeline = pipeline_.get();
    DWQA_RETURN_NOT_OK(pipeline_->RunAll(&web_->documents()));
    return pipeline_->RunStep5({kQ1, kQ2}, "Weather", "temperature");
  }

  /// Units one unlimited-budget run spends through indexation (one
  /// ir.index attempt + qa.index + one qa.index.analysis unit per analyzed
  /// sentence). The budget tests calibrate against this probe instead of a
  /// hard-coded constant so the per-sentence indexation charging can evolve
  /// with the corpus.
  double IndexationCost() {
    PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
    config.qa.max_answers = 10;
    config.qa.passages_to_analyze = 8;
    config.resilience.retry = FastRetry();
    auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
    IntegrationPipeline probe(&wh, &uml_, config);
    EXPECT_TRUE(probe.RunAll(&web_->documents()).ok());
    return probe.deadline().spent();
  }

  ontology::UmlModel uml_;
  std::unique_ptr<web::SyntheticWeb> web_;
  std::unique_ptr<IntegrationPipeline> pipeline_;
};

// ---------------------------------------------------------------------------
// Satellite: resilience knobs are validated at pipeline construction.
// ---------------------------------------------------------------------------

TEST_F(ChaosPipelineTest, BadRetryPolicyIsRejectedAtTheFirstStep) {
  PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
  config.resilience.retry.max_attempts = 0;
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  IntegrationPipeline p(&wh, &uml_, config);
  Status st = p.RunStep1();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST_F(ChaosPipelineTest, NegativeBackoffIsRejected) {
  PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
  config.resilience.retry.base_delay_ms = -1.0;
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  IntegrationPipeline p(&wh, &uml_, config);
  EXPECT_TRUE(p.RunAll(&web_->documents()).IsInvalidArgument());
}

TEST_F(ChaosPipelineTest, ZeroBreakerThresholdIsRejected) {
  PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
  config.resilience.breaker.failure_threshold = 0;
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  IntegrationPipeline p(&wh, &uml_, config);
  EXPECT_TRUE(p.RunStep1().IsInvalidArgument());
}

TEST_F(ChaosPipelineTest, NegativeDeadlineBudgetIsRejected) {
  PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
  config.resilience.deadline.budget = -5.0;
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  IntegrationPipeline p(&wh, &uml_, config);
  EXPECT_TRUE(p.RunStep1().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Tentpole: a poisoned source is isolated by its circuit breaker.
// ---------------------------------------------------------------------------

TEST_F(ChaosPipelineTest, BreakerIsolatesThePoisonedSource) {
  auto clean_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  ResilienceConfig clean_res;
  clean_res.retry = FastRetry();
  auto clean = Feed(&clean_wh, clean_res);
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean->rows_loaded, 0u);

  // Every ETL load sourced from the Barcelona page fails, always.
  ResilienceConfig poison;
  poison.retry = FastRetry();
  poison.fault.rules.push_back(
      {std::string(kFaultPointEtlLoad) + ":" + kBarcelonaUrl, 1.0,
       FaultMode::kTransient, StatusCode::kUnavailable});

  // Without a breaker, every Barcelona fact burns the full retry budget.
  auto off_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto off = Feed(&off_wh, poison);
  ASSERT_TRUE(off.ok());
  EXPECT_GT(off->wasted_retries, 0u);
  EXPECT_EQ(off->breaker_rejections, 0u);

  // With the breaker, the source is cut off after `threshold` failures and
  // its remaining facts are parked as kCircuitOpen without touching the ETL.
  IntegrationPipeline* p = nullptr;
  ResilienceConfig guarded = poison;
  guarded.breaker = BreakerOn(/*threshold=*/2, /*cooldown=*/100);
  auto on_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto on = Feed(&on_wh, guarded, &p);
  ASSERT_TRUE(on.ok());

  EXPECT_GT(on->breaker_rejections, 0u);
  EXPECT_GT(on->quarantined_by_reason.at(qa::RejectReason::kCircuitOpen), 0u);
  EXPECT_EQ(on->breaker_rejections,
            on->quarantined_by_reason.at(qa::RejectReason::kCircuitOpen));
  // The healthy source is untouched: Madrid still loads, and every loaded
  // row also exists in the fault-free run.
  EXPECT_GT(on->rows_loaded, 0u);
  EXPECT_EQ(ExtraRows(WeatherRows(on_wh), WeatherRows(clean_wh)), "");
  // Isolation pays: strictly fewer attempts wasted on the doomed source.
  EXPECT_LT(on->wasted_retries, off->wasted_retries);
  // The accounting identity holds under chaos.
  EXPECT_EQ(on->rows_loaded + on->rows_deduplicated + on->rows_quarantined,
            on->facts_extracted);
  // The breaker's state is visible in the health summary.
  EXPECT_GE(on->health.breakers_open, 1u);
  const std::string source_name = std::string("source:") + kBarcelonaUrl;
  bool found = false;
  for (const BreakerHealth& b : on->health.breakers) {
    if (b.name == source_name) {
      found = true;
      EXPECT_EQ(b.state, "Open");
      EXPECT_GE(b.opens, 1u);
    }
  }
  EXPECT_TRUE(found);
  std::string table = on->health.RenderTable();
  EXPECT_NE(table.find(source_name), std::string::npos);
}

TEST_F(ChaosPipelineTest, PersistentlyFailingFetchTripsTheQuestionBreaker) {
  ResilienceConfig res;
  res.retry = FastRetry();
  res.breaker = BreakerOn(/*threshold=*/1, /*cooldown=*/100);
  res.fault.rules.push_back({kFaultPointFetch, 1.0, FaultMode::kTransient,
                             StatusCode::kUnavailable});
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto report = Feed(&wh, res);
  ASSERT_TRUE(report.ok());
  // Q1 trips the web.fetch breaker; Q2 is refused without a single attempt.
  EXPECT_EQ(report->questions_failed, 2u);
  EXPECT_EQ(report->breaker_rejections, 1u);
  EXPECT_GT(report->wasted_retries, 0u);
  EXPECT_EQ(report->rows_loaded, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: every extracted fact appears in the report with a disposition.
// ---------------------------------------------------------------------------

TEST_F(ChaosPipelineTest, EveryFactHasExactlyOneDisposition) {
  // A strict admission rule splits the batch into loaded and quarantined
  // facts (plus whatever the dedup catches).
  ResilienceConfig res;
  res.retry = FastRetry();
  qa::AttributeRule strict;
  strict.min_value = -90.0;
  strict.max_value = 8.0;
  res.validator_rules["temperature"] = strict;
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto report = Feed(&wh, res);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->rows_loaded, 0u);
  ASSERT_GT(report->rows_quarantined, 0u);

  EXPECT_EQ(report->facts.size(), report->facts_extracted);
  std::map<qa::FactDisposition, size_t> by_disposition;
  for (const qa::StructuredFact& fact : report->facts) {
    ++by_disposition[fact.disposition];
  }
  EXPECT_EQ(by_disposition[qa::FactDisposition::kLoaded],
            report->rows_loaded);
  EXPECT_EQ(by_disposition[qa::FactDisposition::kDeduplicated],
            report->rows_deduplicated);
  // Rejected facts (ETL-layer refusals) are a subset of the quarantined
  // bucket in the counter model.
  EXPECT_EQ(by_disposition[qa::FactDisposition::kQuarantined] +
                by_disposition[qa::FactDisposition::kRejected],
            report->rows_quarantined);
  EXPECT_EQ(by_disposition[qa::FactDisposition::kRejected],
            report->rows_rejected);
}

// ---------------------------------------------------------------------------
// Tentpole: the deadline budget propagates through the whole feed.
// ---------------------------------------------------------------------------

TEST_F(ChaosPipelineTest, TinyBudgetSkipsQuestionsInsteadOfCrashing) {
  auto clean_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  ResilienceConfig clean_res;
  clean_res.retry = FastRetry();
  auto clean = Feed(&clean_wh, clean_res);
  ASSERT_TRUE(clean.ok());

  // A budget of exactly the indexation cost (which now includes one unit
  // per analyzed sentence — the linguistic work moved off-line with the
  // AnalyzedCorpus) lets indexation finish on its crossing charge and dies
  // at the first question's analysis.
  const double index_cost = IndexationCost();
  ASSERT_GT(index_cost, 2.0);  // ir.index + qa.index + per-sentence units.
  IntegrationPipeline* p = nullptr;
  ResilienceConfig res;
  res.retry = FastRetry();
  res.deadline.budget = index_cost;
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto report = Feed(&wh, res, &p);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_TRUE(report->deadline_exhausted);
  EXPECT_EQ(report->questions_deadline_skipped, 2u);
  EXPECT_EQ(report->questions_failed, 0u);  // Skipped, not failed.
  EXPECT_EQ(report->rows_loaded, 0u);
  EXPECT_EQ(report->rows_loaded + report->rows_deduplicated +
                report->rows_quarantined,
            report->facts_extracted);
  // The exceeded stage is named, for the operator.
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->deadline().exhausted());
  EXPECT_FALSE(p->deadline().exhausted_stage().empty());
  EXPECT_TRUE(report->health.deadline_exhausted);
  EXPECT_EQ(report->health.budget_limit, index_cost);
  EXPECT_LE(report->health.budget_spent, index_cost);
}

TEST_F(ChaosPipelineTest, MidRunBudgetDegradesButStaysConsistent) {
  auto clean_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  ResilienceConfig clean_res;
  clean_res.retry = FastRetry();
  auto clean = Feed(&clean_wh, clean_res);
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean->rows_loaded, 0u);

  // Indexation plus enough to answer Q1 and load part of its facts; the
  // rest of the run is shed. The partial warehouse must still be a subset
  // of the clean one — degraded means fewer rows, never different rows.
  ResilienceConfig res;
  res.retry = FastRetry();
  res.deadline.budget = IndexationCost() + 18.0;
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto report = Feed(&wh, res);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_TRUE(report->deadline_exhausted);
  EXPECT_LT(report->rows_loaded, clean->rows_loaded);
  EXPECT_EQ(ExtraRows(WeatherRows(wh), WeatherRows(clean_wh)), "");
  EXPECT_EQ(report->rows_loaded + report->rows_deduplicated +
                report->rows_quarantined,
            report->facts_extracted);
}

TEST_F(ChaosPipelineTest, UnlimitedDeadlineChangesNothing) {
  auto a_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  ResilienceConfig plain;
  plain.retry = FastRetry();
  auto a = Feed(&a_wh, plain);
  ASSERT_TRUE(a.ok());

  auto b_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  ResilienceConfig unlimited = plain;
  unlimited.deadline = DeadlineConfig{};  // Explicit unlimited budget.
  auto b = Feed(&b_wh, unlimited);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->deadline_exhausted);
  EXPECT_EQ(b->questions_deadline_skipped, 0u);
  EXPECT_EQ(WeatherRows(a_wh), WeatherRows(b_wh));
}

/// Golden equivalence under chaos, serial vs batched indexation: with 10%
/// transient faults and the same seed, parallel batched indexation
/// (qa.threads=4) must load identical warehouse rows and report identical
/// feed accounting as the fully serial run. The parallel build is
/// byte-identical and the Step-5 loop is serial either way, so the
/// injected-fault schedule cannot diverge.
TEST_F(ChaosPipelineTest, TenPercentFaultsFeedIdenticallySerialAndBatched) {
  ResilienceConfig res;
  res.fault = FaultConfig::TransientEverywhere(0.10, 77);
  res.retry = FastRetry();

  auto serial_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto serial = Feed(&serial_wh, res, nullptr, /*qa_threads=*/1);
  ASSERT_TRUE(serial.ok());

  auto batched_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto batched = Feed(&batched_wh, res, nullptr, /*qa_threads=*/4);
  ASSERT_TRUE(batched.ok());

  EXPECT_EQ(WeatherRows(serial_wh), WeatherRows(batched_wh));
  EXPECT_EQ(serial->questions_asked, batched->questions_asked);
  EXPECT_EQ(serial->questions_answered, batched->questions_answered);
  EXPECT_EQ(serial->questions_failed, batched->questions_failed);
  EXPECT_EQ(serial->questions_resumed, batched->questions_resumed);
  EXPECT_EQ(serial->facts_extracted, batched->facts_extracted);
  EXPECT_EQ(serial->rows_loaded, batched->rows_loaded);
  EXPECT_EQ(serial->rows_rejected, batched->rows_rejected);
  EXPECT_EQ(serial->rows_deduplicated, batched->rows_deduplicated);
  EXPECT_EQ(serial->rows_quarantined, batched->rows_quarantined);
  EXPECT_EQ(serial->quarantined_by_reason, batched->quarantined_by_reason);
  EXPECT_EQ(serial->retries, batched->retries);
  EXPECT_EQ(serial->transient_failures, batched->transient_failures);
  EXPECT_EQ(serial->corpus_index_retries, batched->corpus_index_retries);
  EXPECT_EQ(serial->wasted_retries, batched->wasted_retries);
  EXPECT_EQ(serial->breaker_rejections, batched->breaker_rejections);
  EXPECT_EQ(serial->questions_deadline_skipped,
            batched->questions_deadline_skipped);
  EXPECT_EQ(serial->deadline_exhausted, batched->deadline_exhausted);
  EXPECT_EQ(serial->questions_by_degradation,
            batched->questions_by_degradation);
  ASSERT_EQ(serial->facts.size(), batched->facts.size());
  for (size_t i = 0; i < serial->facts.size(); ++i) {
    EXPECT_EQ(qa::StructuredFactsToCsv({serial->facts[i]}),
              qa::StructuredFactsToCsv({batched->facts[i]}))
        << "fact " << i;
    EXPECT_EQ(serial->facts[i].disposition, batched->facts[i].disposition)
        << "fact " << i;
  }
  // Even the per-stage deadline ledger matches: the parallel build charges
  // its indexation units in document order, as the serial build does.
  EXPECT_EQ(serial->health.budget_spent, batched->health.budget_spent);
  for (const FeedReport* r : {&*serial, &*batched}) {
    EXPECT_EQ(r->rows_loaded + r->rows_deduplicated + r->rows_quarantined,
              r->facts_extracted);
  }
}

}  // namespace
}  // namespace integration
}  // namespace dwqa
