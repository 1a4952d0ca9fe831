// Serial↔batched equivalence of the Step-5 feed (threads label: the CI
// TSan job runs this under DWQA_SANITIZE=thread). parallel_questions > 1
// speculates Ask() on a pool but must keep every FeedReport counter, every
// warehouse row and the per-stage deadline ledger byte-identical to the
// serial loop; the chaos-label counterpart with injected faults lives in
// chaos_pipeline_test.cc.

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "dw/recovery.h"
#include "integration/last_minute_sales.h"
#include "integration/pipeline.h"
#include "web/question_factory.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace integration {
namespace {

/// Fact rows with surrogate keys resolved to member names (surrogate ids
/// depend on load order; resolved rows are the comparable identity).
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

void ExpectReportsIdentical(const FeedReport& a, const FeedReport& b) {
  EXPECT_EQ(a.questions_asked, b.questions_asked);
  EXPECT_EQ(a.questions_answered, b.questions_answered);
  EXPECT_EQ(a.questions_failed, b.questions_failed);
  EXPECT_EQ(a.questions_resumed, b.questions_resumed);
  EXPECT_EQ(a.facts_extracted, b.facts_extracted);
  EXPECT_EQ(a.rows_loaded, b.rows_loaded);
  EXPECT_EQ(a.rows_deduplicated, b.rows_deduplicated);
  EXPECT_EQ(a.rows_quarantined, b.rows_quarantined);
  EXPECT_EQ(a.rows_rejected, b.rows_rejected);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.transient_failures, b.transient_failures);
  EXPECT_EQ(a.questions_by_degradation, b.questions_by_degradation);
  EXPECT_EQ(a.health.budget_spent, b.health.budget_spent);
  ASSERT_EQ(a.facts.size(), b.facts.size());
  for (size_t i = 0; i < a.facts.size(); ++i) {
    EXPECT_EQ(qa::StructuredFactsToCsv({a.facts[i]}),
              qa::StructuredFactsToCsv({b.facts[i]}))
        << "fact " << i;
    EXPECT_EQ(a.facts[i].disposition, b.facts[i].disposition) << "fact " << i;
  }
}

class ParallelFeedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    uml_ = LastMinuteSales::MakeUmlModel();
    web::WebConfig config;
    config.cities = {"Barcelona", "Madrid"};
    config.months = {1};
    config.table_weather = false;
    web_ = std::make_unique<web::SyntheticWeb>(
        web::SyntheticWeb::Build(config).ValueOrDie());
    for (const web::GoldQuestion& gq :
         web::QuestionFactory::WeatherQuestions(*web_)) {
      questions_.push_back(gq.question);
    }
    ASSERT_GE(questions_.size(), 2u);
  }

  PipelineConfig MakeConfig(size_t parallel) const {
    PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
    config.qa.max_answers = 10;
    config.qa.passages_to_analyze = 8;
    config.qa.threads = parallel;
    config.parallel_questions = parallel;
    config.resilience.retry.sleep = false;
    return config;
  }

  Result<FeedReport> Feed(dw::Warehouse* wh, PipelineConfig config,
                          IntegrationPipeline** out_pipeline = nullptr) {
    pipeline_ = std::make_unique<IntegrationPipeline>(wh, &uml_, config);
    if (out_pipeline != nullptr) *out_pipeline = pipeline_.get();
    DWQA_RETURN_NOT_OK(pipeline_->RunAll(&web_->documents()));
    return pipeline_->RunStep5(questions_, "Weather", "temperature");
  }

  ontology::UmlModel uml_;
  std::unique_ptr<web::SyntheticWeb> web_;
  std::vector<std::string> questions_;
  std::unique_ptr<IntegrationPipeline> pipeline_;
};

TEST_F(ParallelFeedTest, BatchedFeedMatchesSerialFeedExactly) {
  auto serial_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto serial = Feed(&serial_wh, MakeConfig(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_GT(serial->rows_loaded, 0u);

  auto batched_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto batched = Feed(&batched_wh, MakeConfig(4));
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  EXPECT_EQ(WeatherRows(serial_wh), WeatherRows(batched_wh));
  ExpectReportsIdentical(*serial, *batched);
}

TEST_F(ParallelFeedTest, MoreWorkersThanQuestionsStillMatchSerial) {
  auto serial_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto serial = Feed(&serial_wh, MakeConfig(1));
  ASSERT_TRUE(serial.ok());

  auto batched_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto batched = Feed(&batched_wh, MakeConfig(16));
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(WeatherRows(serial_wh), WeatherRows(batched_wh));
  ExpectReportsIdentical(*serial, *batched);
}

TEST_F(ParallelFeedTest, FiniteBudgetFallsBackToTheSerialPath) {
  // With a finite deadline, parallel_questions is ignored (mid-batch
  // exhaustion is order-dependent) — the run must behave exactly like the
  // same budget with parallel_questions=1.
  PipelineConfig serial_config = MakeConfig(1);
  serial_config.resilience.deadline.budget = 500.0;
  auto serial_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto serial = Feed(&serial_wh, serial_config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  PipelineConfig batched_config = MakeConfig(4);
  batched_config.qa.threads = 1;  // Isolate the Step-5 knob.
  batched_config.resilience.deadline.budget = 500.0;
  auto batched_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto batched = Feed(&batched_wh, batched_config);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  EXPECT_EQ(WeatherRows(serial_wh), WeatherRows(batched_wh));
  EXPECT_EQ(serial->deadline_exhausted, batched->deadline_exhausted);
  EXPECT_EQ(serial->questions_deadline_skipped,
            batched->questions_deadline_skipped);
  ExpectReportsIdentical(*serial, *batched);
}

TEST_F(ParallelFeedTest, BatchedResumeSkipsCompletedQuestions) {
  // First run feeds everything through a WAL; the batched run over the
  // recovered warehouse must not re-ask (or re-speculate) a question a
  // durable commit completed.
  const std::string dir = testing::TempDir() + "parallel_feed_wal." +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  PipelineConfig config = MakeConfig(4);
  config.resilience.durability.dir = dir;
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto first = Feed(&wh, config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->questions_resumed, 0u);
  ASSERT_GT(first->rows_loaded, 0u);

  dw::RecoveryOptions options;
  options.bootstrap_schema = LastMinuteSales::MakeSchema();
  auto recovered = dw::Recovery::Open(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto resumed = Feed(&recovered->warehouse, config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->questions_resumed, questions_.size());
  EXPECT_EQ(resumed->questions_asked, 0u);
  EXPECT_EQ(resumed->rows_loaded, 0u);
  EXPECT_EQ(recovered->warehouse.FactRowCount("Weather").ValueOrDie(),
            wh.FactRowCount("Weather").ValueOrDie());
  pipeline_.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace integration
}  // namespace dwqa
