#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>
#include <unistd.h>

#include "dw/recovery.h"
#include "integration/last_minute_sales.h"
#include "integration/pipeline.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace integration {
namespace {

const char kQ1[] = "What is the temperature in Barcelona in January of 2004?";
const char kQ2[] = "What is the temperature in Madrid in January of 2004?";

/// No real sleeping in tests: the backoff schedule is still computed and
/// counted, only the waiting is skipped.
RetryPolicy FastRetry() {
  RetryPolicy policy;
  policy.sleep = false;
  return policy;
}

/// Every fact row rendered column-by-column — the comparison unit for
/// "the faulty run loads the identical row set".
std::multiset<std::string> WeatherRows(const dw::Warehouse& wh) {
  const dw::Table* table = wh.FactTable("Weather").ValueOrDie();
  std::multiset<std::string> rows;
  for (size_t r = 0; r < table->row_count(); ++r) {
    std::string row;
    for (size_t c = 0; c < table->column_count(); ++c) {
      row += table->Get(r, c).ToString() + "|";
    }
    rows.insert(row);
  }
  return rows;
}

/// Number of (location, day) dedup keys that appear on more than one row.
size_t DuplicatedFeedKeys(const dw::Warehouse& wh) {
  const dw::Table* table = wh.FactTable("Weather").ValueOrDie();
  size_t loc = table->ColumnIndex("fk_location").ValueOrDie();
  size_t day = table->ColumnIndex("fk_day").ValueOrDie();
  std::map<std::pair<int64_t, int64_t>, size_t> seen;
  size_t duplicated = 0;
  for (size_t r = 0; r < table->row_count(); ++r) {
    if (++seen[{table->Get(r, loc).as_int(),
                table->Get(r, day).as_int()}] == 2) {
      ++duplicated;
    }
  }
  return duplicated;
}

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    uml_ = LastMinuteSales::MakeUmlModel();
    web::WebConfig config;
    config.cities = {"Barcelona", "Madrid"};
    config.months = {1};
    web_ = std::make_unique<web::SyntheticWeb>(
        web::SyntheticWeb::Build(config).ValueOrDie());
  }

  /// Builds a fresh warehouse + pipeline, runs Steps 1–4 + indexation and
  /// one Step-5 batch over both questions.
  Result<FeedReport> Feed(dw::Warehouse* wh, const ResilienceConfig& res) {
    PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
    config.resilience = res;
    IntegrationPipeline p(wh, &uml_, config);
    DWQA_RETURN_NOT_OK(p.RunAll(&web_->documents()));
    return p.RunStep5({kQ1, kQ2}, "Weather", "temperature");
  }

  ontology::UmlModel uml_;
  std::unique_ptr<web::SyntheticWeb> web_;
};

TEST_F(ResilienceTest, TwentyPercentFaultRateLoadsTheIdenticalRowSet) {
  auto clean_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto clean = Feed(&clean_wh, ResilienceConfig{});
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean->rows_loaded, 0u);
  EXPECT_EQ(clean->retries, 0u);

  ResilienceConfig faulty_res;
  faulty_res.fault = FaultConfig::TransientEverywhere(0.2, 7);
  faulty_res.retry = FastRetry();
  auto faulty_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto faulty = Feed(&faulty_wh, faulty_res);
  ASSERT_TRUE(faulty.ok());

  // The retries fully mask a 20% transient fault rate: same questions
  // answered, same rows loaded, byte-identical fact table.
  EXPECT_EQ(faulty->questions_answered, clean->questions_answered);
  EXPECT_EQ(faulty->questions_failed, 0u);
  EXPECT_EQ(faulty->rows_loaded, clean->rows_loaded);
  EXPECT_EQ(WeatherRows(faulty_wh), WeatherRows(clean_wh));
  // ... and the masking was real work, visible in the report.
  EXPECT_GT(faulty->retries, 0u);
  EXPECT_GT(faulty->transient_failures, 0u);
  EXPECT_EQ(faulty->rows_loaded + faulty->rows_deduplicated +
                faulty->rows_quarantined,
            faulty->facts_extracted);
}

TEST_F(ResilienceTest, FaultScheduleIsDeterministic) {
  ResilienceConfig res;
  res.fault = FaultConfig::TransientEverywhere(0.2, 7);
  res.retry = FastRetry();
  auto wh_a = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto wh_b = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto a = Feed(&wh_a, res);
  auto b = Feed(&wh_b, res);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->retries, b->retries);
  EXPECT_EQ(a->transient_failures, b->transient_failures);
  EXPECT_EQ(WeatherRows(wh_a), WeatherRows(wh_b));
}

TEST_F(ResilienceTest, PermanentFetchFaultsFailQuestionsFast) {
  ResilienceConfig res;
  res.fault.rules.push_back({kFaultPointFetch, 1.0, FaultMode::kTransient,
                             StatusCode::kInternal});
  res.retry = FastRetry();
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  auto report = Feed(&wh, res);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->questions_failed, 2u);
  EXPECT_EQ(report->questions_answered, 0u);
  EXPECT_EQ(report->facts_extracted, 0u);
  // Permanent errors never enter the retry loop.
  EXPECT_EQ(report->retries, 0u);
  EXPECT_EQ(wh.FactRowCount("Weather").ValueOrDie(), 0u);
}

TEST_F(ResilienceTest, ExhaustedEtlRetriesQuarantineTheFacts) {
  ResilienceConfig res;
  res.fault.rules.push_back({kFaultPointEtlLoad, 1.0, FaultMode::kTransient,
                             StatusCode::kUnavailable});
  res.retry = FastRetry();
  res.retry.max_attempts = 2;
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();

  PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
  config.resilience = res;
  IntegrationPipeline p(&wh, &uml_, config);
  ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
  auto report = p.RunStep5({kQ1}, "Weather", "temperature");
  ASSERT_TRUE(report.ok());

  EXPECT_GT(report->facts_extracted, 0u);
  EXPECT_EQ(report->rows_loaded, 0u);
  EXPECT_EQ(wh.FactRowCount("Weather").ValueOrDie(), 0u);
  // Every fact that reached the ETL died there and went to the quarantine
  // as TransientExhausted; the accounting identity still balances.
  EXPECT_GT(report->rows_rejected, 0u);
  EXPECT_EQ(report->rows_quarantined,
            report->facts_extracted - report->rows_deduplicated);
  EXPECT_EQ(report->quarantined_by_reason
                .at(qa::RejectReason::kTransientExhausted),
            report->rows_rejected);
  for (const dw::QuarantineRecord& record : p.quarantine().records()) {
    EXPECT_EQ(record.reason, "TransientExhausted");
    EXPECT_FALSE(record.detail.empty());
  }
}

TEST_F(ResilienceTest, StrictFeedAxiomsQuarantineWithTypedReasons) {
  // The feed boundary can be stricter than the extraction-side axioms:
  // admit only temperatures up to 8 ºC. Barcelona's January mean is ~9 ºC,
  // Madrid's ~6 ºC, so the batch deterministically splits into loaded and
  // quarantined facts.
  PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
  qa::AttributeRule strict;
  strict.min_value = -90.0;
  strict.max_value = 8.0;
  config.resilience.validator_rules["temperature"] = strict;

  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  IntegrationPipeline p(&wh, &uml_, config);
  ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
  auto report = p.RunStep5({kQ1, kQ2}, "Weather", "temperature");
  ASSERT_TRUE(report.ok());

  EXPECT_GT(report->rows_loaded, 0u);
  EXPECT_GT(report->rows_quarantined, 0u);
  EXPECT_GT(report->quarantined_by_reason
                .at(qa::RejectReason::kValueOutOfRange),
            0u);
  // Quarantined facts never reach the warehouse.
  EXPECT_EQ(wh.FactRowCount("Weather").ValueOrDie(), report->rows_loaded);
  EXPECT_EQ(report->rows_loaded + report->rows_deduplicated +
                report->rows_quarantined,
            report->facts_extracted);

  // Every quarantined record carries a typed, parseable reason plus the
  // §4.2 provenance URL.
  ASSERT_EQ(p.quarantine().size(), report->rows_quarantined);
  for (const dw::QuarantineRecord& record : p.quarantine().records()) {
    EXPECT_TRUE(qa::RejectReasonFromName(record.reason).ok())
        << record.reason;
    EXPECT_FALSE(record.url.empty());
  }
  // The per-reason counters agree between the report and the store.
  auto counts = p.quarantine().CountsByReason();
  for (const auto& [reason, count] : report->quarantined_by_reason) {
    EXPECT_EQ(counts[qa::RejectReasonName(reason)], count);
  }

  // The CSV export lists each record with its reason.
  std::string path = testing::TempDir() + "resilience_quarantine.csv";
  ASSERT_TRUE(p.quarantine().SaveCsv(path).ok());
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("reason"), std::string::npos);
  size_t data_lines = 0;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) ++data_lines;
  }
  EXPECT_EQ(data_lines, report->rows_quarantined);
  std::remove(path.c_str());
}

TEST_F(ResilienceTest, CheckpointResumeLoadsEachKeyExactlyOnce) {
  const std::string dir = testing::TempDir() + "resilience_feed_wal." +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);

  PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
  config.resilience.retry = FastRetry();
  config.resilience.durability.dir = dir;

  // First run: "crashes" after the first question (we simply never hand it
  // the second one). Its commit survives in the WAL.
  size_t rows_first = 0;
  {
    auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
    IntegrationPipeline p(&wh, &uml_, config);
    ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
    auto report = p.RunStep5({kQ1}, "Weather", "temperature");
    ASSERT_TRUE(report.ok());
    rows_first = report->rows_loaded;
    ASSERT_GT(rows_first, 0u);
  }

  // Second run: the restarted process recovers the warehouse, and a fresh
  // pipeline on the same WAL resumes — the committed question is skipped,
  // its rows are not re-loaded, and the full batch completes.
  dw::RecoveryOptions options;
  options.bootstrap_schema = LastMinuteSales::MakeSchema();
  auto recovered = dw::Recovery::Open(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  dw::Warehouse& wh = recovered->warehouse;
  ASSERT_EQ(wh.FactRowCount("Weather").ValueOrDie(), rows_first);
  {
    IntegrationPipeline p(&wh, &uml_, config);
    ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
    auto report = p.RunStep5({kQ1, kQ2}, "Weather", "temperature");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->questions_resumed, 1u);
    EXPECT_EQ(report->questions_asked, 1u);
    EXPECT_GT(report->rows_loaded, 0u);
    EXPECT_EQ(wh.FactRowCount("Weather").ValueOrDie(),
              rows_first + report->rows_loaded);
  }

  // No (location, day) key was fed twice...
  EXPECT_EQ(DuplicatedFeedKeys(wh), 0u);

  // ... and the interrupted-and-resumed warehouse matches an uninterrupted
  // run row for row.
  auto whole_wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  ResilienceConfig plain;
  plain.retry = FastRetry();
  auto whole = Feed(&whole_wh, plain);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(WeatherRows(wh), WeatherRows(whole_wh));
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceTest, CheckpointRoundTripsThroughThePipeline) {
  const std::string dir = testing::TempDir() + "resilience_roundtrip_wal." +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
  config.resilience.retry = FastRetry();
  config.resilience.durability.dir = dir;

  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  IntegrationPipeline p(&wh, &uml_, config);
  ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
  auto report = p.RunStep5({kQ1}, "Weather", "temperature");
  ASSERT_TRUE(report.ok());

  // The in-memory progress and the one the commit records make durable —
  // through the log, and through a snapshot's commit file — are the same.
  const dw::CommitSet& in_memory = p.feed_progress();
  EXPECT_EQ(in_memory.questions.count(kQ1), 1u);
  EXPECT_EQ(in_memory.fed_keys.size(), report->rows_loaded);
  EXPECT_EQ(dw::ReadCommitSet(dir).ValueOrDie(), in_memory);
  ASSERT_TRUE(p.FlushDurability().ok());
  EXPECT_EQ(dw::ReadCommitSet(dir).ValueOrDie(), in_memory);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace integration
}  // namespace dwqa
