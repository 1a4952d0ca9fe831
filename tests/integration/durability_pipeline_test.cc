#include <filesystem>
#include <memory>
#include <set>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/fault.h"
#include "common/io.h"
#include "common/metric_names.h"
#include "dw/recovery.h"
#include "dw/snapshot.h"
#include "integration/last_minute_sales.h"
#include "integration/pipeline.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace integration {
namespace {

namespace stdfs = std::filesystem;

const char kQ1[] = "What is the temperature in Barcelona in January of 2004?";
const char kQ2[] = "What is the temperature in Madrid in January of 2004?";

/// Every fact row rendered column-by-column — the comparison unit for
/// "recovery restores the byte-identical row set the live feed loaded".
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

/// Transient ETL faults retried once, without sleeping.
RetryPolicy EtlRetry() {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.sleep = false;
  return policy;
}

dw::RecoveryOptions BootstrapRecovery() {
  dw::RecoveryOptions options;
  options.bootstrap_schema = LastMinuteSales::MakeSchema();
  return options;
}

/// The real filesystem, except that every fsync fails while armed: by
/// path, and that of an open file (the WAL's commit sync).
class FailingSyncFs : public FaultFs {
 public:
  bool fail_syncs = false;

  Status SyncFile(const std::string& path) override {
    if (fail_syncs) return Status::IOError("injected fsync failure");
    return FaultFs::SyncFile(path);
  }

 protected:
  Status SyncOpenFile(const std::string& path, WritableFile* base) override {
    if (fail_syncs) return Status::IOError("injected fsync failure");
    return FaultFs::SyncOpenFile(path, base);
  }
};

class DurabilityPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    uml_ = LastMinuteSales::MakeUmlModel();
    web::WebConfig config;
    config.cities = {"Barcelona", "Madrid"};
    config.months = {1};
    web_ = std::make_unique<web::SyntheticWeb>(
        web::SyntheticWeb::Build(config).ValueOrDie());
    dir_ = stdfs::path(::testing::TempDir()) / (std::string("dwqa_durability_pipeline.") + std::to_string(::getpid()));
    stdfs::remove_all(dir_);
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string Dir() const { return dir_.string(); }

  PipelineConfig DurableConfig() {
    PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
    config.resilience.durability.dir = Dir();
    return config;
  }

  ontology::UmlModel uml_;
  std::unique_ptr<web::SyntheticWeb> web_;
  stdfs::path dir_;
};

/// The tentpole wiring, end to end: a durable feed logs every loaded fact
/// to the WAL before the warehouse sees it, a flush snapshots + garbage
/// collects, and Recovery::Open on the durability directory rebuilds the
/// byte-identical Weather row set.
TEST_F(DurabilityPipelineTest, FeedFlushRecoverRoundTrip) {
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  IntegrationPipeline p(&wh, &uml_, DurableConfig());
  ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
  auto report = p.RunStep5({kQ1, kQ2}, "Weather", "temperature");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->rows_loaded, 0u);

  // Every loaded row was WAL-logged first, and each question closed by
  // one commit record: one LSN per loaded row plus one per question, and
  // one sync per question.
  EXPECT_EQ(p.wal_last_lsn(), report->rows_loaded + 2);
  EXPECT_EQ(p.metrics()->Value(kMetricWalAppends),
            double(report->rows_loaded + 2));
  EXPECT_EQ(p.metrics()->Value(kMetricWalLastLsn),
            double(report->rows_loaded + 2));
  EXPECT_EQ(p.metrics()->Value(kMetricWalSyncs), 2.0);
  EXPECT_GT(p.metrics()->Value(kMetricWalAppendBytes), 0.0);

  // Flush: snapshot at the current LSN, covered segments dropped.
  ASSERT_TRUE(p.FlushDurability().ok());
  auto snapshots = dw::ListSnapshots(Dir()).ValueOrDie();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].lsn, p.wal_last_lsn());

  // A restarted process recovers the identical warehouse.
  dw::RecoveryOptions options;
  options.bootstrap_schema = LastMinuteSales::MakeSchema();
  auto recovered = dw::Recovery::Open(Dir(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->snapshot_lsn, p.wal_last_lsn());
  EXPECT_EQ(WeatherRows(recovered->warehouse), WeatherRows(wh));
  EXPECT_TRUE(recovered->quarantine.empty());
  // The snapshot's commit file carries the feed progress the dropped
  // segments held.
  EXPECT_EQ(recovered->commits, p.feed_progress());
  EXPECT_EQ(recovered->commits.questions.size(), 2u);

  auto fsck = dw::Fsck(Dir()).ValueOrDie();
  EXPECT_TRUE(fsck.clean())
      << (fsck.issues.empty() ? "" : fsck.issues[0]);
}

/// Without a flush, the WAL alone carries the state: cold-start replay
/// through the bootstrap schema rebuilds every loaded row.
TEST_F(DurabilityPipelineTest, WalOnlyReplayRestoresTheRows) {
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  IntegrationPipeline p(&wh, &uml_, DurableConfig());
  ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
  auto report = p.RunStep5({kQ1, kQ2}, "Weather", "temperature");
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->rows_loaded, 0u);

  dw::RecoveryOptions options;
  options.bootstrap_schema = LastMinuteSales::MakeSchema();
  auto recovered = dw::Recovery::Open(Dir(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->snapshot_lsn, 0u);
  EXPECT_EQ(recovered->replayed, report->rows_loaded);
  EXPECT_EQ(WeatherRows(recovered->warehouse), WeatherRows(wh));
}

/// A second RunStep5 on the same pipeline appends to the same log — LSNs
/// continue, and a question a durable commit completed is resumed, not
/// re-logged.
TEST_F(DurabilityPipelineTest, SecondBatchContinuesTheLogWithoutRelogging) {
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  IntegrationPipeline p(&wh, &uml_, DurableConfig());
  ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
  auto first = p.RunStep5({kQ1}, "Weather", "temperature");
  ASSERT_TRUE(first.ok());
  uint64_t lsn_after_first = p.wal_last_lsn();
  ASSERT_GT(lsn_after_first, 0u);

  // Re-asking the committed question resumes it: no new WAL records.
  auto again = p.RunStep5({kQ1}, "Weather", "temperature");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->questions_resumed, 1u);
  EXPECT_EQ(again->rows_loaded, 0u);
  EXPECT_EQ(p.wal_last_lsn(), lsn_after_first);

  // A genuinely new question extends the log by its facts and a commit.
  auto second = p.RunStep5({kQ2}, "Weather", "temperature");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(p.wal_last_lsn(), lsn_after_first + second->rows_loaded + 1);
}

/// A commit frames its question on one line, so a durable feed refuses a
/// batch holding an unframeable question before anything of it loads.
TEST_F(DurabilityPipelineTest, UnframeableQuestionIsRefusedBeforeAnyLoad) {
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  IntegrationPipeline p(&wh, &uml_, DurableConfig());
  ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
  auto report = p.RunStep5({kQ1, std::string(kQ2) + "\n"}, "Weather",
                           "temperature");
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument())
      << report.status().ToString();
  EXPECT_EQ(wh.FactRowCount("Weather").ValueOrDie(), 0u);
  EXPECT_EQ(p.wal_last_lsn(), 0u);
  // The refusal is not a durability failure: a clean batch still feeds.
  ASSERT_TRUE(p.RunStep5({kQ1}, "Weather", "temperature").ok());
}

/// Every ETL load fails until the retries run out: the live feed refuses
/// all the question's facts, so recovery — which replays only what a
/// commit covers and does not refuse — must leave the warehouse just as
/// empty, and the question re-askable.
TEST_F(DurabilityPipelineTest, LiveEqualsRecoveredWhenTheEtlRefusesEveryFact) {
  PipelineConfig config = DurableConfig();
  config.resilience.retry = EtlRetry();
  config.resilience.fault.rules.push_back(
      {kFaultPointEtlLoad, 1.0, FaultMode::kTransient,
       StatusCode::kUnavailable});
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  IntegrationPipeline p(&wh, &uml_, config);
  ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
  auto report = p.RunStep5({kQ1}, "Weather", "temperature");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->rows_rejected, 0u);
  ASSERT_EQ(report->rows_loaded, 0u);

  auto recovered = dw::Recovery::Open(Dir(), BootstrapRecovery());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(WeatherRows(recovered->warehouse), WeatherRows(wh));
  EXPECT_EQ(recovered->skipped_uncommitted, report->rows_rejected);
  EXPECT_EQ(recovered->commits, p.feed_progress());
  EXPECT_TRUE(recovered->commits.questions.empty());
}

/// The refused question, re-asked by a fresh pipeline once the ETL is
/// healthy, loads its keys: live and recovered hold each key exactly once.
TEST_F(DurabilityPipelineTest, ReaskedRefusedQuestionRecoversEachKeyOnce) {
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  {
    PipelineConfig faulty = DurableConfig();
    faulty.resilience.retry = EtlRetry();
    faulty.resilience.fault.rules.push_back(
        {kFaultPointEtlLoad, 1.0, FaultMode::kTransient,
         StatusCode::kUnavailable});
    IntegrationPipeline p(&wh, &uml_, faulty);
    ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
    auto report = p.RunStep5({kQ1}, "Weather", "temperature");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_GT(report->rows_rejected, 0u);
  }
  IntegrationPipeline p(&wh, &uml_, DurableConfig());
  ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
  auto again = p.RunStep5({kQ1}, "Weather", "temperature");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->questions_resumed, 0u);
  ASSERT_GT(again->rows_loaded, 0u);

  auto recovered = dw::Recovery::Open(Dir(), BootstrapRecovery());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::multiset<std::string> rows = WeatherRows(recovered->warehouse);
  EXPECT_EQ(rows, WeatherRows(wh));
  EXPECT_EQ(rows.size(), again->rows_loaded);
  EXPECT_EQ(std::set<std::string>(rows.begin(), rows.end()).size(),
            rows.size())
      << "a key was loaded twice";
  EXPECT_EQ(recovered->commits, p.feed_progress());
}

/// A commit whose sync fails fails the run: the log is cut back to the
/// last acknowledged question, the pipeline refuses to feed or flush
/// again, and recovery shows nothing of the failed question.
TEST_F(DurabilityPipelineTest,
       FailedCommitSyncFailsTheQuestionAndRecoversNothing) {
  FailingSyncFs fs;
  PipelineConfig config = DurableConfig();
  config.resilience.durability.fs = &fs;
  auto wh = LastMinuteSales::MakeWarehouse().ValueOrDie();
  IntegrationPipeline p(&wh, &uml_, config);
  ASSERT_TRUE(p.RunAll(&web_->documents()).ok());
  auto first = p.RunStep5({kQ1}, "Weather", "temperature");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(first->rows_loaded, 0u);
  const std::multiset<std::string> committed_rows = WeatherRows(wh);

  fs.fail_syncs = true;
  auto failed = p.RunStep5({kQ2}, "Weather", "temperature");
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find(kQ2), std::string::npos)
      << failed.status().ToString();
  // The warehouse is ahead of the log now: nothing more goes through.
  fs.fail_syncs = false;
  EXPECT_FALSE(p.RunStep5({kQ2}, "Weather", "temperature").ok());
  EXPECT_FALSE(p.FlushDurability().ok());

  auto recovered = dw::Recovery::Open(Dir(), BootstrapRecovery());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(WeatherRows(recovered->warehouse), committed_rows);
  EXPECT_EQ(recovered->commits.questions, std::set<std::string>{kQ1});
  EXPECT_TRUE(dw::Fsck(Dir()).ValueOrDie().clean());
}

}  // namespace
}  // namespace integration
}  // namespace dwqa
