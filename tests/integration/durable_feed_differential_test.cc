// Seeded differential sequences over the durable Step-5 feed: random
// RunStep5 batches under random ETL fault rates, interleaved with
// FlushDurability and restarts (Recovery::Open plus a fresh pipeline on the
// same durability root). After every step the recovered warehouse must
// equal the live one, the restored commit set must equal the live feed
// progress, and no key may ever be loaded twice. A final clean pass must
// leave exactly the key set of an uninterrupted, fault-free feed.

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/fault.h"
#include "common/rng.h"
#include "dw/recovery.h"
#include "integration/last_minute_sales.h"
#include "integration/pipeline.h"
#include "web/question_factory.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace integration {
namespace {

namespace stdfs = std::filesystem;

/// Fact rows with the surrogate keys resolved to member names, so a
/// warehouse rebuilt in another load order still compares.
std::multiset<std::string> WeatherRows(const dw::Warehouse& wh) {
  const dw::Table* table = wh.FactTable("Weather").ValueOrDie();
  size_t loc = table->ColumnIndex("fk_location").ValueOrDie();
  size_t day = table->ColumnIndex("fk_day").ValueOrDie();
  size_t src = table->ColumnIndex("fk_source").ValueOrDie();
  size_t temp = table->ColumnIndex("TemperatureC").ValueOrDie();
  std::multiset<std::string> rows;
  for (size_t r = 0; r < table->row_count(); ++r) {
    auto name = [&](const char* dim, size_t col, const char* level) {
      return wh
          .MemberLevelValue(dim, dw::MemberId(table->Get(r, col).as_int()),
                            level)
          .ValueOrDie();
    };
    rows.insert(name("City", loc, "City") + "|" + name("Date", day, "Date") +
                "|" + name("Source", src, "Url") + "|" +
                table->Get(r, temp).ToString());
  }
  return rows;
}

/// The (city, date) key of every row, with multiplicity.
std::multiset<std::string> WeatherKeys(const dw::Warehouse& wh) {
  std::multiset<std::string> keys;
  for (const std::string& row : WeatherRows(wh)) {
    const size_t second_bar = row.find('|', row.find('|') + 1);
    keys.insert(row.substr(0, second_bar));
  }
  return keys;
}

class DurableFeedDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    uml_ = LastMinuteSales::MakeUmlModel();
    web::WebConfig config;
    config.cities = {"Barcelona", "Madrid"};
    config.months = {1, 2};
    web_ = std::make_unique<web::SyntheticWeb>(
        web::SyntheticWeb::Build(config).ValueOrDie());
    for (const web::GoldQuestion& gq :
         web::QuestionFactory::WeatherQuestions(*web_)) {
      questions_.push_back(gq.question);
    }
    ASSERT_GE(questions_.size(), 4u);
    dir_ = stdfs::path(::testing::TempDir()) /
           ("dwqa_durable_feed_diff." + std::to_string(::getpid()) + "." +
            std::to_string(GetParam()));
    stdfs::remove_all(dir_);
  }
  void TearDown() override {
    pipeline_.reset();
    stdfs::remove_all(dir_);
  }

  /// A fresh pipeline over `wh` on the test's durability root, with every
  /// ETL load failing at `etl_fault_rate` (retried once).
  void StartPipeline(dw::Warehouse* wh, double etl_fault_rate,
                     uint64_t fault_seed) {
    PipelineConfig config = LastMinuteSales::DefaultPipelineConfig();
    config.resilience.durability.dir = dir_.string();
    config.resilience.retry.max_attempts = 2;
    config.resilience.retry.sleep = false;
    config.resilience.fault.seed = fault_seed;
    if (etl_fault_rate > 0.0) {
      config.resilience.fault.rules.push_back(
          {kFaultPointEtlLoad, etl_fault_rate, FaultMode::kTransient,
           StatusCode::kUnavailable});
    }
    pipeline_ = std::make_unique<IntegrationPipeline>(wh, &uml_, config);
    ASSERT_TRUE(pipeline_->RunAll(&web_->documents()).ok());
    fed_since_start_ = false;
  }

  void Feed(const std::vector<std::string>& batch) {
    auto report = pipeline_->RunStep5(batch, "Weather", "temperature");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    fed_since_start_ = true;
  }

  /// The three per-step oracles.
  void ExpectDurableEqualsLive(const dw::Warehouse& live,
                               const std::string& context) {
    dw::RecoveryOptions options;
    options.bootstrap_schema = LastMinuteSales::MakeSchema();
    auto recovered = dw::Recovery::Open(dir_.string(), options);
    ASSERT_TRUE(recovered.ok())
        << context << ": " << recovered.status().ToString();
    EXPECT_EQ(WeatherRows(recovered->warehouse), WeatherRows(live))
        << context;
    EXPECT_EQ(dw::ReadCommitSet(dir_.string()).ValueOrDie(),
              recovered->commits)
        << context;
    // A pipeline reads the durable progress when its first feed opens the
    // WAL; from then on its live progress must track the log exactly.
    if (fed_since_start_) {
      EXPECT_EQ(recovered->commits, pipeline_->feed_progress()) << context;
    }
    std::multiset<std::string> keys = WeatherKeys(live);
    EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
              keys.size())
        << context << ": a key was loaded twice";
  }

  ontology::UmlModel uml_;
  std::unique_ptr<web::SyntheticWeb> web_;
  std::vector<std::string> questions_;
  stdfs::path dir_;
  std::unique_ptr<IntegrationPipeline> pipeline_;
  bool fed_since_start_ = false;
};

TEST_P(DurableFeedDifferentialTest, RecoveredEqualsLiveAfterEveryStep) {
  Rng rng(GetParam());
  const double kFaultRates[] = {0.0, 0.3, 1.0};
  std::unique_ptr<dw::Warehouse> live = std::make_unique<dw::Warehouse>(
      LastMinuteSales::MakeWarehouse().ValueOrDie());
  StartPipeline(live.get(), kFaultRates[rng.NextIndex(3)], rng.Next());

  for (int step = 0; step < 14; ++step) {
    std::string context = "seed " + std::to_string(GetParam()) + " step " +
                          std::to_string(step);
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {
        std::vector<std::string> batch;
        const size_t size = 1 + rng.NextBelow(3);
        for (size_t i = 0; i < size; ++i) {
          batch.push_back(questions_[rng.NextIndex(questions_.size())]);
        }
        context += " feed";
        Feed(batch);
        break;
      }
      case 2:
        context += " flush";
        ASSERT_TRUE(pipeline_->FlushDurability().ok()) << context;
        break;
      default: {
        context += " restart";
        pipeline_.reset();
        dw::RecoveryOptions options;
        options.bootstrap_schema = LastMinuteSales::MakeSchema();
        auto recovered = dw::Recovery::Open(dir_.string(), options);
        ASSERT_TRUE(recovered.ok()) << context;
        live = std::make_unique<dw::Warehouse>(
            std::move(recovered->warehouse));
        StartPipeline(live.get(), kFaultRates[rng.NextIndex(3)], rng.Next());
        break;
      }
    }
    if (HasFatalFailure()) return;
    ExpectDurableEqualsLive(*live, context);
  }

  // Restart into a healthy ETL and feed everything: the refused facts get
  // their retry, the completed questions resume, and the warehouse ends up
  // with exactly the keys of one uninterrupted, fault-free feed.
  pipeline_.reset();
  dw::RecoveryOptions options;
  options.bootstrap_schema = LastMinuteSales::MakeSchema();
  auto recovered = dw::Recovery::Open(dir_.string(), options);
  ASSERT_TRUE(recovered.ok());
  live = std::make_unique<dw::Warehouse>(std::move(recovered->warehouse));
  StartPipeline(live.get(), 0.0, 1);
  Feed(questions_);
  ExpectDurableEqualsLive(*live, "final clean pass");

  auto reference = LastMinuteSales::MakeWarehouse().ValueOrDie();
  {
    IntegrationPipeline clean(&reference, &uml_,
                              LastMinuteSales::DefaultPipelineConfig());
    ASSERT_TRUE(clean.RunAll(&web_->documents()).ok());
    ASSERT_TRUE(clean.RunStep5(questions_, "Weather", "temperature").ok());
  }
  EXPECT_EQ(WeatherKeys(*live), WeatherKeys(reference));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DurableFeedDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace integration
}  // namespace dwqa
