// Golden-equivalence suite for the segmented-index refactor at the QA
// level: every segment layout — monolithic memtable, one-doc segments,
// aggressive merging, a parallel sharded build — must answer
// byte-identically over the full question-factory set, and incremental
// ingest must be indistinguishable from having indexed the whole corpus up
// front.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/document.h"
#include "ontology/enrichment.h"
#include "ontology/wordnet.h"
#include "qa/aliqan.h"
#include "qa/structured.h"
#include "web/question_factory.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace qa {
namespace {

/// Full-fidelity rendering of an AnswerSet (mirrors the AnalyzedCorpus
/// golden suite): drift across segment layouts must show as a string diff.
std::string Serialize(const AnswerSet& set) {
  std::ostringstream out;
  out.precision(17);
  out << "type=" << static_cast<int>(set.analysis.answer_type)
      << " degradation=" << static_cast<int>(set.degradation)
      << " reason=" << set.unanswered_reason
      << " sentences=" << set.sentences_analyzed << "\n";
  for (const std::string& p : set.passages) out << "P|" << p << "\n";
  for (const AnswerCandidate& a : set.answers) {
    out << "A|" << a.answer_text << "|" << static_cast<int>(a.type) << "|"
        << a.score << "|" << static_cast<int>(a.level) << "|" << a.sentence
        << "|" << a.doc << "|" << a.url << "|" << a.has_value << "|"
        << a.value << "|" << a.unit << "|"
        << (a.date.has_value() ? a.date->ToIsoString() : "-") << "|"
        << a.date_complete << "|" << a.location << "\n";
  }
  return out.str();
}

class SegmentedEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    web::WebConfig config;
    config.cities = {"Barcelona", "Madrid"};
    config.months = {1};
    web_ = std::make_unique<web::SyntheticWeb>(
        web::SyntheticWeb::Build(config).ValueOrDie());
    wn_ = ontology::MiniWordNet::Build();
    std::vector<ontology::InstanceSeed> seeds = {
        {"El Prat", {}, "Barcelona", ""}};
    ASSERT_TRUE(ontology::Enricher::Enrich(&wn_, "airport", seeds).ok());
  }

  AliQAnConfig BaseConfig() const {
    AliQAnConfig config;
    config.degradation.enable_relaxed = true;
    config.degradation.enable_ir_only = true;
    return config;
  }

  /// Asks every question against both systems and asserts byte-identical
  /// answer sets and structured-fact CSVs.
  void ExpectIdentical(AliQAn* a, AliQAn* b,
                       const std::vector<web::GoldQuestion>& questions) {
    for (const web::GoldQuestion& gq : questions) {
      Result<AnswerSet> ra = a->Ask(gq.question);
      Result<AnswerSet> rb = b->Ask(gq.question);
      ASSERT_EQ(ra.ok(), rb.ok()) << gq.question;
      if (!ra.ok()) continue;
      EXPECT_EQ(Serialize(*ra), Serialize(*rb)) << gq.question;
      EXPECT_EQ(StructuredFactsToCsv(ToStructuredFacts(*ra, "temperature")),
                StructuredFactsToCsv(ToStructuredFacts(*rb, "temperature")))
          << gq.question;
    }
  }

  std::vector<web::GoldQuestion> AllQuestions() const {
    std::vector<web::GoldQuestion> questions =
        web::QuestionFactory::ClefStyleQuestions();
    for (const web::GoldQuestion& gq :
         web::QuestionFactory::WeatherQuestions(*web_)) {
      questions.push_back(gq);
    }
    return questions;
  }

  std::unique_ptr<web::SyntheticWeb> web_;
  ontology::Ontology wn_;
};

TEST_F(SegmentedEquivalenceTest, SegmentLayoutsAnswerIdentically) {
  AliQAnConfig monolithic_config = BaseConfig();
  monolithic_config.index_options.seal_every = 0;  // Pure memtable.
  AliQAn monolithic(&wn_, monolithic_config);
  ASSERT_TRUE(monolithic.IndexCorpus(&web_->documents()).ok());
  EXPECT_EQ(monolithic.document_index().sealed_segment_count(), 0u);

  // Default layout, one-doc segments, and aggressive merging must all
  // produce the same postings dump and the same answers.
  std::vector<AliQAnConfig> layouts;
  layouts.push_back(BaseConfig());
  layouts.push_back(BaseConfig());
  layouts.back().index_options.seal_every = 1;
  layouts.push_back(BaseConfig());
  layouts.back().index_options.seal_every = 2;
  layouts.back().index_options.merge_trigger = 2;
  layouts.back().index_options.block_postings = 4;
  for (const AliQAnConfig& config : layouts) {
    AliQAn segmented(&wn_, config);
    ASSERT_TRUE(segmented.IndexCorpus(&web_->documents()).ok());
    EXPECT_EQ(segmented.document_index().DebugString(),
              monolithic.document_index().DebugString());
    EXPECT_EQ(segmented.passage_index().DebugString(),
              monolithic.passage_index().DebugString());
    ExpectIdentical(&segmented, &monolithic, AllQuestions());
  }
}

TEST_F(SegmentedEquivalenceTest, ParallelShardedBuildMatchesSerialBuild) {
  AliQAnConfig serial_config = BaseConfig();
  AliQAnConfig parallel_config = BaseConfig();
  parallel_config.threads = 4;
  AliQAn serial(&wn_, serial_config);
  AliQAn parallel(&wn_, parallel_config);
  ASSERT_TRUE(serial.IndexCorpus(&web_->documents()).ok());
  ASSERT_TRUE(parallel.IndexCorpus(&web_->documents()).ok());
  // The parallel path seals one segment per shard instead of filling the
  // memtable, so the manifests differ — but the canonical dump and the
  // answers may not.
  EXPECT_EQ(serial.document_index().DebugString(),
            parallel.document_index().DebugString());
  EXPECT_EQ(serial.passage_index().DebugString(),
            parallel.passage_index().DebugString());
  ExpectIdentical(&parallel, &serial, AllQuestions());
}

TEST_F(SegmentedEquivalenceTest, IncrementalIngestMatchesFullRebuild) {
  const auto& all = web_->documents().documents();
  ASSERT_GE(all.size(), 4u);
  const size_t initial = all.size() - 2;

  // System A: index a prefix, then append the rest through the ingest path.
  ir::DocumentStore growing;
  for (size_t i = 0; i < initial; ++i) {
    growing.Add(all[i].url, all[i].title, all[i].format, all[i].raw);
  }
  AliQAn incremental(&wn_, BaseConfig());
  ASSERT_TRUE(incremental.IndexCorpus(&growing).ok());
  Result<size_t> none = incremental.IngestNewDocuments();
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);  // Nothing new yet.
  for (size_t i = initial; i < all.size(); ++i) {
    growing.Add(all[i].url, all[i].title, all[i].format, all[i].raw);
  }
  Result<size_t> ingested = incremental.IngestNewDocuments();
  ASSERT_TRUE(ingested.ok());
  EXPECT_EQ(*ingested, 2u);

  // System B: everything indexed up front.
  AliQAn rebuilt(&wn_, BaseConfig());
  ASSERT_TRUE(rebuilt.IndexCorpus(&web_->documents()).ok());

  EXPECT_EQ(incremental.document_index().document_count(),
            rebuilt.document_index().document_count());
  EXPECT_EQ(incremental.document_index().DebugString(),
            rebuilt.document_index().DebugString());
  EXPECT_EQ(incremental.passage_index().DebugString(),
            rebuilt.passage_index().DebugString());
  ExpectIdentical(&incremental, &rebuilt, AllQuestions());
}

TEST_F(SegmentedEquivalenceTest, IngestBeforeIndexCorpusIsAnError) {
  AliQAn fresh(&wn_, BaseConfig());
  Result<size_t> ingested = fresh.IngestNewDocuments();
  EXPECT_FALSE(ingested.ok());
}

}  // namespace
}  // namespace qa
}  // namespace dwqa
