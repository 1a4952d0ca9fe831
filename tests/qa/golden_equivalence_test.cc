// Golden-equivalence suite for the AnalyzedCorpus refactor: the cached
// indexation-time analysis path must answer byte-identically to the
// reanalyze_per_question ablation (the pre-refactor per-question behaviour)
// over the full question-factory set — every answer field, every structured
// fact. The chaos-label fault-injection counterpart lives in
// tests/integration/chaos_pipeline_test.cc.

#include <string>

#include <gtest/gtest.h>

#include "ontology/enrichment.h"
#include "ontology/wordnet.h"
#include "qa/aliqan.h"
#include "qa/structured.h"
#include "tests/qa/answer_set_render.h"
#include "web/question_factory.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace qa {
namespace {

class GoldenEquivalenceTest : public ::testing::Test {
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

  AliQAnConfig ModeConfig(bool reanalyze) const {
    AliQAnConfig config;
    // Both ladder rungs on, so the relaxed-pattern and IR-only fallback
    // paths are part of the equivalence contract too.
    config.degradation.enable_relaxed = true;
    config.degradation.enable_ir_only = true;
    config.reanalyze_per_question = reanalyze;
    return config;
  }

  /// Asks every question in both modes and asserts byte-identical answer
  /// sets and structured-fact CSVs.
  void ExpectModesIdentical(const std::vector<web::GoldQuestion>& questions) {
    AliQAn cached(&wn_, ModeConfig(false));
    AliQAn reanalyzed(&wn_, ModeConfig(true));
    ASSERT_TRUE(cached.IndexCorpus(&web_->documents()).ok());
    ASSERT_TRUE(reanalyzed.IndexCorpus(&web_->documents()).ok());
    for (const web::GoldQuestion& gq : questions) {
      Result<AnswerSet> a = cached.Ask(gq.question);
      Result<AnswerSet> b = reanalyzed.Ask(gq.question);
      ASSERT_EQ(a.ok(), b.ok()) << gq.question;
      if (!a.ok()) continue;
      EXPECT_EQ(Serialize(*a), Serialize(*b)) << gq.question;
      EXPECT_EQ(StructuredFactsToCsv(ToStructuredFacts(*a, "temperature")),
                StructuredFactsToCsv(ToStructuredFacts(*b, "temperature")))
          << gq.question;
    }
  }

  std::unique_ptr<web::SyntheticWeb> web_;
  ontology::Ontology wn_;
};

TEST_F(GoldenEquivalenceTest, AllTwentyTaxonomyCategoriesAnswerIdentically) {
  ExpectModesIdentical(web::QuestionFactory::ClefStyleQuestions());
}

TEST_F(GoldenEquivalenceTest, WeatherQuestionsAnswerIdentically) {
  ExpectModesIdentical(web::QuestionFactory::WeatherQuestions(*web_));
}

TEST_F(GoldenEquivalenceTest, ParallelIndexationAnswersAndPostingsIdentical) {
  // threads=4 fans the off-line analysis over a pool and must still produce
  // the same dictionary ids, the same postings bytes and the same answers
  // as the serial build (threads=1, the degenerate case).
  AliQAnConfig serial_config = ModeConfig(false);
  serial_config.threads = 1;
  AliQAnConfig parallel_config = ModeConfig(false);
  parallel_config.threads = 4;
  AliQAn serial(&wn_, serial_config);
  AliQAn parallel(&wn_, parallel_config);
  ASSERT_TRUE(serial.IndexCorpus(&web_->documents()).ok());
  ASSERT_TRUE(parallel.IndexCorpus(&web_->documents()).ok());
  EXPECT_EQ(serial.corpus().dictionary().size(),
            parallel.corpus().dictionary().size());
  EXPECT_EQ(serial.document_index().DebugString(),
            parallel.document_index().DebugString());
  EXPECT_EQ(serial.passage_index().DebugString(),
            parallel.passage_index().DebugString());
  for (const web::GoldQuestion& gq :
       web::QuestionFactory::WeatherQuestions(*web_)) {
    Result<AnswerSet> a = serial.Ask(gq.question);
    Result<AnswerSet> b = parallel.Ask(gq.question);
    ASSERT_EQ(a.ok(), b.ok()) << gq.question;
    if (!a.ok()) continue;
    EXPECT_EQ(Serialize(*a), Serialize(*b)) << gq.question;
    EXPECT_EQ(StructuredFactsToCsv(ToStructuredFacts(*a, "temperature")),
              StructuredFactsToCsv(ToStructuredFacts(*b, "temperature")))
        << gq.question;
  }
}

TEST_F(GoldenEquivalenceTest, UnfilteredAblationAnswersIdentically) {
  // use_ir_filter=false walks whole documents through extraction — the
  // other passage shape (document-sized, first_sentence == 0).
  AliQAnConfig base = ModeConfig(false);
  base.use_ir_filter = false;
  AliQAnConfig ablation = ModeConfig(true);
  ablation.use_ir_filter = false;
  AliQAn cached(&wn_, base);
  AliQAn reanalyzed(&wn_, ablation);
  ASSERT_TRUE(cached.IndexCorpus(&web_->documents()).ok());
  ASSERT_TRUE(reanalyzed.IndexCorpus(&web_->documents()).ok());
  for (const web::GoldQuestion& gq :
       web::QuestionFactory::WeatherQuestions(*web_)) {
    Result<AnswerSet> a = cached.Ask(gq.question);
    Result<AnswerSet> b = reanalyzed.Ask(gq.question);
    ASSERT_EQ(a.ok(), b.ok()) << gq.question;
    if (a.ok()) {
      EXPECT_EQ(Serialize(*a, false), Serialize(*b, false)) << gq.question;
    }
  }
}

}  // namespace
}  // namespace qa
}  // namespace dwqa
