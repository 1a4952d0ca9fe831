// Golden equivalence of parallel indexation: analyzing the corpus on a
// thread pool must produce the same dictionary, postings and answers —
// every answer field, every structured fact — as the serial build. The
// answers themselves are pinned by golden_digest_test.cc; the chaos-label
// serial-vs-batched feed run lives in tests/integration/chaos_pipeline_test.cc.

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

  AliQAnConfig LadderConfig() const {
    AliQAnConfig config;
    // Both ladder rungs on, so the relaxed-pattern and IR-only fallback
    // paths are part of the equivalence contract too.
    config.degradation.enable_relaxed = true;
    config.degradation.enable_ir_only = true;
    return config;
  }

  std::unique_ptr<web::SyntheticWeb> web_;
  ontology::Ontology wn_;
};

TEST_F(GoldenEquivalenceTest, ParallelIndexationAnswersAndPostingsIdentical) {
  // threads=4 fans the off-line analysis over a pool and must still produce
  // the same dictionary ids, the same postings bytes and the same answers
  // as the serial build (threads=1, the degenerate case).
  AliQAnConfig serial_config = LadderConfig();
  serial_config.threads = 1;
  AliQAnConfig parallel_config = LadderConfig();
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

}  // namespace
}  // namespace qa
}  // namespace dwqa
