#include "qa/aliqan.h"

#include <gtest/gtest.h>

#include "ontology/enrichment.h"
#include "ontology/wordnet.h"

namespace dwqa {
namespace qa {
namespace {

class AliQAnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wn_ = ontology::MiniWordNet::Build();
    std::vector<ontology::InstanceSeed> seeds = {
        {"El Prat", {}, "Barcelona", ""}};
    ASSERT_TRUE(ontology::Enricher::Enrich(&wn_, "airport", seeds).ok());

    docs_.Add("web://weather", "weather", ir::DocFormat::kPlainText,
              "Saturday, January 31, 2004\n"
              "Barcelona Weather: Temperature 8\xC2\xBA C around 46.4 F "
              "Clear skies today\n"
              "Friday, January 30, 2004\n"
              "Barcelona Weather: Temperature 7\xC2\xBA C Cloudy today\n");
    docs_.Add("web://news", "news", ir::DocFormat::kPlainText,
              "The stock market rose by 340 points in January of 2004.\n"
              "Analysts in New York were surprised.\n");
    docs_.Add("web://history", "history", ir::DocFormat::kPlainText,
              "Iraq invaded Kuwait in 1990.\n");
    docs_.Add("web://html", "html page", ir::DocFormat::kHtml,
              "<html><body><p>Madrid Weather: Temperature 5\xC2\xBA C on "
              "January 15, 2004</p></body></html>");
  }

  ontology::Ontology wn_;
  ir::DocumentStore docs_;
};

TEST_F(AliQAnTest, SearchBeforeIndexFails) {
  AliQAn aliqan(&wn_);
  EXPECT_TRUE(aliqan.Ask("What is the temperature?").status().IsInternal());
  QuestionAnalysis dummy;
  EXPECT_TRUE(aliqan.SelectPassages(dummy).status().IsInternal());
}

TEST_F(AliQAnTest, IndexCorpusBuildsBothIndexes) {
  AliQAn aliqan(&wn_);
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  EXPECT_EQ(aliqan.document_index().document_count(), 4u);
  EXPECT_EQ(aliqan.passage_index().document_count(), 4u);
  EXPECT_GT(aliqan.last_timings().indexation_ms, 0.0);
}

TEST_F(AliQAnTest, HtmlIsStrippedByDefaultPreprocessor) {
  AliQAn aliqan(&wn_);
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  std::string plain = aliqan.PlainText(3).ValueOrDie();
  EXPECT_EQ(plain.find("<p>"), std::string::npos);
  EXPECT_NE(plain.find("Madrid Weather"), std::string::npos);
}

TEST_F(AliQAnTest, FullPipelineAnswersTemperatureQuestion) {
  AliQAn aliqan(&wn_);
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  auto answers =
      aliqan.Ask("What is the temperature in January of 2004 in El Prat?");
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  const AnswerCandidate& best = answers->best();
  EXPECT_TRUE(best.has_value);
  // Either day of the Barcelona page is acceptable; 340 (stock points)
  // must not win.
  EXPECT_TRUE(best.value == 8.0 || best.value == 7.0) << best.value;
  EXPECT_EQ(best.location, "Barcelona");
  EXPECT_EQ(best.url, "web://weather");
}

TEST_F(AliQAnTest, AnswersClefQuestion) {
  AliQAn aliqan(&wn_);
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  auto answers = aliqan.Ask("Which country did Iraq invade in 1990?");
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  EXPECT_EQ(answers->best().answer_text, "Kuwait");
}

TEST_F(AliQAnTest, UnfilteredModeAnalyzesWholeCorpus) {
  AliQAnConfig config;
  config.use_ir_filter = false;
  AliQAn aliqan(&wn_, config);
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  auto answers =
      aliqan.Ask("What is the temperature in January of 2004 in El Prat?");
  ASSERT_TRUE(answers.ok());
  EXPECT_FALSE(answers->empty());
  // All four documents were analyzed.
  EXPECT_EQ(answers->passages.size(), 4u);

  AliQAn filtered(&wn_);
  ASSERT_TRUE(filtered.IndexCorpus(&docs_).ok());
  auto filtered_answers =
      filtered.Ask("What is the temperature in January of 2004 in El Prat?");
  ASSERT_TRUE(filtered_answers.ok());
  // The filter reduces the text volume reaching the extraction module —
  // the paper's "time of analysis ... highly decreased" mechanism.
  EXPECT_LT(filtered_answers->sentences_analyzed,
            answers->sentences_analyzed);
}

TEST_F(AliQAnTest, UnfilteredSearchSkipsDocumentsNotYetIngested) {
  AliQAnConfig config;
  config.use_ir_filter = false;
  AliQAn aliqan(&wn_, config);
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  docs_.Add("web://late", "late weather", ir::DocFormat::kPlainText,
            "Sunday, February 1, 2004\n"
            "Madrid Weather: Temperature 12\xC2\xBA C Sunny today\n");
  const char kQuestion[] =
      "What is the temperature in February of 2004 in Madrid?";

  // Appended but not ingested: no analysis exists, so the page is
  // invisible, as it is to the filtered path.
  auto before = aliqan.Ask(kQuestion);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->passages.size(), 4u);
  for (const AnswerCandidate& a : before->answers) {
    EXPECT_NE(a.url, "web://late");
  }

  ASSERT_EQ(aliqan.IngestNewDocuments().ValueOrDie(), 1u);
  auto after = aliqan.Ask(kQuestion);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->passages.size(), 5u);
  ASSERT_FALSE(after->empty());
  EXPECT_EQ(after->best().url, "web://late");
  EXPECT_EQ(after->best().value, 12.0);
}

TEST_F(AliQAnTest, CustomPreprocessorUsed) {
  AliQAn aliqan(&wn_);
  aliqan.set_preprocessor([](const ir::Document& doc) {
    return "REPLACED " + doc.title;
  });
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  EXPECT_EQ(aliqan.PlainText(0).ValueOrDie(), "REPLACED weather");
}

TEST_F(AliQAnTest, PlainTextBoundsChecked) {
  AliQAn aliqan(&wn_);
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  EXPECT_TRUE(aliqan.PlainText(99).status().IsNotFound());
  EXPECT_TRUE(aliqan.PlainText(-1).status().IsNotFound());
}

TEST_F(AliQAnTest, MaxAnswersCapRespected) {
  AliQAnConfig config;
  config.max_answers = 1;
  AliQAn aliqan(&wn_, config);
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  auto answers =
      aliqan.Ask("What is the temperature in January of 2004 in El Prat?");
  ASSERT_TRUE(answers.ok());
  EXPECT_LE(answers->answers.size(), 1u);
}

TEST_F(AliQAnTest, NullDocumentStoreRejected) {
  AliQAn aliqan(&wn_);
  EXPECT_TRUE(aliqan.IndexCorpus(nullptr).IsInvalidArgument());
}

TEST_F(AliQAnTest, TimingsPopulatedPerPhase) {
  AliQAn aliqan(&wn_);
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  ASSERT_TRUE(
      aliqan.Ask("What is the temperature in January of 2004 in El Prat?")
          .ok());
  const PhaseTimings& t = aliqan.last_timings();
  EXPECT_GE(t.analysis_ms, 0.0);
  EXPECT_GE(t.retrieval_ms, 0.0);
  EXPECT_GE(t.extraction_ms, 0.0);
  EXPECT_GT(t.sentences_analyzed, 0u);
}

TEST_F(AliQAnTest, AskResetsSearchPhaseFieldsOnEntry) {
  AliQAn aliqan(&wn_);
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  ASSERT_TRUE(aliqan.Ask("What is the temperature in Barcelona?").ok());
  ASSERT_GT(aliqan.last_timings().sentences_analyzed, 0u);
  // A question retrieving no passages must not show the previous
  // question's counters — Ask() zeroes the search-phase fields on entry.
  ASSERT_TRUE(aliqan.Ask("Who is Xyzzyplugh?").ok());
  const PhaseTimings& t = aliqan.last_timings();
  EXPECT_EQ(t.sentences_analyzed, 0u);
}

TEST_F(AliQAnTest, IndexCorpusResetsOnlyIndexationFields) {
  AliQAn aliqan(&wn_);
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  EXPECT_GT(aliqan.last_timings().indexation_ms, 0.0);
  EXPECT_GT(aliqan.last_timings().indexation_sentences, 0u);
  ASSERT_TRUE(aliqan.Ask("What is the temperature in Barcelona?").ok());
  size_t asked_sentences = aliqan.last_timings().sentences_analyzed;
  ASSERT_GT(asked_sentences, 0u);
  // Re-indexing refreshes the indexation fields and leaves the last Ask()'s
  // search-phase fields untouched.
  size_t sentences_before = aliqan.last_timings().indexation_sentences;
  ASSERT_TRUE(aliqan.IndexCorpus(&docs_).ok());
  EXPECT_GT(aliqan.last_timings().indexation_ms, 0.0);
  EXPECT_EQ(aliqan.last_timings().indexation_sentences, sentences_before);
  EXPECT_EQ(aliqan.last_timings().sentences_analyzed, asked_sentences);
}

}  // namespace
}  // namespace qa
}  // namespace dwqa
