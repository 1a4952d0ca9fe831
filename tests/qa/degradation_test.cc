#include "qa/degradation.h"

#include <gtest/gtest.h>

#include "ontology/enrichment.h"
#include "ontology/wordnet.h"
#include "qa/aliqan.h"
#include "qa/fact_validator.h"
#include "qa/structured.h"

namespace dwqa {
namespace qa {
namespace {

/// Corpus whose weather page lost its unit markers — the Figure-5
/// stripped-table shape. FindTemperatures needs "8ºC"/"8 degrees"; a bare
/// "Temperature 8" defeats the full extractor but not the relaxed rung.
class DegradationLadderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wn_ = ontology::MiniWordNet::Build();
    std::vector<ontology::InstanceSeed> seeds = {
        {"El Prat", {}, "Barcelona", ""}};
    ASSERT_TRUE(ontology::Enricher::Enrich(&wn_, "airport", seeds).ok());

    docs_.Add("web://weather-stripped", "weather", ir::DocFormat::kPlainText,
              "Saturday, January 31, 2004\n"
              "Barcelona Weather: Temperature 8 Clear skies today\n");
  }

  AnswerSet AskWith(DegradationConfig degradation,
                    const std::string& question =
                        "What is the temperature in January of 2004 in "
                        "El Prat?") {
    AliQAnConfig config;
    config.degradation = degradation;
    AliQAn aliqan(&wn_, config);
    auto status = aliqan.IndexCorpus(&docs_);
    EXPECT_TRUE(status.ok()) << status.ToString();
    auto answers = aliqan.Ask(question);
    EXPECT_TRUE(answers.ok()) << answers.status().ToString();
    return answers.ValueOrDie();
  }

  ontology::Ontology wn_;
  ir::DocumentStore docs_;
};

TEST(DegradationLevelTest, NamesAreStable) {
  EXPECT_STREQ(DegradationLevelName(DegradationLevel::kFull), "Full");
  EXPECT_STREQ(DegradationLevelName(DegradationLevel::kRelaxedPattern),
               "RelaxedPattern");
  EXPECT_STREQ(DegradationLevelName(DegradationLevel::kIrOnly), "IrOnly");
  EXPECT_STREQ(DegradationLevelName(DegradationLevel::kUnanswered),
               "Unanswered");
  EXPECT_EQ(AllDegradationLevels().size(), 4u);
}

TEST(FactDispositionTest, NamesAreStable) {
  EXPECT_STREQ(FactDispositionName(FactDisposition::kLoaded), "Loaded");
  EXPECT_STREQ(FactDispositionName(FactDisposition::kDeduplicated),
               "Deduplicated");
  EXPECT_STREQ(FactDispositionName(FactDisposition::kQuarantined),
               "Quarantined");
  EXPECT_STREQ(FactDispositionName(FactDisposition::kRejected), "Rejected");
}

TEST_F(DegradationLadderTest, LadderOffLeavesTheQuestionUnanswered) {
  AnswerSet answers = AskWith(DegradationConfig{});
  EXPECT_TRUE(answers.empty());
  EXPECT_EQ(answers.degradation, DegradationLevel::kUnanswered);
  EXPECT_FALSE(answers.unanswered_reason.empty());
}

TEST_F(DegradationLadderTest, RelaxedRungRecoversTheBareNumber) {
  DegradationConfig degradation;
  degradation.enable_relaxed = true;
  AnswerSet answers = AskWith(degradation);
  ASSERT_FALSE(answers.empty());
  EXPECT_EQ(answers.degradation, DegradationLevel::kRelaxedPattern);
  const AnswerCandidate& best = answers.best();
  EXPECT_EQ(best.level, DegradationLevel::kRelaxedPattern);
  EXPECT_TRUE(best.has_value);
  // The bare 8; the date cardinals (31, 2004) must stay dates.
  EXPECT_EQ(best.value, 8.0);
  EXPECT_EQ(best.score, kRelaxedScore);
  // Context still attached: location from question resolution, date carried
  // from the preceding date line.
  EXPECT_EQ(best.location, "Barcelona");
  ASSERT_TRUE(best.date.has_value());
  EXPECT_EQ(best.date->year(), 2004);
  EXPECT_EQ(best.url, "web://weather-stripped");
}

TEST_F(DegradationLadderTest, IrOnlyRungReturnsTheBestPassage) {
  DegradationConfig degradation;
  degradation.enable_ir_only = true;  // Relaxed rung stays off.
  AnswerSet answers = AskWith(degradation);
  ASSERT_FALSE(answers.empty());
  EXPECT_EQ(answers.degradation, DegradationLevel::kIrOnly);
  const AnswerCandidate& best = answers.best();
  EXPECT_EQ(best.level, DegradationLevel::kIrOnly);
  EXPECT_FALSE(best.has_value);  // A passage, not a value.
  EXPECT_NE(best.answer_text.find("Barcelona"), std::string::npos);
  EXPECT_EQ(best.score, kIrOnlyScore);
}

TEST_F(DegradationLadderTest, FullAnswersNeverReachTheLowerRungs) {
  docs_.Add("web://weather-intact", "weather", ir::DocFormat::kPlainText,
            "Friday, January 30, 2004\n"
            "Barcelona Weather: Temperature 7\xC2\xBA C Cloudy today\n");
  DegradationConfig degradation;
  degradation.enable_relaxed = true;
  degradation.enable_ir_only = true;
  AnswerSet answers = AskWith(degradation);
  ASSERT_FALSE(answers.empty());
  // The intact page feeds the full extractor, so the ladder never engages.
  EXPECT_EQ(answers.degradation, DegradationLevel::kFull);
  EXPECT_EQ(answers.best().level, DegradationLevel::kFull);
  EXPECT_EQ(answers.best().value, 7.0);
}

TEST_F(DegradationLadderTest, NoPassagesMeansUnansweredEvenWithTheLadder) {
  DegradationConfig degradation;
  degradation.enable_relaxed = true;
  degradation.enable_ir_only = true;
  AnswerSet answers =
      AskWith(degradation, "Which country did Iraq invade in 1990?");
  EXPECT_TRUE(answers.empty());
  EXPECT_EQ(answers.degradation, DegradationLevel::kUnanswered);
  EXPECT_FALSE(answers.unanswered_reason.empty());
}

TEST(ConfidenceFloorTest, LowConfidenceFactsAreRejectedFirst) {
  ValidatorConfig config;
  config.confidence_floor = 0.5;
  FactValidator validator(config);

  StructuredFact fact;
  fact.attribute = "temperature";
  fact.value = 8.0;
  fact.location = "Barcelona";
  fact.confidence = 0.1;
  fact.level = DegradationLevel::kRelaxedPattern;
  EXPECT_EQ(validator.Check(fact), RejectReason::kBelowConfidenceFloor);

  fact.confidence = 0.9;
  EXPECT_EQ(validator.Check(fact), RejectReason::kNone);

  // The default floor (-inf) admits even zero-confidence facts.
  FactValidator permissive;
  fact.confidence = 0.0;
  EXPECT_EQ(permissive.Check(fact), RejectReason::kNone);
}

TEST(ConfidenceFloorTest, NewRejectReasonsHaveStableNames) {
  EXPECT_STREQ(RejectReasonName(RejectReason::kCircuitOpen), "CircuitOpen");
  EXPECT_STREQ(RejectReasonName(RejectReason::kBelowConfidenceFloor),
               "BelowConfidenceFloor");
  EXPECT_EQ(RejectReasonFromName("CircuitOpen").ValueOrDie(),
            RejectReason::kCircuitOpen);
  EXPECT_EQ(RejectReasonFromName("BelowConfidenceFloor").ValueOrDie(),
            RejectReason::kBelowConfidenceFloor);
}

TEST(StructuredFactCsvTest, CsvCarriesLevelAndDisposition) {
  StructuredFact fact;
  fact.attribute = "temperature";
  fact.value = 8.0;
  fact.location = "Barcelona";
  fact.level = DegradationLevel::kRelaxedPattern;
  fact.disposition = FactDisposition::kQuarantined;
  std::string csv = StructuredFactsToCsv({fact});
  EXPECT_NE(csv.find("level"), std::string::npos);
  EXPECT_NE(csv.find("disposition"), std::string::npos);
  EXPECT_NE(csv.find("RelaxedPattern"), std::string::npos);
  EXPECT_NE(csv.find("Quarantined"), std::string::npos);
}

}  // namespace
}  // namespace qa
}  // namespace dwqa
