#include "qa/answer_extractor.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "ontology/enrichment.h"
#include "ontology/wordnet.h"
#include "qa/question_analyzer.h"
#include "text/pos_tagger.h"
#include "text/sentence_splitter.h"
#include "text/tokenizer.h"

namespace dwqa {
namespace qa {
namespace {

class AnswerExtractorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wn_ = ontology::MiniWordNet::Build();
    std::vector<ontology::InstanceSeed> seeds = {
        {"El Prat", {}, "Barcelona", ""}};
    ASSERT_TRUE(ontology::Enricher::Enrich(&wn_, "airport", seeds).ok());
    // Step 4 axioms.
    auto temp = wn_.FindClass("temperature").ValueOrDie();
    ASSERT_TRUE(wn_.SetAxiom(temp, "min_celsius", "-90").ok());
    ASSERT_TRUE(wn_.SetAxiom(temp, "max_celsius", "60").ok());
  }

  QuestionAnalysis Analyze(const std::string& q) {
    QuestionAnalyzer analyzer(&wn_);
    return analyzer.Analyze(q).ValueOrDie();
  }

  /// Extracts from `passage` the way a live ask does: the passage is
  /// stored under `url` and analyzed once into a one-document corpus, then
  /// Prepare + ExtractAnalyzed run over all of its sentences and
  /// AttachSources fills in the candidates' source strings.
  std::vector<AnswerCandidate> ExtractFrom(const QuestionAnalysis& q,
                                           const std::string& passage,
                                           const std::string& url) {
    ir::DocumentStore docs;
    const ir::DocId id =
        docs.Add(url, "", ir::DocFormat::kPlainText, passage);
    text::AnalyzedCorpus corpus;
    const text::AnalyzedDocument& doc = corpus.Add(id, passage);
    std::vector<ir::Passage> passages(1);
    passages[0].doc = id;
    passages[0].last_sentence = doc.sentences.size();
    passages[0].text = passage;
    AnswerExtractor extractor(&wn_);
    std::vector<AnswerCandidate> found;
    extractor.ExtractAnalyzed(extractor.Prepare(q, corpus.dictionary()),
                              corpus.View(id, 0, doc.sentences.size()), 0,
                              id, &found);
    AnswerExtractor::AttachSources(passages, corpus, &docs, &found);
    return found;
  }

  std::vector<AnswerCandidate> Extract(const std::string& question,
                                       const std::string& passage) {
    return AnswerExtractor::Rank(
        ExtractFrom(Analyze(question), passage, "web://test"), 10);
  }

  ontology::Ontology wn_;
};

TEST_F(AnswerExtractorTest, Table1TemperatureExtraction) {
  // The exact passage of the paper's Table 1.
  std::string passage =
      "Monday, January 31, 2004\n"
      "Barcelona Weather: Temperature 8\xC2\xBA C around 46.4 F Clear "
      "skies today";
  auto answers = Extract(
      "What is the weather like in January of 2004 in El Prat?", passage);
  ASSERT_FALSE(answers.empty());
  const AnswerCandidate& best = answers.front();
  // Extracted answer: (8ºC – Monday, January 31, 2004 – Barcelona).
  EXPECT_TRUE(best.has_value);
  EXPECT_DOUBLE_EQ(best.value, 8.0);
  EXPECT_EQ(best.unit, "\xC2\xBA\x43");
  ASSERT_TRUE(best.date.has_value());
  EXPECT_EQ(*best.date, Date(2004, 1, 31));
  EXPECT_TRUE(best.date_complete);
  EXPECT_EQ(best.location, "Barcelona");
  EXPECT_EQ(best.url, "web://test");
}

TEST_F(AnswerExtractorTest, DateBorrowedFromPrecedingSentence) {
  std::string passage =
      "Friday, January 30, 2004\n"
      "Barcelona Weather: Temperature 7\xC2\xBA C Clear skies";
  auto answers = Extract(
      "What is the temperature in January of 2004 in Barcelona?", passage);
  ASSERT_FALSE(answers.empty());
  ASSERT_TRUE(answers.front().date.has_value());
  EXPECT_EQ(answers.front().date->day(), 30);
}

TEST_F(AnswerExtractorTest, ImplausibleTemperatureScoredDown) {
  std::string passage =
      "Monday, January 31, 2004\n"
      "Barcelona Weather: Temperature 800\xC2\xBA C today\n"
      "Tuesday, January 27, 2004\n"
      "Barcelona Weather: Temperature 9\xC2\xBA C today";
  auto answers = Extract(
      "What is the temperature in January of 2004 in Barcelona?", passage);
  ASSERT_GE(answers.size(), 2u);
  EXPECT_DOUBLE_EQ(answers.front().value, 9.0);  // Plausible one wins.
}

TEST_F(AnswerExtractorTest, DateMismatchPenalized) {
  std::string passage =
      "Monday, March 15, 2004\n"
      "Barcelona Weather: Temperature 20\xC2\xBA C today\n"
      "Saturday, January 31, 2004\n"
      "Barcelona Weather: Temperature 8\xC2\xBA C today";
  auto answers = Extract(
      "What is the temperature in January of 2004 in Barcelona?", passage);
  ASSERT_GE(answers.size(), 2u);
  EXPECT_DOUBLE_EQ(answers.front().value, 8.0);  // January beats March.
}

TEST_F(AnswerExtractorTest, UnknownUnitScoredBelowKnownUnit) {
  std::string passage =
      "Saturday, January 31, 2004\n"
      "Barcelona readings: 12\xC2\xBA in the morning\n"
      "Saturday, January 31, 2004\n"
      "Barcelona Weather: Temperature 8\xC2\xBA C at noon";
  auto answers = Extract(
      "What is the temperature in January of 2004 in Barcelona?", passage);
  ASSERT_GE(answers.size(), 2u);
  EXPECT_EQ(answers.front().unit, "\xC2\xBA\x43");
}

TEST_F(AnswerExtractorTest, PlaceCountryPrefersOntologyHyponym) {
  std::string passage =
      "Iraq invaded Kuwait in 1990.\n"
      "The invasion surprised Washington observers.";
  auto answers =
      Extract("Which country did Iraq invade in 1990?", passage);
  ASSERT_FALSE(answers.empty());
  // "Kuwait" is a country hyponym; "Washington" is not; "Iraq" is a
  // question term and excluded.
  EXPECT_EQ(answers.front().answer_text, "Kuwait");
}

TEST_F(AnswerExtractorTest, PersonExtraction) {
  std::string passage =
      "John F. Kennedy was the 35th president of the United States.";
  auto answers =
      Extract("Who was the 35th president of the United States?", passage);
  ASSERT_FALSE(answers.empty());
  EXPECT_NE(answers.front().answer_text.find("Kennedy"), std::string::npos);
}

TEST_F(AnswerExtractorTest, MoneyExtraction) {
  std::string passage =
      "The price of a one-way ticket from Barcelona to Paris is 120 euros.";
  auto answers = Extract(
      "What is the price of a one-way ticket from Barcelona to Paris?",
      passage);
  ASSERT_FALSE(answers.empty());
  EXPECT_DOUBLE_EQ(answers.front().value, 120.0);
  EXPECT_EQ(answers.front().unit, "EUR");
}

TEST_F(AnswerExtractorTest, QuantityExcludesTypedNumbers) {
  std::string passage =
      "On January 5, 2004 the airline operated 120 flights at 8\xC2\xBA C "
      "for 99 euros each covering 12 percent of demand.";
  auto answers = Extract(
      "How many flights does the airline operate per day?", passage);
  ASSERT_FALSE(answers.empty());
  // 2004, 5, 8, 99 and 12 are consumed by date/temperature/money/percent;
  // the plain cardinal 120 remains.
  EXPECT_DOUBLE_EQ(answers.front().value, 120.0);
}

TEST_F(AnswerExtractorTest, AgeAndPeriod) {
  auto age = Extract("How old was John F. Kennedy in 1963?",
                     "In 1963 John F. Kennedy was 46 years old.");
  ASSERT_FALSE(age.empty());
  EXPECT_DOUBLE_EQ(age.front().value, 46.0);
  auto period =
      Extract("How long does the flight from Barcelona to Paris take?",
              "The flight from Barcelona to Paris takes 2 hours.");
  ASSERT_FALSE(period.empty());
  EXPECT_DOUBLE_EQ(period.front().value, 2.0);
  EXPECT_EQ(period.front().unit, "hours");
}

TEST_F(AnswerExtractorTest, TemporalYearAndDate) {
  auto year = Extract("What year did Kennedy International Airport open?",
                      "Kennedy International Airport opened in 1948.");
  ASSERT_FALSE(year.empty());
  EXPECT_EQ(year.front().answer_text, "1948");

  auto date = Extract("When did the storm reach Barcelona?",
                      "The storm reached Barcelona on January 31, 2004.");
  ASSERT_FALSE(date.empty());
  ASSERT_TRUE(date.front().date.has_value());
  EXPECT_EQ(*date.front().date, Date(2004, 1, 31));
}

TEST_F(AnswerExtractorTest, Definition) {
  auto answers = Extract(
      "What is a data warehouse?",
      "A data warehouse is a central repository of integrated data.");
  ASSERT_FALSE(answers.empty());
  EXPECT_NE(answers.front().answer_text.find("central repository"),
            std::string::npos);
}

TEST_F(AnswerExtractorTest, Abbreviation) {
  auto found = ExtractFrom(Analyze("What does DW stand for?"),
                           "DW stands for Data Warehouse.", "");
  bool ok = false;
  for (const auto& c : found) {
    if (c.answer_text.find("Data Warehouse") != std::string::npos) ok = true;
  }
  EXPECT_TRUE(ok);
}

TEST_F(AnswerExtractorTest, RankDeduplicatesByTextAndDate) {
  AnswerCandidate a;
  a.answer_text = "8\xC2\xBA\x43";
  a.score = 1.0;
  a.date = Date(2004, 1, 31);
  AnswerCandidate b = a;
  b.score = 5.0;
  AnswerCandidate c = a;
  c.date = Date(2004, 1, 30);  // Different date → separate answer.
  auto ranked = AnswerExtractor::Rank({a, b, c}, 10);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_DOUBLE_EQ(ranked.front().score, 5.0);
}

TEST_F(AnswerExtractorTest, RankCapsResults) {
  std::vector<AnswerCandidate> many;
  for (int i = 0; i < 20; ++i) {
    AnswerCandidate c;
    c.answer_text = "answer-" + std::to_string(i);
    c.score = i;
    many.push_back(c);
  }
  auto ranked = AnswerExtractor::Rank(std::move(many), 5);
  ASSERT_EQ(ranked.size(), 5u);
  EXPECT_EQ(ranked.front().answer_text, "answer-19");
}

TEST_F(AnswerExtractorTest, EmptyPassageYieldsNothing) {
  auto answers = Extract("What is the temperature in Barcelona?", "");
  EXPECT_TRUE(answers.empty());
}

TEST_F(AnswerExtractorTest, DaySpecificQuestionSelectsThatDay) {
  // "on the 12th of May, 1997" constrains the day, not just the month.
  std::string passage =
      "Sunday, May 11, 1997\n"
      "Barcelona Weather: Temperature 19\xC2\xBA C today\n"
      "Monday, May 12, 1997\n"
      "Barcelona Weather: Temperature 23\xC2\xBA C today";
  auto answers = Extract(
      "What is the weather like in Barcelona on the 12th of May, 1997?",
      passage);
  ASSERT_FALSE(answers.empty());
  EXPECT_DOUBLE_EQ(answers.front().value, 23.0);
  ASSERT_TRUE(answers.front().date.has_value());
  EXPECT_EQ(*answers.front().date, Date(1997, 5, 12));
}

/// The quadratic dedup Rank used before the hash: the reference the
/// linear one must reproduce exactly.
std::vector<AnswerCandidate> BruteForceRank(
    std::vector<AnswerCandidate> candidates, size_t max_answers) {
  std::vector<AnswerCandidate> merged;
  for (AnswerCandidate& c : candidates) {
    bool found = false;
    for (AnswerCandidate& m : merged) {
      bool same_date =
          m.date.has_value() == c.date.has_value() &&
          (!m.date.has_value() || *m.date == *c.date);
      if (ToLower(m.answer_text) == ToLower(c.answer_text) && same_date) {
        if (c.score > m.score) m = std::move(c);
        found = true;
        break;
      }
    }
    if (!found) merged.push_back(std::move(c));
  }
  std::sort(merged.begin(), merged.end(),
            [](const AnswerCandidate& a, const AnswerCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.answer_text < b.answer_text;
            });
  if (merged.size() > max_answers) merged.resize(max_answers);
  return merged;
}

TEST_F(AnswerExtractorTest, RankMatchesBruteForceOnSeededLists) {
  const std::vector<std::string> texts = {
      "Paris", "PARIS", "paris", "Madrid", "MADRID", "8\xC2\xBA\x43",
      "8\xC2\xBA\x63", "1990", "Kuwait", "kuwait"};
  const std::vector<double> scores = {1.0, 2.0, 2.5, 3.0, 3.0};
  const std::vector<Date> dates = {Date(2004, 1, 30), Date(2004, 1, 31)};
  const std::vector<size_t> caps = {0, 1, 3, 5, 100};
  Rng rng(17);
  for (int round = 0; round < 500; ++round) {
    std::vector<AnswerCandidate> list(rng.NextIndex(60));
    for (size_t i = 0; i < list.size(); ++i) {
      AnswerCandidate& c = list[i];
      c.answer_text = texts[rng.NextIndex(texts.size())];
      c.score = scores[rng.NextIndex(scores.size())];
      if (rng.NextBool(0.5)) c.date = dates[rng.NextIndex(dates.size())];
      // A tag that tells which input survived the dedup.
      c.url = "c" + std::to_string(i);
    }
    size_t cap = caps[rng.NextIndex(caps.size())];
    std::vector<AnswerCandidate> got = AnswerExtractor::Rank(list, cap);
    std::vector<AnswerCandidate> want = BruteForceRank(list, cap);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].answer_text, want[i].answer_text) << "round " << round;
      EXPECT_EQ(got[i].score, want[i].score) << "round " << round;
      EXPECT_EQ(got[i].date, want[i].date) << "round " << round;
      EXPECT_EQ(got[i].url, want[i].url) << "round " << round;
    }
  }
}

/// Lemmas of `text`'s content tokens (DT/IN/OF/"," dropped), one entry
/// per token, tagged the way the extractor tags question SBs.
std::vector<std::string> ContentLemmas(const std::string& text) {
  text::TokenSequence toks = text::Tokenizer::Tokenize(text);
  text::PosTagger().Tag(&toks);
  std::vector<std::string> out;
  for (const text::Token& t : toks) {
    if (t.tag == "DT" || t.tag == "IN" || t.tag == "OF" || t.tag == ",") {
      continue;
    }
    out.push_back(t.lemma);
  }
  return out;
}

/// Lemmas of every token of `text`, tagged as indexation tags a sentence.
std::set<std::string> SentenceLemmas(const std::string& text) {
  text::TokenSequence toks = text::Tokenizer::Tokenize(text);
  text::PosTagger().Tag(&toks);
  std::set<std::string> out;
  for (const text::Token& t : toks) out.insert(t.lemma);
  return out;
}

/// Brute-force SB coverage: per SB, the share of its content lemmas that
/// occur in `lemmas`, summed in SB order.
double BruteForceCoverage(const std::vector<std::string>& sbs,
                          const std::set<std::string>& lemmas) {
  double cov = 0.0;
  for (const std::string& sb : sbs) {
    std::vector<std::string> content = ContentLemmas(sb);
    if (content.empty()) continue;
    size_t hit = 0;
    for (const std::string& l : content) hit += lemmas.count(l);
    cov += static_cast<double>(hit) / static_cast<double>(content.size());
  }
  return cov;
}

TEST_F(AnswerExtractorTest, CoverageBeyondSixtyFourSbLemmasMatchesBruteForce) {
  // 90 distinct made-up lemmas ("qab", "qac", ...), spread over one- and
  // two-word SBs, some repeated across SBs, some absent from the passage.
  std::vector<std::string> words;
  for (char a = 'a'; a <= 'j'; ++a) {
    for (char b = 'b'; b <= 'j'; ++b) words.push_back(std::string("q") + a + b);
  }
  ASSERT_EQ(words.size(), 90u);
  QuestionAnalysis q;
  q.answer_type = AnswerType::kNumericalPercentage;
  for (size_t i = 0; i < words.size(); i += 3) {
    q.main_sbs.push_back(words[i]);
    q.main_sbs.push_back(words[i + 1] + " " + words[i + 2]);
  }
  q.main_sbs.push_back(words[5] + " the " + words[77]);
  std::set<std::string> distinct;
  for (const std::string& sb : q.main_sbs) {
    for (const std::string& l : ContentLemmas(sb)) distinct.insert(l);
  }
  ASSERT_GT(distinct.size(), 64u);

  // Sentence k mentions words k, k+7, k+14, ... below 80; the last ten
  // words never occur.
  std::string passage;
  for (size_t k = 0; k < 5; ++k) {
    for (size_t w = k; w < 80; w += 7) passage += words[w] + " ";
    passage += "rose " + std::to_string(10 + k) + " percent.\n";
  }

  std::vector<std::set<std::string>> sentence_lemmas;
  std::set<std::string> passage_lemmas;
  for (const std::string& s : text::SentenceSplitter::Split(passage)) {
    sentence_lemmas.push_back(SentenceLemmas(s));
    passage_lemmas.insert(sentence_lemmas.back().begin(),
                          sentence_lemmas.back().end());
  }
  ASSERT_EQ(sentence_lemmas.size(), 5u);
  const double passage_cov = BruteForceCoverage(q.main_sbs, passage_lemmas);

  std::vector<AnswerCandidate> found = ExtractFrom(q, passage, "");
  ASSERT_EQ(found.size(), 5u);
  for (size_t k = 0; k < found.size(); ++k) {
    const double want =
        2.0 * BruteForceCoverage(q.main_sbs, sentence_lemmas[k]) +
        passage_cov + 2.0;
    EXPECT_DOUBLE_EQ(found[k].score, want) << "sentence " << k;
    EXPECT_EQ(found[k].value, 10.0 + static_cast<double>(k));
  }
}

}  // namespace
}  // namespace qa
}  // namespace dwqa
