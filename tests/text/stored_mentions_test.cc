// The mentions indexation stores per sentence must be exactly what the
// recognizers find on that sentence's tokens: extraction reads the stored
// spans instead of re-running FindDates, FindTemperatures and
// FindProperNouns, and rebuilds a mention's text from the tokens. Checked over every sentence of
// the synthetic web (serial and parallel indexation) and over seeded random
// sentences.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "ontology/wordnet.h"
#include "qa/aliqan.h"
#include "text/analyzed_corpus.h"
#include "text/entities.h"
#include "web/synthetic_web.h"

namespace dwqa {
namespace text {
namespace {

/// Compares one stored sentence's mentions, texts included, against the
/// recognizers run on its tokens; returns the number of mentions checked.
size_t ExpectStoredMentionsMatch(const AnalyzedDocument& doc, size_t s) {
  const AnalyzedSentence& sentence = doc.sentences[s];
  const TokenSequence& toks = sentence.tokens;

  std::vector<TemperatureMention> temperatures =
      EntityRecognizer::FindTemperatures(toks);
  std::span<const TemperatureSpan> stored_temperatures = doc.Temperatures(s);
  EXPECT_EQ(stored_temperatures.size(), temperatures.size())
      << sentence.text;
  for (size_t i = 0;
       i < temperatures.size() && i < stored_temperatures.size(); ++i) {
    const TemperatureSpan& got = stored_temperatures[i];
    EXPECT_EQ(got.begin, temperatures[i].begin) << sentence.text;
    EXPECT_EQ(got.end, temperatures[i].end) << sentence.text;
    EXPECT_EQ(got.value, temperatures[i].value) << sentence.text;
    EXPECT_EQ(got.scale, temperatures[i].scale) << sentence.text;
    EXPECT_EQ(TokensToText(toks, got.begin, got.end), temperatures[i].text);
  }

  std::vector<ProperNounMention> proper_nouns =
      EntityRecognizer::FindProperNouns(toks);
  std::span<const MentionSpan> stored_proper_nouns = doc.ProperNouns(s);
  EXPECT_EQ(stored_proper_nouns.size(), proper_nouns.size())
      << sentence.text;
  std::string text;
  std::string lower;
  for (size_t i = 0;
       i < proper_nouns.size() && i < stored_proper_nouns.size(); ++i) {
    const MentionSpan& got = stored_proper_nouns[i];
    EXPECT_EQ(got.begin, proper_nouns[i].begin) << sentence.text;
    EXPECT_EQ(got.end, proper_nouns[i].end) << sentence.text;
    EntityRecognizer::ProperNounText(toks, got, /*lowercase=*/false, &text);
    EntityRecognizer::ProperNounText(toks, got, /*lowercase=*/true, &lower);
    EXPECT_EQ(text, proper_nouns[i].text);
    EXPECT_EQ(lower, ToLower(proper_nouns[i].text));
  }

  std::vector<DateMention> dates = EntityRecognizer::FindDates(toks);
  std::span<const DateSpan> stored_dates = doc.Dates(s);
  EXPECT_EQ(stored_dates.size(), dates.size()) << sentence.text;
  for (size_t i = 0; i < dates.size() && i < stored_dates.size(); ++i) {
    const DateSpan& got = stored_dates[i];
    EXPECT_EQ(got.begin, dates[i].begin) << sentence.text;
    EXPECT_EQ(got.end, dates[i].end) << sentence.text;
    EXPECT_EQ(TokensToText(toks, got.begin, got.end), dates[i].text);
    EXPECT_EQ(got.date, dates[i].date) << sentence.text;
    EXPECT_EQ(got.has_day, dates[i].has_day) << sentence.text;
    EXPECT_EQ(got.has_month, dates[i].has_month) << sentence.text;
    EXPECT_EQ(got.has_year, dates[i].has_year) << sentence.text;
  }
  return temperatures.size() + proper_nouns.size() + dates.size();
}

/// Every sentence of `doc`; also checks that the per-sentence ranges tile
/// the document's mention arrays in sentence order.
size_t ExpectDocumentMentionsMatch(const AnalyzedDocument& doc) {
  size_t checked = 0;
  uint32_t dates = 0;
  uint32_t temperatures = 0;
  uint32_t proper_nouns = 0;
  for (size_t s = 0; s < doc.sentences.size(); ++s) {
    EXPECT_EQ(doc.sentences[s].dates.begin, dates);
    EXPECT_EQ(doc.sentences[s].temperatures.begin, temperatures);
    EXPECT_EQ(doc.sentences[s].proper_nouns.begin, proper_nouns);
    dates = doc.sentences[s].dates.end;
    temperatures = doc.sentences[s].temperatures.end;
    proper_nouns = doc.sentences[s].proper_nouns.end;
    checked += ExpectStoredMentionsMatch(doc, s);
  }
  EXPECT_EQ(dates, doc.dates.size());
  EXPECT_EQ(temperatures, doc.temperatures.size());
  EXPECT_EQ(proper_nouns, doc.proper_nouns.size());
  return checked;
}

TEST(StoredMentionsTest, EverySentenceOfTheSyntheticWebMatchesTheRecognizers) {
  web::WebConfig config;
  config.year = 2004;
  config.months = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  config.noise_pages = 40;
  web::SyntheticWeb web = web::SyntheticWeb::Build(config).ValueOrDie();
  ontology::Ontology onto = ontology::MiniWordNet::Build();

  // Both indexation paths: the serial Add loop and the parallel AddBatch.
  for (size_t threads : {size_t{1}, size_t{2}}) {
    qa::AliQAnConfig qa_config;
    qa_config.threads = threads;
    qa::AliQAn aliqan(&onto, qa_config);
    ASSERT_TRUE(aliqan.IndexCorpus(&web.documents()).ok());
    size_t sentences = 0;
    size_t dates = 0;
    size_t temperatures = 0;
    size_t proper_nouns = 0;
    size_t checked = 0;
    for (const ir::Document& d : web.documents().documents()) {
      const AnalyzedDocument* doc = aliqan.corpus().Find(d.id);
      ASSERT_NE(doc, nullptr);
      checked += ExpectDocumentMentionsMatch(*doc);
      sentences += doc->sentences.size();
      dates += doc->dates.size();
      temperatures += doc->temperatures.size();
      proper_nouns += doc->proper_nouns.size();
    }
    // The web exercises every kind.
    EXPECT_GT(sentences, 1000u);
    EXPECT_GT(dates, 1000u);
    EXPECT_GT(temperatures, 1000u);
    EXPECT_GT(proper_nouns, 1000u);
    EXPECT_EQ(checked, dates + temperatures + proper_nouns);
  }
}

TEST(StoredMentionsTest, SeededRandomSentencesMatchTheRecognizers) {
  // Words that start, continue or break every recognizer's patterns:
  // numbers, degree signs and scales, proper nouns with middle initials,
  // months and weekdays (never proper nouns), dates and plain words.
  const std::vector<std::string> words = {
      "8",       "46.4",     "-3",         "12",         "2004",
      "31",      "\xC2\xBA", "C",          "F",          "degrees",
      "degree",  "Celsius",  "celsius",    "Fahrenheit", "centigrade",
      "John",    "F.",       ".",          "Kennedy",    "El",
      "Prat",    "Barcelona", "BCN",       "January",    "may",
      "May",     "Monday",   "sunday",     "12th",       "the",
      "of",      ",",        "was",        "in",         "Temperature",
      "today",   "A",        "B.",         "X"};
  Rng rng(24);
  TermDictionary dict;
  CorpusAnalyzer analyzer(&dict);
  size_t checked = 0;
  for (int round = 0; round < 300; ++round) {
    AnalyzedDocument doc;
    const size_t sentences = 1 + rng.NextIndex(4);
    for (size_t s = 0; s < sentences; ++s) {
      std::string text;
      const size_t length = rng.NextIndex(16);
      for (size_t w = 0; w < length; ++w) {
        if (!text.empty() && rng.NextBool(0.85)) text += ' ';
        text += words[rng.NextIndex(words.size())];
      }
      analyzer.AnalyzeSentence(std::move(text), &doc);
    }
    checked += ExpectDocumentMentionsMatch(doc);
  }
  EXPECT_GT(checked, 1000u);
}

}  // namespace
}  // namespace text
}  // namespace dwqa
