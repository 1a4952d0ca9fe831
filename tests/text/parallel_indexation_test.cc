// Serial↔parallel equivalence of the off-line indexation merge:
// AnalyzedCorpus::AddBatch on a pool must produce the same dictionary ids
// (dense, first-seen-in-document-order), the same cached analyses and the
// same sentence accounting as document-by-document Add() — for any worker
// count, because the serial merge replays the exact intern order of the
// serial path.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "text/analyzed_corpus.h"

namespace dwqa {
namespace text {
namespace {

/// A small corpus with heavy cross-document vocabulary overlap (the worst
/// case for interning order) plus per-document unique terms.
std::vector<std::string> TestDocuments() {
  return {
      "The temperature in Barcelona was 8 degrees.\n"
      "Saturday, January 31, 2004 was clear in Barcelona.\n",
      "The temperature in Madrid was 5 degrees.\n"
      "The weather in Madrid was cloudy on Sunday, February 1, 2004.\n",
      "Iraq invaded Kuwait in 1990.\nThe invasion started a war.\n",
      "The airline flies to Kennedy International Airport.\n"
      "JFK serves New York City.\n",
      "The temperature in Valencia reached 21 degrees on a sunny day.\n",
      "Snow fell in the mountains.\nThe roads were closed by the snow.\n",
  };
}

/// The distinct lemma ids of a document, sorted.
std::vector<TermId> DocumentLemmas(const AnalyzedDocument& doc) {
  std::vector<TermId> ids;
  for (const AnalyzedSentence& s : doc.sentences) {
    ids.insert(ids.end(), s.lemma_ids.begin(), s.lemma_ids.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void ExpectDocumentsEqual(const AnalyzedDocument& a,
                          const AnalyzedDocument& b) {
  EXPECT_EQ(a.plain, b.plain);
  EXPECT_EQ(a.token_count, b.token_count);
  EXPECT_EQ(DocumentLemmas(a), DocumentLemmas(b));
  ASSERT_EQ(a.sentences.size(), b.sentences.size());
  for (size_t s = 0; s < a.sentences.size(); ++s) {
    const AnalyzedSentence& sa = a.sentences[s];
    const AnalyzedSentence& sb = b.sentences[s];
    EXPECT_EQ(sa.text, sb.text);
    EXPECT_EQ(sa.token_ids, sb.token_ids) << "sentence " << s;
    EXPECT_EQ(sa.lemma_ids, sb.lemma_ids) << "sentence " << s;
    EXPECT_EQ(sa.tokens.size(), sb.tokens.size());
    EXPECT_EQ(a.Dates(s).size(), b.Dates(s).size());
  }
}

void ExpectBatchMatchesSerial(size_t threads) {
  std::vector<std::string> plains = TestDocuments();
  std::vector<AnalyzedCorpus::DocKey> keys;
  for (size_t i = 0; i < plains.size(); ++i) {
    keys.push_back(AnalyzedCorpus::DocKey(i));
  }

  AnalyzedCorpus serial;
  for (size_t i = 0; i < plains.size(); ++i) {
    serial.Add(keys[i], plains[i]);
  }

  AnalyzedCorpus batched;
  ThreadPool pool(threads);
  batched.AddBatch(keys, plains, &pool);

  EXPECT_EQ(batched.document_count(), serial.document_count());
  EXPECT_EQ(batched.sentence_count(), serial.sentence_count());
  // The dictionaries assign the same dense id to the same string — not just
  // the same size, the same numbering.
  ASSERT_EQ(batched.dictionary().size(), serial.dictionary().size());
  for (TermId id = 0; id < TermId(serial.dictionary().size()); ++id) {
    EXPECT_EQ(batched.dictionary().Term(id), serial.dictionary().Term(id))
        << "id " << id << " with " << threads << " threads";
  }
  for (AnalyzedCorpus::DocKey key : keys) {
    const AnalyzedDocument* a = serial.Find(key);
    const AnalyzedDocument* b = batched.Find(key);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ExpectDocumentsEqual(*a, *b);
  }
}

TEST(ParallelIndexationTest, InlinePoolMatchesSerialAdd) {
  ExpectBatchMatchesSerial(1);
}

TEST(ParallelIndexationTest, TwoWorkersMatchSerialAdd) {
  ExpectBatchMatchesSerial(2);
}

TEST(ParallelIndexationTest, FourWorkersMatchSerialAdd) {
  ExpectBatchMatchesSerial(4);
}

TEST(ParallelIndexationTest, MoreWorkersThanDocumentsMatchSerialAdd) {
  ExpectBatchMatchesSerial(16);
}

TEST(ParallelIndexationTest, BatchReplacesPreviousAnalyses) {
  // AddBatch has Add()'s replace semantics: re-adding a key swaps the
  // analysis and keeps the sentence accounting straight.
  AnalyzedCorpus corpus;
  corpus.Add(0, "One sentence.\n");
  corpus.Add(1, "First.\nSecond.\n");
  ASSERT_EQ(corpus.sentence_count(), 3u);
  ThreadPool pool(2);
  corpus.AddBatch({0, 2}, {"Now two.\nSentences here.\n", "Third doc.\n"},
                  &pool);
  EXPECT_EQ(corpus.document_count(), 3u);
  EXPECT_EQ(corpus.sentence_count(), 5u);
  ASSERT_NE(corpus.Find(0), nullptr);
  EXPECT_EQ(corpus.Find(0)->sentences.size(), 2u);
}

TEST(ParallelIndexationTest, EmptyBatchIsANoOp) {
  AnalyzedCorpus corpus;
  ThreadPool pool(4);
  corpus.AddBatch({}, {}, &pool);
  EXPECT_EQ(corpus.document_count(), 0u);
  EXPECT_EQ(corpus.dictionary().size(), 0u);
}

}  // namespace
}  // namespace text
}  // namespace dwqa
