#include "text/analyzed_corpus.h"

#include <string>

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace dwqa {
namespace text {
namespace {

TEST(CorpusAnalyzerTest, SentenceFieldsAreParallelToTokens) {
  TermDictionary dict;
  CorpusAnalyzer analyzer(&dict);
  AnalyzedDocument doc;
  analyzer.AnalyzeSentence("The temperature in Barcelona was 8 degrees.",
                           &doc);
  const AnalyzedSentence& s = doc.sentences[0];
  ASSERT_FALSE(s.tokens.empty());
  EXPECT_EQ(s.token_ids.size(), s.tokens.size());
  EXPECT_EQ(s.lemma_ids.size(), s.tokens.size());
  for (size_t i = 0; i < s.tokens.size(); ++i) {
    EXPECT_EQ(dict.Term(s.token_ids[i]), ToLower(s.tokens[i].text));
    EXPECT_EQ(dict.Term(s.lemma_ids[i]), s.tokens[i].lemma);
    // SB-coverage scoring finds a question lemma by this lookup.
    EXPECT_EQ(dict.Find(s.tokens[i].lemma), s.lemma_ids[i]);
  }
}

TEST(CorpusAnalyzerTest, DateMentionsAreCached) {
  TermDictionary dict;
  CorpusAnalyzer analyzer(&dict);
  AnalyzedDocument doc;
  analyzer.AnalyzeSentence("Saturday, January 31, 2004 was clear.", &doc);
  ASSERT_FALSE(doc.Dates(0).empty());
}

TEST(CorpusAnalyzerTest, DocumentSplitsIntoSentences) {
  TermDictionary dict;
  CorpusAnalyzer analyzer(&dict);
  AnalyzedDocument doc = analyzer.AnalyzeDocument(
      "Iraq invaded Kuwait in 1990.\nThe invasion started a war.\n");
  EXPECT_EQ(doc.sentences.size(), 2u);
  EXPECT_GT(doc.token_count, 0u);
  // Every sentence lemma belongs to a token the document counts.
  size_t lemmas = 0;
  for (const AnalyzedSentence& s : doc.sentences) {
    EXPECT_NE(doc.plain.find(s.text), std::string::npos);
    EXPECT_EQ(s.lemma_ids.size(), s.tokens.size());
    for (TermId id : s.lemma_ids) EXPECT_NE(id, kInvalidTermId);
    lemmas += s.lemma_ids.size();
  }
  EXPECT_EQ(lemmas, doc.token_count);
}

TEST(AnalyzedCorpusTest, AddFindContains) {
  AnalyzedCorpus corpus;
  EXPECT_FALSE(corpus.Contains(7));
  EXPECT_EQ(corpus.Find(7), nullptr);
  const AnalyzedDocument& doc = corpus.Add(7, "One sentence here.");
  EXPECT_TRUE(corpus.Contains(7));
  EXPECT_EQ(corpus.Find(7), &doc);
  EXPECT_EQ(doc.plain, "One sentence here.");
  EXPECT_EQ(corpus.document_count(), 1u);
  EXPECT_EQ(corpus.sentence_count(), 1u);
}

TEST(AnalyzedCorpusTest, ReAddingADocReplacesItsSentenceCount) {
  AnalyzedCorpus corpus;
  corpus.Add(1, "First.\nSecond.\nThird.");
  EXPECT_EQ(corpus.sentence_count(), 3u);
  corpus.Add(1, "Only one now.");
  EXPECT_EQ(corpus.document_count(), 1u);
  EXPECT_EQ(corpus.sentence_count(), 1u);
}

TEST(AnalyzedCorpusTest, ViewClampsToTheDocument) {
  AnalyzedCorpus corpus;
  const AnalyzedDocument& doc = corpus.Add(1, "First.\nSecond.\nThird.");
  SentenceView middle = corpus.View(1, 1, 1);
  ASSERT_EQ(middle.size(), 1u);
  EXPECT_EQ(&middle[0], &doc.sentences[1]);
  // A range running past the end stops at the last sentence.
  SentenceView tail = corpus.View(1, 1, 99);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(&tail[1], &doc.sentences[2]);
  EXPECT_TRUE(corpus.View(1, 3, 5).empty());
  EXPECT_TRUE(corpus.View(2, 0, 0).empty());
}

TEST(AnalyzedCorpusTest, ClearResetsDictionaryInPlace) {
  AnalyzedCorpus corpus;
  TermDictionary* dict = corpus.mutable_dictionary();
  corpus.Add(1, "Barcelona weather was clear.");
  EXPECT_GT(dict->size(), 0u);
  corpus.Clear();
  // Borrowed pointers stay valid and observe the emptied dictionary.
  EXPECT_EQ(corpus.mutable_dictionary(), dict);
  EXPECT_EQ(dict->size(), 0u);
  EXPECT_EQ(corpus.document_count(), 0u);
  EXPECT_EQ(corpus.sentence_count(), 0u);
}

TEST(AnalyzedCorpusTest, DictionaryPointerSurvivesMove) {
  AnalyzedCorpus corpus;
  corpus.Add(1, "Madrid is in Spain.");
  TermDictionary* dict = corpus.mutable_dictionary();
  AnalyzedCorpus moved = std::move(corpus);
  EXPECT_EQ(moved.mutable_dictionary(), dict);
  ASSERT_NE(moved.Find(1), nullptr);
  EXPECT_EQ(moved.Find(1)->plain, "Madrid is in Spain.");
}

}  // namespace
}  // namespace text
}  // namespace dwqa
