#ifndef DWQA_TEXT_ANALYZED_CORPUS_H_
#define DWQA_TEXT_ANALYZED_CORPUS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/thread_pool.h"
#include "text/entities.h"
#include "text/pos_tagger.h"
#include "text/token.h"

namespace dwqa {
namespace text {

/// Half-open range [begin, end) of one sentence's mentions in an
/// AnalyzedDocument's mention array.
struct MentionRange {
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// \brief One sentence, analyzed once at indexation time (paper Figure 3:
/// the off-line phase runs the linguistic tools; the search phase only
/// pattern-matches over their output).
struct AnalyzedSentence {
  std::string text;
  /// Tokenized, POS-tagged and lemmatized. No Syntactic Blocks: no
  /// extraction pattern reads passage SBs, so only questions are chunked.
  TokenSequence tokens;
  /// Interned lowercase form of each token, parallel to `tokens`.
  std::vector<TermId> token_ids;
  /// Interned lemma of each token, parallel to `tokens` (SB-coverage
  /// scoring scans these).
  std::vector<TermId> lemma_ids;
  /// This sentence's date, temperature and proper-noun mentions, as
  /// ranges of its document's `dates`, `temperatures` and `proper_nouns`.
  MentionRange dates;
  MentionRange temperatures;
  MentionRange proper_nouns;
};

/// \brief A document after the one-time indexation analysis.
struct AnalyzedDocument {
  /// The preprocessed plain text the analysis ran on.
  std::string plain;
  std::vector<AnalyzedSentence> sentences;
  /// The date, temperature and proper-noun mentions of every sentence, in
  /// sentence order: what EntityRecognizer::FindDates, FindTemperatures and
  /// FindProperNouns return on the sentence's tokens, without the text. One
  /// array per kind for the whole document keeps them compact. Extraction
  /// reads them instead of re-running the recognizers; the dates also serve
  /// its cross-sentence date borrowing.
  std::vector<DateSpan> dates;
  std::vector<TemperatureSpan> temperatures;
  std::vector<MentionSpan> proper_nouns;
  size_t token_count = 0;

  std::span<const DateSpan> Dates(size_t sentence) const {
    return Range(dates, sentences[sentence].dates);
  }
  std::span<const TemperatureSpan> Temperatures(size_t sentence) const {
    return Range(temperatures, sentences[sentence].temperatures);
  }
  std::span<const MentionSpan> ProperNouns(size_t sentence) const {
    return Range(proper_nouns, sentences[sentence].proper_nouns);
  }

 private:
  template <typename T>
  static std::span<const T> Range(const std::vector<T>& all,
                                  MentionRange range) {
    return std::span<const T>(all.data() + range.begin,
                              range.end - range.begin);
  }
};

/// \brief Borrowed per-passage view: the cached analyses of a consecutive
/// sentence range of one document. The document is owned by an
/// AnalyzedCorpus and must outlive the view.
class SentenceView {
 public:
  SentenceView() = default;
  SentenceView(const AnalyzedDocument* doc, size_t first, size_t size)
      : doc_(doc), first_(first), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const AnalyzedSentence& operator[](size_t i) const {
    return doc_->sentences[first_ + i];
  }

  /// The stored mentions of the view's sentence `i`.
  std::span<const DateSpan> dates(size_t i) const {
    return doc_->Dates(first_ + i);
  }
  std::span<const TemperatureSpan> temperatures(size_t i) const {
    return doc_->Temperatures(first_ + i);
  }
  std::span<const MentionSpan> proper_nouns(size_t i) const {
    return doc_->ProperNouns(first_ + i);
  }

 private:
  const AnalyzedDocument* doc_ = nullptr;
  size_t first_ = 0;
  size_t size_ = 0;
};

/// \brief Runs the full per-sentence pipeline: tokenize → POS-tag/lemmatize
/// → date, temperature and proper-noun recognition → intern. Stateless
/// apart from the dictionary it interns into; cheap to construct.
class CorpusAnalyzer {
 public:
  explicit CorpusAnalyzer(TermDictionary* dict) : dict_(dict) {}

  /// Parallel-indexation variant: interns into the thread-safe shared
  /// interner instead of a TermDictionary. The resulting ids are
  /// provisional and must be remapped before they meet any consumer (see
  /// AnalyzedCorpus::AddBatch).
  explicit CorpusAnalyzer(ShardedTermInterner* shared) : shared_(shared) {}

  /// Analyzes `sentence` and appends it, with its mentions, to `doc`.
  void AnalyzeSentence(std::string sentence, AnalyzedDocument* doc) const;
  AnalyzedDocument AnalyzeDocument(std::string plain) const;

 private:
  TermId Intern(const std::string& term) const {
    return dict_ != nullptr ? dict_->Intern(term) : shared_->Intern(term);
  }

  TermDictionary* dict_ = nullptr;
  ShardedTermInterner* shared_ = nullptr;
  PosTagger tagger_;
};

/// \brief The analyze-once corpus shared across text, IR and QA.
///
/// Ownership: the corpus owns the TermDictionary (heap-allocated so its
/// address survives moves of the owner) and every AnalyzedDocument.
/// Consumers — InvertedIndex, PassageIndex, AnswerExtractor, the
/// degradation ladder, MultidimIr — borrow the dictionary pointer and
/// sentence views; the corpus must outlive them all (in AliQAn it is a
/// member declared before both indexes).
class AnalyzedCorpus {
 public:
  /// Document key; matches ir::DocId without depending on the ir layer.
  using DocKey = int32_t;

  /// Analyzes `plain` and stores it under `doc` (replacing any previous
  /// analysis). The returned reference is stable until Clear().
  const AnalyzedDocument& Add(DocKey doc, std::string plain);

  /// Parallel equivalent of calling Add(keys[i], plains[i]) for every i in
  /// order: linguistic analysis (the dominant cost) runs on `pool` against
  /// a shared thread-safe interner, then a serial merge remaps provisional
  /// term ids into the owned dictionary in document order — replaying the
  /// exact intern sequence of the serial path (per token: lowercase form,
  /// then lemma) — so dictionary ids, lemma ids and every downstream
  /// posting are byte-identical to the serial build for any worker count.
  void AddBatch(const std::vector<DocKey>& keys,
                std::vector<std::string> plains, ThreadPool* pool);

  /// The cached analysis, or nullptr when `doc` was never added.
  const AnalyzedDocument* Find(DocKey doc) const;

  /// The analyses of sentences [first, last] of `doc`, clamped to the
  /// document; empty when `doc` was never added or `first` is past its
  /// end.
  SentenceView View(DocKey doc, size_t first, size_t last) const;

  bool Contains(DocKey doc) const { return docs_.count(doc) > 0; }

  /// The shared interner. The pointer is stable across Add/Clear and across
  /// moves of the corpus.
  TermDictionary* mutable_dictionary() { return dict_.get(); }
  const TermDictionary& dictionary() const { return *dict_; }

  size_t document_count() const { return docs_.size(); }
  /// Total sentences analyzed (the off-line cost the deadline charges).
  size_t sentence_count() const { return sentence_count_; }

  /// Drops all documents and resets the dictionary (in place — borrowed
  /// dictionary pointers stay valid and see the empty dictionary).
  void Clear();

 private:
  std::unique_ptr<TermDictionary> dict_ = std::make_unique<TermDictionary>();
  std::unordered_map<DocKey, AnalyzedDocument> docs_;
  size_t sentence_count_ = 0;
};

}  // namespace text
}  // namespace dwqa

#endif  // DWQA_TEXT_ANALYZED_CORPUS_H_
