#ifndef DWQA_TEXT_ANALYZED_CORPUS_H_
#define DWQA_TEXT_ANALYZED_CORPUS_H_

#include <cstdint>
#include <memory>
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

/// \brief One sentence, analyzed once at indexation time (paper Figure 3:
/// the off-line phase runs the linguistic tools; the search phase only
/// pattern-matches over their output).
struct AnalyzedSentence {
  std::string text;
  /// Tokenized, POS-tagged and lemmatized. No Syntactic Blocks: no
  /// extraction pattern reads passage SBs, so only questions are chunked.
  TokenSequence tokens;
  /// Date mentions (the extraction module's cross-sentence date borrowing
  /// reads these instead of re-running the recognizer).
  std::vector<DateMention> dates;
  /// Interned lowercase form of each token, parallel to `tokens`.
  std::vector<TermId> token_ids;
  /// Interned lemma of each token, parallel to `tokens` (SB-coverage
  /// scoring scans these).
  std::vector<TermId> lemma_ids;
};

/// \brief A document after the one-time indexation analysis.
struct AnalyzedDocument {
  /// The preprocessed plain text the analysis ran on.
  std::string plain;
  std::vector<AnalyzedSentence> sentences;
  size_t token_count = 0;
};

/// Borrowed per-passage view: the cached analyses of a consecutive
/// sentence range. Pointees are owned by an AnalyzedCorpus and must outlive
/// the view.
using SentenceView = std::vector<const AnalyzedSentence*>;

/// \brief Runs the full per-sentence pipeline: tokenize → POS-tag/lemmatize
/// → date recognition → intern. Stateless apart from the dictionary it
/// interns into; cheap to construct.
class CorpusAnalyzer {
 public:
  explicit CorpusAnalyzer(TermDictionary* dict) : dict_(dict) {}

  /// Parallel-indexation variant: interns into the thread-safe shared
  /// interner instead of a TermDictionary. The resulting ids are
  /// provisional and must be remapped before they meet any consumer (see
  /// AnalyzedCorpus::AddBatch).
  explicit CorpusAnalyzer(ShardedTermInterner* shared) : shared_(shared) {}

  AnalyzedSentence AnalyzeSentence(std::string sentence) const;
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
