#ifndef DWQA_IR_INVERTED_INDEX_H_
#define DWQA_IR_INVERTED_INDEX_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/trace.h"
#include "ir/document.h"
#include "ir/segmented_index.h"
#include "text/analyzed_corpus.h"

namespace dwqa {

class ThreadPool;

namespace ir {

/// \brief A scored retrieval hit.
struct DocHit {
  DocId doc = kInvalidDoc;
  double score = 0.0;
  /// Number of distinct query terms present.
  size_t matched_terms = 0;
};

/// \brief Classical document-level inverted index with TF-IDF ranking.
///
/// This is the "IR returns whole documents, in which the user has to further
/// search" baseline of the paper (§1): keyword query in, ranked full
/// documents out. Stopwords are discarded at both index and query time.
///
/// Postings are keyed by TermId. The index owns a private TermDictionary by
/// default; constructing it over a shared dictionary (the AnalyzedCorpus's)
/// lets AddAnalyzed reuse token ids interned at analysis time instead of
/// re-tokenizing raw text. Query terms are resolved with a read-only Find
/// (ir/term_pipeline ResolveDocumentQuery), so searching never grows the
/// dictionary.
///
/// Storage is the LSM-style segmented core (ir/segmented_index.h): adds are
/// incremental memtable appends that seal into immutable compressed
/// segments and merge in deterministic tiers, and Search fans out across
/// segments with exact block-max top-k pruning. Results are byte-identical
/// to the former monolithic index for every segment layout; passing
/// `seal_every = 0` in the options *is* the monolithic configuration.
class InvertedIndex {
 public:
  InvertedIndex() : InvertedIndex(SegmentedIndexOptions()) {}
  explicit InvertedIndex(const SegmentedIndexOptions& options)
      : owned_(std::make_unique<TermDictionary>()),
        dict_(owned_.get()),
        core_(std::make_unique<SegmentedDocIndex>(options)) {}

  /// Shares `dict` (must outlive the index). Ids interned by other users of
  /// the same dictionary are directly comparable with this index's.
  explicit InvertedIndex(TermDictionary* dict,
                         const SegmentedIndexOptions& options = {})
      : dict_(dict), core_(std::make_unique<SegmentedDocIndex>(options)) {}

  /// Movable (IndexCorpus replaces its indexes wholesale); the segmented
  /// core is pinned behind the pointer, so cached references survive.
  InvertedIndex(InvertedIndex&&) noexcept = default;
  InvertedIndex& operator=(InvertedIndex&&) noexcept = default;

  /// Indexes the plain text of `doc_id` (caller strips markup first). An
  /// incremental append — a fresh document is searchable immediately, no
  /// rebuild.
  void AddDocument(DocId doc_id, const std::string& plain_text);

  /// Indexes a document from its cached indexation-time analysis: same
  /// postings as AddDocument on the analyzed plain text, no re-tokenization.
  /// Requires the index to share the corpus's dictionary.
  void AddAnalyzed(DocId doc_id, const text::AnalyzedDocument& analysis);

  /// Bulk build: splits `docs` into contiguous shards, builds and seals one
  /// segment per shard concurrently on `pool`, and appends them in shard
  /// order — postings byte-identical to the serial AddAnalyzed loop.
  void AddAnalyzedBatch(
      const std::vector<std::pair<DocId, const text::AnalyzedDocument*>>& docs,
      ThreadPool* pool);

  /// Ranks documents for a keyword query (stopwords dropped, lowercased,
  /// TF-IDF with length normalization). Top `k` hits, best first; ties
  /// break on ascending DocId. Safe concurrently with other searches.
  std::vector<DocHit> Search(const std::string& query, size_t k = 10) const;

  size_t document_count() const { return core_->document_count(); }
  size_t term_count() const { return core_->term_count(); }

  /// Document frequency of `term` (lowercased).
  size_t DocFreq(const std::string& term) const;

  /// Canonical dump of the whole index — every postings list (with term
  /// strings, in TermId order, occurrences in insertion order) and every
  /// document length. Two builds that produce identical dumps are
  /// observationally identical; the golden-equivalence suites compare
  /// these byte for byte across segment layouts and build modes.
  std::string DebugString() const { return core_->DebugString(*dict_); }

  /// Seals the current memtable into a segment (test/ingest hook).
  void SealMemtable() { core_->SealMemtable(); }
  size_t sealed_segment_count() const {
    return core_->sealed_segment_count();
  }
  /// Compressed postings bytes across sealed segments.
  size_t postings_bytes() const { return core_->postings_bytes(); }

  /// Attaches a metrics registry (may be null): every Search records
  /// `dwqa_ir_doc_lookups_total` and a `dwqa_ir_doc_lookup_latency_ms`
  /// observation, and the segmented core feeds the `dwqa_index_*` families
  /// under {index="doc"}. Recording is lock-free, so concurrent searchers
  /// are safe.
  void set_metrics(MetricRegistry* metrics);

  /// Trace sink for `index.seal` / `index.merge` spans (null off).
  void set_trace(TraceRecorder* trace) { core_->set_trace(trace); }

 private:
  std::unique_ptr<TermDictionary> owned_;  ///< Null when dict_ is shared.
  TermDictionary* dict_;
  std::unique_ptr<SegmentedDocIndex> core_;
  /// Cached instruments (null = observability off); stable registry
  /// pointers let Search record without re-resolving the series.
  Counter* lookup_counter_ = nullptr;
  Histogram* lookup_latency_ = nullptr;
};

}  // namespace ir
}  // namespace dwqa

#endif  // DWQA_IR_INVERTED_INDEX_H_
