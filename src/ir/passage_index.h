#ifndef DWQA_IR_PASSAGE_INDEX_H_
#define DWQA_IR_PASSAGE_INDEX_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "ir/document.h"
#include "ir/segmented_index.h"
#include "text/analyzed_corpus.h"

namespace dwqa {

class ThreadPool;

namespace ir {

/// \brief A passage: `size` consecutive sentences of one document (the
/// IR-n retrieval unit — the paper's footnote 6 describes a most-relevant
/// passage of eight consecutive sentences).
struct Passage {
  DocId doc = kInvalidDoc;
  /// Sentence range [first, last] within the document.
  size_t first_sentence = 0;
  size_t last_sentence = 0;
  double score = 0.0;
  /// The passage text (sentences joined by newlines).
  std::string text;
};

/// \brief IR-n-style passage retrieval: documents are split into sentences
/// at index time, and retrieval scores overlapping sentence windows by
/// idf-weighted query-term coverage.
///
/// This is the filtering stage of AliQAn's search phase (paper Figure 3,
/// Module 2): it cuts the amount of text the expensive QA analysis must
/// process — "IR tools are usually run as a first filtering phase, and QA
/// works on IR output. In this way, time of analysis spent by users is
/// highly decreased" (§1).
///
/// Postings are keyed by TermId (see ir/term_pipeline.h for the shared
/// filtering gate and ResolvePassageQuery for the query side). Like
/// InvertedIndex, the index owns a dictionary unless constructed over a
/// shared one, in which case AddAnalyzed reuses the corpus's cached token
/// ids.
///
/// Storage is the LSM-style segmented core (ir/segmented_index.h): adds
/// are incremental appends, and retrieval prunes candidate documents whose
/// score bound cannot reach the current top-k instead of scoring every
/// window — byte-identical results for every segment layout.
class PassageIndex {
 public:
  /// `window` = number of consecutive sentences per passage (clamped to a
  /// minimum of one sentence).
  explicit PassageIndex(size_t window = 8,
                        const SegmentedIndexOptions& options = {})
      : owned_(std::make_unique<TermDictionary>()),
        dict_(owned_.get()),
        core_(std::make_unique<SegmentedPassageIndex>(window, options)) {}

  /// Shares `dict` (must outlive the index).
  PassageIndex(size_t window, TermDictionary* dict,
               const SegmentedIndexOptions& options = {})
      : dict_(dict),
        core_(std::make_unique<SegmentedPassageIndex>(window, options)) {}

  /// Movable (IndexCorpus replaces its indexes wholesale).
  PassageIndex(PassageIndex&&) noexcept = default;
  PassageIndex& operator=(PassageIndex&&) noexcept = default;

  /// Splits and indexes the plain text of `doc_id` — an incremental
  /// append; the document is searchable immediately.
  void AddDocument(DocId doc_id, const std::string& plain_text);

  /// Indexes a document from its cached indexation-time analysis: same
  /// postings and stored sentences as AddDocument on the analyzed plain
  /// text, no re-splitting or re-tokenization. Requires the index to share
  /// the corpus's dictionary.
  void AddAnalyzed(DocId doc_id, const text::AnalyzedDocument& analysis);

  /// Bulk build: one sealed segment per contiguous shard of `docs`, shards
  /// built and sealed concurrently on `pool`, appended in shard order —
  /// postings byte-identical to the serial AddAnalyzed loop.
  void AddAnalyzedBatch(
      const std::vector<std::pair<DocId, const text::AnalyzedDocument*>>& docs,
      ThreadPool* pool);

  /// Top-k passages for the query terms, best first. Adjacent overlapping
  /// windows of the same document are deduplicated (the best one is kept).
  /// Safe concurrently with other searches.
  std::vector<Passage> Search(const std::string& query, size_t k = 5) const;

  /// The stored sentences of a document. The reference stays valid across
  /// seals and merges (sentence text lives outside the segments).
  const std::vector<std::string>& Sentences(DocId doc_id) const {
    return core_->Sentences(doc_id);
  }

  size_t window() const { return core_->window(); }
  size_t document_count() const { return core_->document_count(); }

  /// Canonical dump — every postings list (with term strings, in TermId
  /// order, refs in insertion order) and per-document sentence counts. Used
  /// by the golden-equivalence suites; see InvertedIndex::DebugString.
  std::string DebugString() const { return core_->DebugString(*dict_); }

  /// Seals the current memtable into a segment (test/ingest hook).
  void SealMemtable() { core_->SealMemtable(); }
  size_t sealed_segment_count() const {
    return core_->sealed_segment_count();
  }
  /// Compressed postings bytes across sealed segments.
  size_t postings_bytes() const { return core_->postings_bytes(); }

  /// Attaches a metrics registry (may be null): every Search records
  /// `dwqa_ir_passage_lookups_total` and a
  /// `dwqa_ir_passage_lookup_latency_ms` observation, and the segmented
  /// core feeds the `dwqa_index_*` families under {index="passage"}.
  /// Recording is lock-free, so concurrent searchers are safe.
  void set_metrics(MetricRegistry* metrics);

  /// Trace sink for `index.seal` / `index.merge` spans (null off).
  void set_trace(TraceRecorder* trace) { core_->set_trace(trace); }

 private:
  std::unique_ptr<TermDictionary> owned_;  ///< Null when dict_ is shared.
  TermDictionary* dict_;
  std::unique_ptr<SegmentedPassageIndex> core_;
  /// Cached instruments (null = observability off); stable registry
  /// pointers let Search record without re-resolving the series.
  Counter* lookup_counter_ = nullptr;
  Histogram* lookup_latency_ = nullptr;
};

}  // namespace ir
}  // namespace dwqa

#endif  // DWQA_IR_PASSAGE_INDEX_H_
