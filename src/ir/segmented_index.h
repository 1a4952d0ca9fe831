#ifndef DWQA_IR_SEGMENTED_INDEX_H_
#define DWQA_IR_SEGMENTED_INDEX_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "ir/segment.h"

namespace dwqa {

class ThreadPool;

namespace ir {

struct DocHit;
struct Passage;

/// \file segmented_index.h
/// \brief LSM-style segmented index cores: a mutable memtable plus a
/// manifest of immutable sealed segments (ir/segment.h), with tiered
/// merging and block-max top-k pruning.
///
/// One lifecycle serves both index kinds: `SegmentManifest<Segment>` owns
/// the memtable → seal → tiered merge → snapshot-reader cycle, the global
/// document frequencies and the shared `dwqa_index_*` instruments, and is
/// explicitly instantiated for DocSegment and PassageSegment in
/// segmented_index.cc. `SegmentedDocIndex` and `SegmentedPassageIndex`
/// derive from it and add only what differs per kind: the scoring
/// (SearchTopK), the canonical dump, and for passages the sentence table.
///
/// `InvertedIndex` and `PassageIndex` re-seat on these cores: AddDocument/
/// AddAnalyzed become incremental appends (a freshly fetched page is
/// searchable without a rebuild), and Search fans out across segments,
/// merging top-k results with exact score-bound pruning.
///
/// **Determinism.** Results are byte-identical regardless of segment count:
/// segments keep documents in insertion order, merges concatenate adjacent
/// segments (preserving manifest order), per-document scores accumulate in
/// the same sorted-unique query-term order as the monolithic code, pruning
/// only ever discards candidates strictly below the current top-k
/// threshold, and the final (score, id) sort is a total order.
/// `seal_every = 0` disables sealing entirely — the pure-memtable
/// configuration *is* the old monolithic index.
///
/// **Concurrency contract.** Reads (Search*/DebugString/counters) are safe
/// concurrently with each other; writers (Add*/Seal*) require external
/// exclusion from both readers and other writers — the same quiescent-index
/// contract the serving layer already relies on. Merges run inline on the
/// writer at the seal point that pushed the manifest over the trigger.
struct SegmentedIndexOptions {
  /// Memtable documents per sealed segment. 0 = never seal (monolithic
  /// mode: one mutable memtable, no merges, no pruning metadata).
  size_t seal_every = 64;
  /// Sealed-segment count above which a merge is triggered: the adjacent
  /// pair with the fewest combined documents (leftmost on ties) merges
  /// into one, repeatedly, until the manifest is back at or below the
  /// trigger. Deterministic: depends only on the manifest shape. Values
  /// below 1 act as 1.
  size_t merge_trigger = 8;
  /// Postings per block of the sealed lists (block-max skip granularity).
  size_t block_postings = 128;
};

/// \brief The lifecycle shared by both index kinds: memtable appends,
/// seals, the sealed manifest with its tiered merges, snapshot reads,
/// global document frequencies and the `dwqa_index_*` instruments.
template <typename Segment>
class SegmentManifest {
 public:
  using Builder = typename Segment::Builder;

  /// Clamps `merge_trigger` to at least 1: a manifest of one segment has
  /// no adjacent pair to merge.
  explicit SegmentManifest(SegmentedIndexOptions options);

  SegmentManifest(const SegmentManifest&) = delete;
  SegmentManifest& operator=(const SegmentManifest&) = delete;

  /// Appends one document (writer API) — `terms` are the rest of the
  /// kind's Builder::Add arguments — and seals the memtable when it
  /// reaches `seal_every` documents.
  template <typename... Terms>
  void Add(DocId doc, const Terms&... terms) {
    memtable_.Add(doc, terms..., &df_);
    ++total_docs_;
    if (options_.seal_every > 0 &&
        memtable_.doc_count() >= options_.seal_every) {
      SealMemtable();
    }
  }

  /// Bulk build of documents [0, `count`): splits them into contiguous
  /// shards, one per `pool` worker, fills each shard's builder with
  /// `add(builder, i)` (shards run concurrently on `pool`; null = serial),
  /// seals the shards in parallel and appends them in shard order —
  /// postings byte-identical to `count` serial Adds.
  void AddBatch(size_t count, ThreadPool* pool,
                const std::function<void(Builder*, size_t)>& add);

  /// Seals the current memtable (no-op when empty or seal_every == 0).
  void SealMemtable();

  size_t document_count() const { return total_docs_; }
  size_t term_count() const { return df_.size(); }
  /// Documents containing the term, across all segments and the memtable.
  size_t DocFreq(TermId term) const;

  size_t sealed_segment_count() const;
  /// Compressed postings bytes across sealed segments.
  size_t postings_bytes() const;

  /// Attaches the `dwqa_index_*` instruments under the label
  /// {index="doc"|"passage"}; null turns instrumentation off.
  void set_metrics(MetricRegistry* metrics);
  /// Trace sink for `index.seal` / `index.merge` spans (null off).
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 protected:
  struct Instruments {
    Counter* seals = nullptr;
    Counter* merges = nullptr;
    Histogram* merge_latency = nullptr;
    Gauge* segments = nullptr;
    Gauge* postings_bytes = nullptr;
    Counter* pruned_segments = nullptr;
    Counter* pruned_candidates = nullptr;
    /// The kind's own pruning counter: posting blocks skipped undecoded
    /// (doc) or sentence windows skipped unscored (passage).
    Counter* pruned_kind = nullptr;
  };

  /// The sealed manifest as of now. Segments are immutable, so a later
  /// merge swapping the manifest cannot invalidate the reader's view.
  std::vector<std::shared_ptr<const Segment>> Snapshot() const;

  /// Mutable memtable (writer-owned; merges never touch it).
  Builder memtable_;
  /// Global per-term document frequency and document total — maintained
  /// incrementally at add time, invariant under seal/merge.
  DocFreqMap df_;
  size_t total_docs_ = 0;
  Instruments metrics_;

 private:
  void AddSealedShards(std::vector<Builder> shards, ThreadPool* pool);
  void AppendSealed(std::shared_ptr<const Segment> segment);
  /// Runs merges until the manifest is at or below the trigger. Requires
  /// `lock` held on mu_; released around each merge.
  void MergeToTriggerLocked(std::unique_lock<std::mutex>* lock);
  void RunMerge(std::shared_ptr<const Segment> left,
                std::shared_ptr<const Segment> right);
  void UpdateManifestGaugesLocked();

  SegmentedIndexOptions options_;
  /// Sealed manifest in document order; guarded by mu_ (readers snapshot
  /// it, the merge swaps adjacent entries in place).
  std::vector<std::shared_ptr<const Segment>> sealed_;
  size_t sealed_bytes_ = 0;

  mutable std::mutex mu_;

  TraceRecorder* trace_ = nullptr;
};

extern template class SegmentManifest<DocSegment>;
extern template class SegmentManifest<PassageSegment>;

/// \brief Segmented core of the document-level InvertedIndex.
class SegmentedDocIndex : public SegmentManifest<DocSegment> {
 public:
  explicit SegmentedDocIndex(SegmentedIndexOptions options)
      : SegmentManifest(options) {}

  /// Exact top-`k` hits for the resolved query terms, best first
  /// (score desc, DocId asc). `ids` must be in sorted-unique term order
  /// (ir/term_pipeline ResolveDocumentQuery) — score accumulation order is
  /// part of the byte-identity contract.
  std::vector<DocHit> SearchTopK(const std::vector<TermId>& ids,
                                 size_t k) const;

  /// Canonical dump, byte-identical to the monolithic index's for the same
  /// insertion order: postings per term (TermId order, refs in insertion
  /// order) then per-document lengths.
  std::string DebugString(const TermDictionary& dict) const;
};

/// \brief Segmented core of the IR-n PassageIndex.
///
/// Sentence text lives in an index-level doc→sentences table (never inside
/// segments), so the references PassageIndex::Sentences hands out survive
/// seals and merges. A search runs in two passes. The visit pass reads
/// only group headers (EncodeRefGroups): per candidate document, the window
/// formula on its per-term match counts, capped at the window length since
/// a term has at most one ref per sentence, bounds every window score, and
/// the document is queued with that bound and where its refs are. The
/// score pass takes documents best bound first, decodes and scores each,
/// and stops at the first bound strictly below the current k-th selected
/// window score: the rest are pruned with their refs undecoded. Sealed
/// segments are visited in descending segment bound, each after the queued
/// documents bounding above it, so a segment below the threshold is
/// skipped whole. Scoring is linear in the decoded refs (times the query
/// length): the refs are merged into sentence order and a two-pointer
/// window slides over them with one reused occurrence-count vector.
class SegmentedPassageIndex : public SegmentManifest<PassageSegment> {
 public:
  SegmentedPassageIndex(size_t window, SegmentedIndexOptions options)
      : SegmentManifest(options), window_(window < 1 ? 1 : window) {}

  /// Stores the sentence text of `doc` (writer API), whose terms are
  /// added through Add/AddBatch.
  void SetSentences(DocId doc, std::vector<std::string> sentences);

  /// Exact top-`k` passages, best first (score desc, DocId asc, first
  /// sentence asc), windows of `window()` sentences, overlapping windows
  /// of one document deduplicated — byte-identical to the monolithic
  /// PassageIndex::Search. `ids` per ResolvePassageQuery order.
  std::vector<Passage> SearchTopK(const std::vector<TermId>& ids,
                                  size_t k) const;

  const std::vector<std::string>& Sentences(DocId doc) const;
  size_t window() const { return window_; }

  std::string DebugString(const TermDictionary& dict) const;

 private:
  size_t window_;
  /// doc → sentences; address-stable across seals and merges.
  std::unordered_map<DocId, std::vector<std::string>> sentences_;
  /// Sentence count per non-negative DocId (0 for a document without
  /// sentences), so scoring a document reads its window clamp without a
  /// hash lookup.
  std::vector<uint32_t> sentence_counts_;
};

}  // namespace ir
}  // namespace dwqa

#endif  // DWQA_IR_SEGMENTED_INDEX_H_
