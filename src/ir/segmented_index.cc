#include "ir/segmented_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>
#include <sstream>

#include "common/metric_names.h"
#include "common/thread_pool.h"
#include "ir/inverted_index.h"
#include "ir/passage_index.h"

namespace dwqa {
namespace ir {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Min-heap of the best k scores seen so far. `value()` is the current
/// k-th best — the exact pruning threshold: a candidate with an upper
/// bound strictly below it cannot enter the top k, not even as a tie, so
/// skipping it never changes the result.
class TopKThreshold {
 public:
  explicit TopKThreshold(size_t k) : k_(k) {}
  void Push(double score) {
    if (k_ == 0) return;  // Nothing to rank against: never full.
    if (heap_.size() < k_) {
      heap_.push(score);
    } else if (score > heap_.top()) {
      heap_.pop();
      heap_.push(score);
    }
  }
  bool full() const { return k_ > 0 && heap_.size() >= k_; }
  double value() const { return heap_.top(); }

 private:
  size_t k_;
  std::priority_queue<double, std::vector<double>, std::greater<double>> heap_;
};

void Bump(Counter* counter, double delta = 1.0) {
  if (counter != nullptr && delta != 0.0) counter->Increment(delta);
}

/// Picks the adjacent sealed pair with the fewest combined documents
/// (leftmost on ties). Deterministic tiered policy: small young segments
/// coalesce first, old big ones are rewritten rarely.
template <typename Seg>
size_t PickMergePair(const std::vector<std::shared_ptr<const Seg>>& sealed) {
  size_t best = 0;
  size_t best_docs = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i + 1 < sealed.size(); ++i) {
    size_t docs = sealed[i]->doc_count() + sealed[i + 1]->doc_count();
    if (docs < best_docs) {
      best_docs = docs;
      best = i;
    }
  }
  return best;
}

/// Replaces the (still adjacent) pair `left`/`right` in `sealed` with
/// `merged`. Appends only happen at the tail and one merge runs at a time,
/// so the pair found by pointer identity is the pair that was planned.
template <typename Seg>
void SpliceMerged(std::vector<std::shared_ptr<const Seg>>* sealed,
                  const Seg* left, std::shared_ptr<const Seg> merged) {
  for (size_t i = 0; i + 1 < sealed->size(); ++i) {
    if ((*sealed)[i].get() == left) {
      (*sealed)[i] = std::move(merged);
      sealed->erase(sealed->begin() + static_cast<std::ptrdiff_t>(i) + 1);
      return;
    }
  }
}

/// Adds each term's distinct documents in `builder` to `df`. A term's
/// ordinals are non-decreasing, so each run of equal ordinals is one doc.
template <typename Builder>
void CountDocFreq(const Builder& builder, DocFreqMap* df) {
  for (const auto& [term, pairs] : builder.postings) {
    size_t& count = (*df)[term];
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (i == 0 || pairs[i].first != pairs[i - 1].first) ++count;
    }
  }
}

/// What the shared core knows of each segment kind: its `index` label
/// value and the pruning counters whose meaning differs per kind.
template <typename Segment>
struct KindInfo;

template <>
struct KindInfo<DocSegment> {
  static constexpr const char* kIndex = "doc";
  static constexpr const char* kPrunedCandidatesHelp =
      "Candidate documents skipped unscored by the block-max bound";
  static constexpr const char* kPrunedKind = kMetricIndexPrunedBlocks;
  static constexpr const char* kPrunedKindHelp =
      "Posting blocks skipped undecoded by the block-max bound";
};

template <>
struct KindInfo<PassageSegment> {
  static constexpr const char* kIndex = "passage";
  static constexpr const char* kPrunedCandidatesHelp =
      "Candidate documents skipped unscored by the score bound";
  static constexpr const char* kPrunedKind = kMetricIndexPrunedWindows;
  static constexpr const char* kPrunedKindHelp =
      "Sentence refs of candidate documents skipped undecoded by the score "
      "bound";
};

/// Forward cursor over the document groups of the memtable's uncompressed
/// (ordinal, sentence) refs — the RefGroupCursor interface, so one visit
/// reads both kinds of source. A document's refs are contiguous, so a
/// group is an index range and its refs offset is its first index.
class MemtableGroupCursor {
 public:
  using Refs = std::vector<std::pair<uint32_t, uint32_t>>;
  explicit MemtableGroupCursor(const Refs* refs) : refs_(refs) { FindEnd(); }
  bool done() const { return begin_ >= refs_->size(); }
  uint32_t ordinal() const { return (*refs_)[begin_].first; }
  uint32_t count() const { return static_cast<uint32_t>(end_ - begin_); }
  size_t refs_offset() const { return begin_; }
  void Next() {
    begin_ = end_;
    FindEnd();
  }

 private:
  void FindEnd() {
    end_ = begin_;
    while (end_ < refs_->size() &&
           (*refs_)[end_].first == (*refs_)[begin_].first) {
      ++end_;
    }
  }

  const Refs* refs_;
  size_t begin_ = 0;
  size_t end_ = 0;
};

/// One query term's cursor over one source; `term` indexes the query and
/// `list` is the sealed ref groups the cursor reads (null: the memtable).
template <typename Cursor>
struct TermCursor {
  size_t term;
  const PostingList* list;
  Cursor cursor;
};

}  // namespace

// ---------------------------------------------------------------------------
// SegmentManifest — the lifecycle shared by both index kinds
// ---------------------------------------------------------------------------

template <typename Segment>
SegmentManifest<Segment>::SegmentManifest(SegmentedIndexOptions options)
    : options_(options) {
  options_.merge_trigger = std::max<size_t>(1, options_.merge_trigger);
}

template <typename Segment>
void SegmentManifest<Segment>::SealMemtable() {
  if (memtable_.empty() || options_.seal_every == 0) return;
  Span span(trace_, "index.seal");
  span.Annotate("index", KindInfo<Segment>::kIndex);
  span.Annotate("docs", static_cast<double>(memtable_.doc_count()));
  auto segment = Segment::Seal(std::move(memtable_), options_.block_postings);
  memtable_ = Builder();
  AppendSealed(std::move(segment));
}

template <typename Segment>
void SegmentManifest<Segment>::AddBatch(
    size_t count, ThreadPool* pool,
    const std::function<void(Builder*, size_t)>& add) {
  size_t shard_count = pool == nullptr ? 1 : std::max<size_t>(
                                                 1, pool->worker_count());
  shard_count = std::min(shard_count, std::max<size_t>(1, count));
  size_t per_shard = (count + shard_count - 1) / shard_count;
  std::vector<Builder> shards(shard_count);
  auto build_shard = [&](size_t s) {
    size_t end = std::min((s + 1) * per_shard, count);
    for (size_t i = s * per_shard; i < end; ++i) add(&shards[s], i);
  };
  if (pool != nullptr) {
    pool->ParallelFor(shard_count, build_shard);
  } else {
    for (size_t s = 0; s < shard_count; ++s) build_shard(s);
  }
  AddSealedShards(std::move(shards), pool);
}

template <typename Segment>
void SegmentManifest<Segment>::AddSealedShards(std::vector<Builder> shards,
                                               ThreadPool* pool) {
  for (const Builder& shard : shards) {
    CountDocFreq(shard, &df_);
    total_docs_ += shard.doc_count();
  }
  if (options_.seal_every == 0) {
    // Monolithic mode stays pure-memtable: splice the shards into the
    // memtable in shard order — indistinguishable from serial Adds.
    for (Builder& shard : shards) AppendBuilder(&memtable_, std::move(shard));
    return;
  }
  SealMemtable();  // Anything already buffered keeps its place in order.
  std::vector<std::shared_ptr<const Segment>> segments(shards.size());
  auto seal_one = [&](size_t i) {
    if (shards[i].empty()) return;
    segments[i] = Segment::Seal(std::move(shards[i]), options_.block_postings);
  };
  if (pool != nullptr) {
    pool->ParallelFor(shards.size(), seal_one);
  } else {
    for (size_t i = 0; i < shards.size(); ++i) seal_one(i);
  }
  for (auto& segment : segments) {
    if (segment != nullptr) AppendSealed(std::move(segment));
  }
}

template <typename Segment>
void SegmentManifest<Segment>::AppendSealed(
    std::shared_ptr<const Segment> segment) {
  std::unique_lock<std::mutex> lock(mu_);
  sealed_bytes_ += segment->postings_bytes();
  sealed_.push_back(std::move(segment));
  Bump(metrics_.seals);
  UpdateManifestGaugesLocked();
  MergeToTriggerLocked(&lock);
}

template <typename Segment>
void SegmentManifest<Segment>::MergeToTriggerLocked(
    std::unique_lock<std::mutex>* lock) {
  while (sealed_.size() > options_.merge_trigger) {
    size_t i = PickMergePair(sealed_);
    auto left = sealed_[i];
    auto right = sealed_[i + 1];
    lock->unlock();
    {
      Span span(trace_, "index.merge");
      span.Annotate("index", KindInfo<Segment>::kIndex);
      span.Annotate("docs",
                    static_cast<double>(left->doc_count() + right->doc_count()));
      RunMerge(left, right);
    }
    lock->lock();
  }
}

template <typename Segment>
void SegmentManifest<Segment>::RunMerge(std::shared_ptr<const Segment> left,
                                        std::shared_ptr<const Segment> right) {
  auto start = std::chrono::steady_clock::now();
  auto merged = Segment::Merge(*left, *right, options_.block_postings);
  std::lock_guard<std::mutex> lock(mu_);
  sealed_bytes_ += merged->postings_bytes();
  sealed_bytes_ -= left->postings_bytes() + right->postings_bytes();
  SpliceMerged(&sealed_, left.get(), std::move(merged));
  Bump(metrics_.merges);
  if (metrics_.merge_latency != nullptr) {
    metrics_.merge_latency->Observe(MsSince(start));
  }
  UpdateManifestGaugesLocked();
}

template <typename Segment>
void SegmentManifest<Segment>::UpdateManifestGaugesLocked() {
  if (metrics_.segments != nullptr) {
    metrics_.segments->Set(static_cast<double>(sealed_.size()));
  }
  if (metrics_.postings_bytes != nullptr) {
    metrics_.postings_bytes->Set(static_cast<double>(sealed_bytes_));
  }
}

template <typename Segment>
std::vector<std::shared_ptr<const Segment>> SegmentManifest<Segment>::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_;
}

template <typename Segment>
size_t SegmentManifest<Segment>::DocFreq(TermId term) const {
  auto it = df_.find(term);
  return it == df_.end() ? 0 : it->second;
}

template <typename Segment>
size_t SegmentManifest<Segment>::sealed_segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_.size();
}

template <typename Segment>
size_t SegmentManifest<Segment>::postings_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_bytes_;
}

template <typename Segment>
void SegmentManifest<Segment>::set_metrics(MetricRegistry* metrics) {
  if (metrics == nullptr) {
    metrics_ = Instruments();
    return;
  }
  using Kind = KindInfo<Segment>;
  MetricLabels labels = {{"index", Kind::kIndex}};
  metrics_.seals = metrics->GetCounter(kMetricIndexSeals, labels,
                                       "Memtables sealed into segments");
  metrics_.merges =
      metrics->GetCounter(kMetricIndexMerges, labels, "Segment merges run");
  metrics_.merge_latency = metrics->GetHistogram(
      kMetricIndexMergeLatency, labels, MetricRegistry::LatencyBucketsMs(),
      "Wall time of segment merges");
  metrics_.segments = metrics->GetGauge(kMetricIndexSegments, labels,
                                        "Sealed segments in the manifest");
  metrics_.postings_bytes =
      metrics->GetGauge(kMetricIndexPostingsBytes, labels,
                        "Compressed postings bytes across sealed segments");
  metrics_.pruned_segments = metrics->GetCounter(
      kMetricIndexPrunedSegments, labels,
      "Whole segments skipped by the top-k score bound");
  metrics_.pruned_candidates = metrics->GetCounter(
      kMetricIndexPrunedCandidates, labels, Kind::kPrunedCandidatesHelp);
  metrics_.pruned_kind =
      metrics->GetCounter(Kind::kPrunedKind, labels, Kind::kPrunedKindHelp);
}

template class SegmentManifest<DocSegment>;
template class SegmentManifest<PassageSegment>;

// ---------------------------------------------------------------------------
// SegmentedDocIndex
// ---------------------------------------------------------------------------

std::vector<DocHit> SegmentedDocIndex::SearchTopK(
    const std::vector<TermId>& ids, size_t k) const {
  // The memtable is read directly — writers are externally excluded.
  std::vector<std::shared_ptr<const DocSegment>> sealed = Snapshot();
  const double n_docs = static_cast<double>(total_docs_);
  struct QueryTerm {
    TermId id;
    double idf;
  };
  std::vector<QueryTerm> query;
  query.reserve(ids.size());
  for (TermId id : ids) {
    auto it = df_.find(id);
    if (it == df_.end() || it->second == 0) continue;
    query.push_back(
        {id, std::log((n_docs + 1.0) / static_cast<double>(it->second))});
  }
  std::vector<DocHit> hits;
  if (query.empty()) return hits;
  TopKThreshold theta(k);

  // The memtable first: it is free to score (no decode) and warms the
  // pruning threshold before the sealed segments are visited.
  {
    struct Cursor {
      const std::vector<std::pair<uint32_t, uint32_t>>* pairs;
      size_t pos = 0;
      double idf;
    };
    std::vector<Cursor> cursors;
    for (const QueryTerm& t : query) {
      auto it = memtable_.postings.find(t.id);
      if (it == memtable_.postings.end()) continue;
      cursors.push_back({&it->second, 0, t.idf});
    }
    while (true) {
      uint32_t candidate = std::numeric_limits<uint32_t>::max();
      for (const Cursor& c : cursors) {
        if (c.pos < c.pairs->size()) {
          candidate = std::min(candidate, (*c.pairs)[c.pos].first);
        }
      }
      if (candidate == std::numeric_limits<uint32_t>::max()) break;
      uint32_t raw_len = memtable_.lengths[candidate];
      double len = raw_len == 0 ? 1.0 : static_cast<double>(raw_len);
      DocHit hit;
      hit.doc = memtable_.docs[candidate];
      // Contributions accumulate in query-term order — the same floating-
      // point summation order as the monolithic per-term loop.
      for (Cursor& c : cursors) {
        if (c.pos >= c.pairs->size() || (*c.pairs)[c.pos].first != candidate) {
          continue;
        }
        hit.score += (static_cast<double>((*c.pairs)[c.pos].second) /
                      std::sqrt(len)) *
                     c.idf;
        ++hit.matched_terms;
        ++c.pos;
      }
      theta.Push(hit.score);
      hits.push_back(hit);
    }
  }

  for (const auto& segment : sealed) {
    struct Cursor {
      PostingCursor cursor;
      double idf;
    };
    std::vector<Cursor> cursors;
    double segment_bound = 0.0;
    for (const QueryTerm& t : query) {
      const PostingList* list = segment->Find(t.id);
      if (list == nullptr) continue;
      segment_bound += t.idf * list->max_weight;
      cursors.push_back({PostingCursor(list), t.idf});
    }
    if (cursors.empty()) continue;
    // Whole-segment skip: no document in it can reach the k-th score.
    if (theta.full() && segment_bound < theta.value()) {
      Bump(metrics_.pruned_segments);
      continue;
    }
    while (true) {
      // Single-term lists support true block skips: a block whose best
      // posting cannot reach the threshold is stepped over undecoded.
      if (cursors.size() == 1 && theta.full()) {
        Cursor& c = cursors[0];
        while (!c.cursor.done() &&
               c.idf * c.cursor.block_max() < theta.value()) {
          Bump(metrics_.pruned_kind);
          c.cursor.SkipBlock();
        }
      }
      uint32_t candidate = std::numeric_limits<uint32_t>::max();
      for (const Cursor& c : cursors) {
        if (!c.cursor.done()) {
          candidate = std::min(candidate, c.cursor.ordinal());
        }
      }
      if (candidate == std::numeric_limits<uint32_t>::max()) break;
      // Candidate-level block-max bound: the sum of the participating
      // cursors' current block maxima, in the same term order (and with
      // per-term weights no smaller than) the actual score — monotone
      // IEEE rounding makes the summed bound a true bound.
      double bound = 0.0;
      for (const Cursor& c : cursors) {
        if (!c.cursor.done() && c.cursor.ordinal() == candidate) {
          bound += c.idf * c.cursor.block_max();
        }
      }
      if (theta.full() && bound < theta.value()) {
        Bump(metrics_.pruned_candidates);
        for (Cursor& c : cursors) {
          if (!c.cursor.done() && c.cursor.ordinal() == candidate) {
            c.cursor.Next();
          }
        }
        continue;
      }
      uint32_t raw_len = segment->length(candidate);
      double len = raw_len == 0 ? 1.0 : static_cast<double>(raw_len);
      DocHit hit;
      hit.doc = segment->doc(candidate);
      for (Cursor& c : cursors) {
        if (c.cursor.done() || c.cursor.ordinal() != candidate) continue;
        hit.score += (static_cast<double>(c.cursor.payload()) /
                      std::sqrt(len)) *
                     c.idf;
        ++hit.matched_terms;
        c.cursor.Next();
      }
      theta.Push(hit.score);
      hits.push_back(hit);
    }
  }

  // Total order — segment layout and visit order cannot influence it.
  std::sort(hits.begin(), hits.end(), [](const DocHit& a, const DocHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;  // Deterministic tie-break.
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

std::string SegmentedDocIndex::DebugString(const TermDictionary& dict) const {
  std::vector<std::shared_ptr<const DocSegment>> sealed = Snapshot();
  std::ostringstream out;
  std::vector<TermId> term_ids;
  term_ids.reserve(df_.size());
  for (const auto& [term, unused] : df_) term_ids.push_back(term);
  std::sort(term_ids.begin(), term_ids.end());
  for (TermId term : term_ids) {
    out << term << '=' << dict.Term(term) << ':';
    for (const auto& segment : sealed) {
      const PostingList* list = segment->Find(term);
      if (list == nullptr) continue;
      ForEachPosting(*list, [&](uint32_t ordinal, uint32_t tf) {
        out << ' ' << segment->doc(ordinal) << 'x' << tf;
      });
    }
    auto it = memtable_.postings.find(term);
    if (it != memtable_.postings.end()) {
      for (const auto& [ordinal, tf] : it->second) {
        out << ' ' << memtable_.docs[ordinal] << 'x' << tf;
      }
    }
    out << '\n';
  }
  std::vector<std::pair<DocId, uint32_t>> lengths;
  lengths.reserve(total_docs_);
  for (const auto& segment : sealed) {
    for (uint32_t ordinal = 0; ordinal < segment->doc_count(); ++ordinal) {
      lengths.push_back({segment->doc(ordinal), segment->length(ordinal)});
    }
  }
  for (size_t i = 0; i < memtable_.doc_count(); ++i) {
    lengths.push_back({memtable_.docs[i], memtable_.lengths[i]});
  }
  std::sort(lengths.begin(), lengths.end());
  for (const auto& [doc, len] : lengths) {
    out << "len " << doc << '=' << len << '\n';
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// SegmentedPassageIndex
// ---------------------------------------------------------------------------

const std::vector<std::string>& SegmentedPassageIndex::Sentences(
    DocId doc) const {
  static const std::vector<std::string> kEmpty;
  auto it = sentences_.find(doc);
  return it == sentences_.end() ? kEmpty : it->second;
}

void SegmentedPassageIndex::SetSentences(DocId doc,
                                         std::vector<std::string> sentences) {
  if (doc >= 0) {
    size_t slot = static_cast<size_t>(doc);
    if (slot >= sentence_counts_.size()) sentence_counts_.resize(slot + 1, 0);
    sentence_counts_[slot] = static_cast<uint32_t>(sentences.size());
  }
  sentences_[doc] = std::move(sentences);
}

std::vector<Passage> SegmentedPassageIndex::SearchTopK(
    const std::vector<TermId>& ids, size_t k) const {
  std::vector<std::shared_ptr<const PassageSegment>> sealed = Snapshot();
  const double n_docs = static_cast<double>(sentences_.size());
  struct QueryTerm {
    TermId id;
    double idf;
  };
  std::vector<QueryTerm> query;
  for (TermId id : ids) {
    auto it = df_.find(id);
    if (it == df_.end() || it->second == 0) continue;
    query.push_back(
        {id, std::log((n_docs + 1.0) / static_cast<double>(it->second))});
  }
  if (query.empty()) return {};
  constexpr double kRepeatBonus = 0.05;
  // Sums the window formula over the query terms, in query order, for
  // per-term matched-sentence counts — the one summation every bound and
  // window score goes through, so equal counts give bit-equal scores.
  auto score_counts = [&](const std::vector<uint32_t>& counts) {
    double score = 0.0;
    for (size_t t = 0; t < query.size(); ++t) {
      if (counts[t] == 0) continue;
      score += query[t].idf + kRepeatBonus * query[t].idf *
                                  static_cast<double>(counts[t] - 1);
    }
    return score;
  };

  // A term has at most one ref per sentence and a window spans at most
  // `window_` sentences, so no window count exceeds this cap.
  const uint32_t window_cap = static_cast<uint32_t>(
      std::min<size_t>(window_, std::numeric_limits<uint32_t>::max()));

  TopKThreshold theta(k);
  // A scored window: sentences [first, last] of `doc`. The text is built
  // only for the k windows returned.
  struct Window {
    double score;
    DocId doc;
    uint32_t first;
    uint32_t last;
  };
  std::vector<Window> candidates;

  // One matched sentence of the current document: which sentence, which
  // query term.
  struct Hit {
    uint32_t sentence;
    uint32_t term;
  };
  // One query term's refs within term_hits: [pos, end).
  struct Run {
    size_t pos;
    size_t end;
  };
  // Where one query term's refs of a visited document are, undecoded:
  // `count` refs from `offset` — a byte offset into the sealed `list`'s
  // ref groups, or an index into the memtable's refs when `list` is null.
  struct RefSpan {
    const PostingList* list;
    uint32_t term;
    uint32_t count;
    size_t offset;
  };
  // A visited document awaiting its score: its bound and its RefSpans,
  // spans[spans_begin, spans_end).
  struct Pending {
    double bound;
    DocId doc;
    uint32_t spans_begin;
    uint32_t spans_end;
  };
  // Heap order: best bound first, lower DocId first among equal bounds.
  auto lower_priority = [](const Pending& a, const Pending& b) {
    if (a.bound != b.bound) return a.bound < b.bound;
    return a.doc > b.doc;
  };
  std::vector<RefSpan> spans;
  std::vector<Pending> pending;  // A max-heap under lower_priority.
  std::vector<const MemtableGroupCursor::Refs*> memtable_refs(query.size(),
                                                              nullptr);
  // Buffers reused across documents: the document's hits term by term
  // and then in (sentence, term) order, per-term counts over the document
  // and over the sliding window, and the document's scored windows.
  std::vector<Hit> term_hits;
  std::vector<Run> runs;
  std::vector<Hit> doc_hits;
  std::vector<uint32_t> doc_counts(query.size());
  std::vector<uint32_t> window_counts(query.size());
  std::vector<Window> windows;
  std::vector<const Window*> selected;

  // Scores one surviving document's windows — one per matched sentence —
  // then greedily keeps its non-overlapping best windows (score desc,
  // start asc — the global selection order restricted to this document),
  // feeding them to the global candidate pool and the pruning threshold.
  auto score_document = [&](DocId doc) {
    // A negative DocId casts past the table and takes the hash lookup.
    size_t slot = static_cast<size_t>(doc);
    size_t n_sents = slot < sentence_counts_.size() ? sentence_counts_[slot]
                                                    : Sentences(doc).size();
    windows.clear();
    // Two pointers over the sentence-ordered hits: window_counts holds
    // the hits in [lo, hi), which is exactly the hits of [first, last].
    // Both bounds only move forward — `last` is non-decreasing in
    // `first` — so each hit enters and leaves the window once.
    std::fill(window_counts.begin(), window_counts.end(), 0);
    size_t lo = 0;
    size_t hi = 0;
    for (size_t i = 0; i < doc_hits.size();) {
      uint32_t first = doc_hits[i].sentence;
      size_t last = std::min(n_sents == 0 ? size_t(first) : n_sents - 1,
                             size_t(first) + window_ - 1);
      for (; hi < doc_hits.size() && doc_hits[hi].sentence <= last; ++hi) {
        ++window_counts[doc_hits[hi].term];
      }
      // `lo < hi` covers the clamped case last < first (a hit past the
      // end of the sentence table): the window then holds no hit.
      for (; lo < hi && doc_hits[lo].sentence < first; ++lo) {
        --window_counts[doc_hits[lo].term];
      }
      double score = score_counts(window_counts);
      // A window strictly below the threshold can neither be returned
      // nor move the threshold, and it could only block windows scored
      // no higher than itself: dropping it leaves the selection exact.
      if (!theta.full() || score >= theta.value()) {
        windows.push_back({score, doc, first, static_cast<uint32_t>(last)});
      }
      while (i < doc_hits.size() && doc_hits[i].sentence == first) ++i;
    }
    std::sort(windows.begin(), windows.end(),
              [](const Window& a, const Window& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.first < b.first;
              });
    selected.clear();
    for (const Window& w : windows) {
      bool overlaps = false;
      for (const Window* sel : selected) {
        if (w.first <= sel->last && sel->first <= w.last) {
          overlaps = true;
          break;
        }
      }
      if (overlaps) continue;
      selected.push_back(&w);
      theta.Push(w.score);
      candidates.push_back(w);
    }
  };

  // Visit pass over one source: walks its per-term group cursors together
  // in ordinal order and, from the group headers alone, records each
  // document's bound — the window formula on its per-term counts capped
  // at window_cap, which bound every window's counts, with the per-term
  // score monotone in the count — and where its refs are. No ref is
  // decoded here. A document lives in exactly one source, so its counts
  // are complete.
  auto visit_source = [&](auto& cursors, const auto& doc_of) {
    while (true) {
      uint32_t ordinal = std::numeric_limits<uint32_t>::max();
      for (const auto& c : cursors) {
        if (!c.cursor.done()) ordinal = std::min(ordinal, c.cursor.ordinal());
      }
      if (ordinal == std::numeric_limits<uint32_t>::max()) return;
      std::fill(doc_counts.begin(), doc_counts.end(), 0);
      Pending entry{0.0, doc_of(ordinal),
                    static_cast<uint32_t>(spans.size()), 0};
      for (auto& c : cursors) {
        if (c.cursor.done() || c.cursor.ordinal() != ordinal) continue;
        doc_counts[c.term] = std::min(c.cursor.count(), window_cap);
        spans.push_back({c.list, static_cast<uint32_t>(c.term),
                         c.cursor.count(), c.cursor.refs_offset()});
        c.cursor.Next();
      }
      entry.bound = score_counts(doc_counts);
      entry.spans_end = static_cast<uint32_t>(spans.size());
      pending.push_back(entry);
      std::push_heap(pending.begin(), pending.end(), lower_priority);
    }
  };

  // Score pass: pops the best-bound pending document, decodes its refs,
  // merges them into (sentence, term) order and scores it.
  auto score_best = [&] {
    std::pop_heap(pending.begin(), pending.end(), lower_priority);
    const Pending entry = pending.back();
    pending.pop_back();
    term_hits.clear();
    runs.clear();
    for (uint32_t s = entry.spans_begin; s < entry.spans_end; ++s) {
      const RefSpan& span = spans[s];
      size_t begin = term_hits.size();
      auto push = [&](uint32_t sentence) {
        term_hits.push_back({sentence, span.term});
      };
      if (span.list == nullptr) {
        const MemtableGroupCursor::Refs& refs = *memtable_refs[span.term];
        for (size_t i = span.offset; i < span.offset + span.count; ++i) {
          push(refs[i].second);
        }
      } else {
        ForEachRefAt(*span.list, span.offset, span.count, push);
      }
      runs.push_back({begin, term_hits.size()});
    }
    // Merge the per-term runs (each in sentence order, runs in query
    // order) into (sentence, term) order: ties go to the earlier run.
    doc_hits.clear();
    while (true) {
      Run* next = nullptr;
      for (Run& run : runs) {
        if (run.pos < run.end &&
            (next == nullptr ||
             term_hits[run.pos].sentence < term_hits[next->pos].sentence)) {
          next = &run;
        }
      }
      if (next == nullptr) break;
      doc_hits.push_back(term_hits[next->pos++]);
    }
    score_document(entry.doc);
  };
  // Scores pending documents best bound first while their bound exceeds
  // `floor`. Stops at the first bound below a full threshold: no window of
  // that document, nor of any document after it, can enter the top k.
  auto score_above = [&](double floor) {
    while (!pending.empty() && pending.front().bound > floor) {
      if (theta.full() && pending.front().bound < theta.value()) return;
      score_best();
    }
  };

  // Memtable first, sealed segments after in descending segment bound —
  // the window formula at each term's max matched sentences in any one
  // document of the segment, so no document of it bounds higher. Before a
  // segment is visited, every pending document bounding above it is
  // scored: those come first in best-bound order anyway, and the
  // threshold they raise may skip the segment and all after it unread.
  {
    std::vector<TermCursor<MemtableGroupCursor>> cursors;
    for (size_t t = 0; t < query.size(); ++t) {
      auto it = memtable_.postings.find(query[t].id);
      if (it == memtable_.postings.end()) continue;
      memtable_refs[t] = &it->second;
      cursors.push_back({t, nullptr, MemtableGroupCursor(&it->second)});
    }
    visit_source(cursors,
                 [&](uint32_t ordinal) { return memtable_.docs[ordinal]; });
  }
  struct SegmentVisit {
    double bound;
    const PassageSegment* segment;
  };
  std::vector<SegmentVisit> segments;
  for (const auto& segment : sealed) {
    std::fill(doc_counts.begin(), doc_counts.end(), 0);
    bool any = false;
    for (size_t t = 0; t < query.size(); ++t) {
      const PassageSegment::TermInfo* info = segment->Find(query[t].id);
      if (info == nullptr) continue;
      doc_counts[t] = std::min(info->max_occurrences, window_cap);
      any = true;
    }
    if (any) segments.push_back({score_counts(doc_counts), segment.get()});
  }
  std::stable_sort(segments.begin(), segments.end(),
                   [](const SegmentVisit& a, const SegmentVisit& b) {
                     return a.bound > b.bound;
                   });
  size_t pruned_segments = 0;
  std::vector<TermCursor<RefGroupCursor>> cursors;
  for (size_t i = 0; i < segments.size(); ++i) {
    score_above(segments[i].bound);
    if (theta.full() && segments[i].bound < theta.value()) {
      pruned_segments = segments.size() - i;
      break;
    }
    const PassageSegment& segment = *segments[i].segment;
    cursors.clear();
    for (size_t t = 0; t < query.size(); ++t) {
      const PassageSegment::TermInfo* info = segment.Find(query[t].id);
      if (info == nullptr) continue;
      cursors.push_back({t, &info->list, RefGroupCursor(&info->list)});
    }
    visit_source(cursors,
                 [&](uint32_t ordinal) { return segment.doc(ordinal); });
  }
  score_above(-std::numeric_limits<double>::infinity());
  // Whatever is still pending bounds below the threshold: pruned unread.
  size_t skipped_refs = 0;
  for (const Pending& entry : pending) {
    for (uint32_t s = entry.spans_begin; s < entry.spans_end; ++s) {
      skipped_refs += spans[s].count;
    }
  }
  Bump(metrics_.pruned_segments, static_cast<double>(pruned_segments));
  Bump(metrics_.pruned_candidates, static_cast<double>(pending.size()));
  Bump(metrics_.pruned_kind, static_cast<double>(skipped_refs));

  // Global rank over every selected window — a total order, so neither
  // the visit and scoring order above nor partial_sort's instability can
  // leak into the result.
  size_t top = std::min(k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + top,
                    candidates.end(), [](const Window& a, const Window& b) {
                      if (a.score != b.score) return a.score > b.score;
                      if (a.doc != b.doc) return a.doc < b.doc;
                      return a.first < b.first;
                    });
  std::vector<Passage> passages(top);
  for (size_t i = 0; i < top; ++i) {
    const Window& w = candidates[i];
    Passage& p = passages[i];
    p.doc = w.doc;
    p.first_sentence = w.first;
    p.last_sentence = w.last;
    p.score = w.score;
    const std::vector<std::string>& sents = Sentences(w.doc);
    for (size_t s = w.first; s <= w.last && s < sents.size(); ++s) {
      if (!p.text.empty()) p.text += '\n';
      p.text += sents[s];
    }
  }
  return passages;
}

std::string SegmentedPassageIndex::DebugString(
    const TermDictionary& dict) const {
  std::vector<std::shared_ptr<const PassageSegment>> sealed = Snapshot();
  std::ostringstream out;
  std::vector<TermId> term_ids;
  term_ids.reserve(df_.size());
  for (const auto& [term, unused] : df_) term_ids.push_back(term);
  std::sort(term_ids.begin(), term_ids.end());
  for (TermId term : term_ids) {
    out << term << '=' << dict.Term(term) << ':';
    for (const auto& segment : sealed) {
      const PassageSegment::TermInfo* info = segment->Find(term);
      if (info == nullptr) continue;
      ForEachGroupedRef(info->list, [&](uint32_t ordinal, uint32_t sentence) {
        out << ' ' << segment->doc(ordinal) << '.' << sentence;
      });
    }
    auto it = memtable_.postings.find(term);
    if (it != memtable_.postings.end()) {
      for (const auto& [ordinal, sentence] : it->second) {
        out << ' ' << memtable_.docs[ordinal] << '.' << sentence;
      }
    }
    out << '\n';
  }
  std::vector<DocId> docs;
  docs.reserve(sentences_.size());
  for (const auto& [doc, unused] : sentences_) docs.push_back(doc);
  std::sort(docs.begin(), docs.end());
  for (DocId doc : docs) {
    out << "sentences " << doc << '=' << sentences_.at(doc).size() << '\n';
  }
  return out.str();
}

}  // namespace ir
}  // namespace dwqa
