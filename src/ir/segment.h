#ifndef DWQA_IR_SEGMENT_H_
#define DWQA_IR_SEGMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "ir/document.h"

namespace dwqa {
namespace ir {

/// \file segment.h
/// \brief Immutable sealed index segments — the storage unit of the
/// LSM-style segmented indexes (ir/segmented_index.h).
///
/// A segment is built once from a batch of documents, sealed into
/// delta+varint-compressed postings with per-block max-score metadata, and
/// never mutated again; readers share it through `shared_ptr<const ...>`,
/// so a merge can swap the manifest without invalidating anything a
/// reader already holds.
///
/// Documents inside a segment are addressed by a dense local *ordinal*
/// (0-based insertion order) rather than their global DocId: ordinals are
/// strictly increasing along every postings list, which is what makes the
/// delta coding tight, and a per-segment ordinal→DocId table restores the
/// global id at scoring time.

/// Appends `value` to `out` in LEB128 (7 bits per byte, high bit = more).
void AppendVarint(std::string* out, uint64_t value);

/// Reads a varint at `*pos`, advancing it past the value. Segments are
/// built and decoded in-process, never parsed from untrusted input, so a
/// malformed byte stream is a programming error rather than a recoverable
/// condition.
uint64_t ReadVarint(const std::string& bytes, size_t* pos);

/// \brief Skip metadata of one block of a postings list: enough to bound
/// every score in the block (`max_weight`) and to step over it without
/// decoding a byte (`offset`/`count`/`last_ordinal`).
struct PostingBlock {
  /// Byte offset of the block's first posting in PostingList::bytes.
  uint32_t offset = 0;
  /// Postings encoded in the block.
  uint32_t count = 0;
  /// Local ordinal of the block's last posting (upper bound for skips).
  uint32_t last_ordinal = 0;
  /// Max per-posting score weight in the block (block-max pruning bound);
  /// 0 for lists whose postings carry no weight (passage sentence refs).
  double max_weight = 0.0;
};

/// \brief One compressed postings list. Document postings are (ordinal,
/// tf) pairs delta+varint coded in fixed-size blocks (EncodePostings):
/// within a block the first posting stores its ordinal absolutely and the
/// rest store the (non-negative) delta from the previous posting, so every
/// block decodes independently of its predecessors. Passage refs use the
/// same container with the refs grouped by document (EncodeRefGroups).
struct PostingList {
  std::string bytes;
  std::vector<PostingBlock> blocks;
  /// Total postings across all blocks.
  uint32_t count = 0;
  /// Max block max_weight — the list-level (segment-level) pruning bound.
  double max_weight = 0.0;
};

/// Seals `postings` — (ordinal, payload) pairs with non-decreasing
/// ordinals — into a compressed list with `block_postings` postings per
/// block (clamped to ≥ 1). `weight(i)` scores posting `i` for the
/// block-max metadata; pass a constant-zero weight for lists that are
/// never score-pruned.
PostingList EncodePostings(
    const std::vector<std::pair<uint32_t, uint32_t>>& postings,
    size_t block_postings, const std::function<double(size_t)>& weight);

/// \brief Forward decoder over one PostingList with block-granular skips.
class PostingCursor {
 public:
  /// Positions on the first posting (done() when the list is empty).
  explicit PostingCursor(const PostingList* list);

  bool done() const { return block_ >= list_->blocks.size(); }
  uint32_t ordinal() const { return ordinal_; }
  uint32_t payload() const { return payload_; }
  /// Pruning bound of the current block (callable only when !done()).
  double block_max() const { return list_->blocks[block_].max_weight; }

  /// Advances one posting.
  void Next();
  /// Jumps to the first posting of the next block without decoding the
  /// rest of the current one. Returns false when the list is exhausted.
  bool SkipBlock();

 private:
  void LoadBlockStart();

  const PostingList* list_;
  size_t block_ = 0;
  uint32_t index_in_block_ = 0;
  size_t pos_ = 0;
  uint32_t ordinal_ = 0;
  uint32_t payload_ = 0;
};

/// Invokes `fn(ordinal, payload)` for every posting of `list`, in order.
template <typename Fn>
void ForEachPosting(const PostingList& list, Fn fn) {
  for (PostingCursor c(&list); !c.done(); c.Next()) {
    fn(c.ordinal(), c.payload());
  }
}

/// Seals passage refs — (ordinal, sentence) pairs, ordinals non-decreasing
/// and sentences increasing within one ordinal — grouped by document. Each
/// group is a header of three varints (ordinal delta, matched-sentence
/// count, byte length of the refs that follow) and then the group's
/// sentences, the first absolute and the rest as deltas. A block holds
/// whole groups: it closes before a group that would take it past
/// `block_postings` refs (clamped to ≥ 1), so a larger group sits alone in
/// its block. The first group of a block stores its ordinal absolutely.
/// `count` and each block's `count` are refs; `max_weight` stays 0.
PostingList EncodeRefGroups(
    const std::vector<std::pair<uint32_t, uint32_t>>& refs,
    size_t block_postings);

/// Calls `fn(sentence)` for each of the `count` refs of one EncodeRefGroups
/// group whose refs start at byte `offset` of `list`, in order.
template <typename Fn>
void ForEachRefAt(const PostingList& list, size_t offset, uint32_t count,
                  Fn fn) {
  uint32_t sentence = 0;
  for (uint32_t i = 0; i < count; ++i) {
    sentence += static_cast<uint32_t>(ReadVarint(list.bytes, &offset));
    fn(sentence);
  }
}

/// \brief Forward cursor over the document groups of an EncodeRefGroups
/// list: a group's ordinal and ref count come from its header, and Next
/// steps over its refs without decoding them.
class RefGroupCursor {
 public:
  explicit RefGroupCursor(const PostingList* list);

  bool done() const { return block_ >= list_->blocks.size(); }
  uint32_t ordinal() const { return ordinal_; }
  /// Refs (matched sentences) of the current group.
  uint32_t count() const { return count_; }
  /// Byte offset of the current group's first ref: with count(), what
  /// ForEachRefAt needs to decode the group after the cursor moved on.
  size_t refs_offset() const { return refs_pos_; }

  /// Calls `fn(sentence)` for each ref of the current group, in order.
  template <typename Fn>
  void ForEachRef(Fn fn) const {
    ForEachRefAt(*list_, refs_pos_, count_, fn);
  }
  /// Advances to the next group.
  void Next();

 private:
  void LoadGroup(bool block_start);

  const PostingList* list_;
  size_t block_ = 0;
  /// Offset where the current block ends (the next block's offset).
  size_t block_end_ = 0;
  /// Offset of the current group's first ref, and of the next group.
  size_t refs_pos_ = 0;
  size_t next_pos_ = 0;
  uint32_t ordinal_ = 0;
  uint32_t count_ = 0;
};

/// Invokes `fn(ordinal, sentence)` for every ref of an EncodeRefGroups
/// list, in order.
template <typename Fn>
void ForEachGroupedRef(const PostingList& list, Fn fn) {
  for (RefGroupCursor c(&list); !c.done(); c.Next()) {
    c.ForEachRef([&](uint32_t sentence) { fn(c.ordinal(), sentence); });
  }
}

/// Per-term document frequency, as the segmented indexes keep it.
using DocFreqMap = std::unordered_map<TermId, size_t>;

/// Appends `src`'s documents to `dst` after its own, shifting `src`'s
/// ordinals up by `dst->doc_count()` — the concatenation behind segment
/// merges and the monolithic bulk splice. Defined for DocSegment::Builder
/// and PassageSegment::Builder.
template <typename Builder>
void AppendBuilder(Builder* dst, Builder src);

/// \brief Immutable document-level segment: per-ordinal DocId/length
/// tables plus compressed (ordinal, tf) postings per term.
///
/// The per-posting score weight baked into the block metadata is
/// `tf / sqrt(len)` — the TF part of the TF-IDF used by InvertedIndex —
/// so a query-time upper bound is just `idf * max_weight`.
class DocSegment {
 public:
  /// \brief Accumulates documents before sealing. Also serves as the
  /// segmented index's mutable memtable: the builder's uncompressed
  /// vectors are directly searchable.
  struct Builder {
    std::vector<DocId> docs;
    std::vector<uint32_t> lengths;
    /// term → (ordinal, tf), ordinals strictly increasing per term.
    std::unordered_map<TermId, std::vector<std::pair<uint32_t, uint32_t>>>
        postings;

    /// Appends one document (the next local ordinal). When `df` is
    /// non-null, each of the document's terms is counted in it once.
    void Add(DocId doc, const std::unordered_map<TermId, uint32_t>& tf,
             size_t doc_len, DocFreqMap* df = nullptr);
    bool empty() const { return docs.empty(); }
    size_t doc_count() const { return docs.size(); }
  };

  /// Compresses `builder` into an immutable segment. A builder with
  /// documents but no postings (all text stopword-filtered away) seals
  /// into a valid, searchable, postings-free segment.
  static std::shared_ptr<const DocSegment> Seal(Builder builder,
                                                size_t block_postings);

  /// Merges two segments into one, `left`'s documents first — ordinals of
  /// `right` shift up by `left.doc_count()`, so concatenating postings in
  /// segment-manifest order is invariant under merging. Deterministic:
  /// depends only on the two inputs.
  static std::shared_ptr<const DocSegment> Merge(const DocSegment& left,
                                                 const DocSegment& right,
                                                 size_t block_postings);

  /// Decodes the segment back into a builder — the inverse of Seal.
  Builder Unseal() const;

  size_t doc_count() const { return docs_.size(); }
  DocId doc(uint32_t ordinal) const { return docs_[ordinal]; }
  uint32_t length(uint32_t ordinal) const { return lengths_[ordinal]; }

  /// The term's postings list, or null when absent from this segment.
  const PostingList* Find(TermId term) const;
  const std::unordered_map<TermId, PostingList>& postings() const {
    return postings_;
  }
  /// Compressed postings payload held by this segment, in bytes.
  size_t postings_bytes() const { return postings_bytes_; }

 private:
  DocSegment() = default;

  std::vector<DocId> docs_;
  std::vector<uint32_t> lengths_;
  std::unordered_map<TermId, PostingList> postings_;
  size_t postings_bytes_ = 0;
};

/// \brief Immutable passage-level segment: an ordinal→DocId table plus
/// compressed (ordinal, sentence) refs per term, grouped by document
/// (EncodeRefGroups) so a search reads a document's per-term match count
/// before, and often instead of, its refs.
///
/// Sentence *text* deliberately lives outside segments (in the segmented
/// index's doc→sentences table): PassageIndex::Sentences hands out
/// long-lived references, which must survive seals and merges.
class PassageSegment {
 public:
  /// \brief Accumulates documents before sealing; doubles as the
  /// segmented passage index's memtable.
  struct Builder {
    std::vector<DocId> docs;
    /// term → (ordinal, sentence) refs, ordinals non-decreasing and
    /// sentences increasing within one ordinal (one ref per sentence a
    /// term occurs in — presence, not frequency).
    std::unordered_map<TermId, std::vector<std::pair<uint32_t, uint32_t>>>
        postings;

    /// Appends one document: `sentence_terms[s]` lists the distinct terms
    /// of sentence `s` (insertion order, already deduplicated). When `df`
    /// is non-null, each distinct term of the document is counted once.
    void Add(DocId doc, const std::vector<std::vector<TermId>>& sentence_terms,
             DocFreqMap* df = nullptr);
    bool empty() const { return docs.empty(); }
    size_t doc_count() const { return docs.size(); }
  };

  /// \brief Per-term statistics sealed alongside the refs.
  struct TermInfo {
    /// The refs, grouped by document (read with RefGroupCursor).
    PostingList list;
    /// Distinct documents of this segment containing the term.
    uint32_t doc_freq = 0;
    /// Max refs (matched sentences) of the term within any one document —
    /// bounds the per-document repeat bonus for pruning.
    uint32_t max_occurrences = 0;
  };

  static std::shared_ptr<const PassageSegment> Seal(Builder builder,
                                                    size_t block_postings);

  /// See DocSegment::Merge — same ordering contract.
  static std::shared_ptr<const PassageSegment> Merge(const PassageSegment& left,
                                                     const PassageSegment& right,
                                                     size_t block_postings);
  Builder Unseal() const;

  size_t doc_count() const { return docs_.size(); }
  DocId doc(uint32_t ordinal) const { return docs_[ordinal]; }
  const TermInfo* Find(TermId term) const;
  const std::unordered_map<TermId, TermInfo>& terms() const { return terms_; }
  size_t postings_bytes() const { return postings_bytes_; }

 private:
  PassageSegment() = default;

  std::vector<DocId> docs_;
  std::unordered_map<TermId, TermInfo> terms_;
  size_t postings_bytes_ = 0;
};

}  // namespace ir
}  // namespace dwqa

#endif  // DWQA_IR_SEGMENT_H_
