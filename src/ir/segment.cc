#include "ir/segment.h"

#include <algorithm>
#include <cmath>

namespace dwqa {
namespace ir {

void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

uint64_t ReadVarint(const std::string& bytes, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  for (;;) {
    uint8_t byte = static_cast<uint8_t>(bytes[*pos]);
    ++*pos;
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

PostingList EncodePostings(
    const std::vector<std::pair<uint32_t, uint32_t>>& postings,
    size_t block_postings, const std::function<double(size_t)>& weight) {
  if (block_postings < 1) block_postings = 1;
  PostingList list;
  list.count = static_cast<uint32_t>(postings.size());
  for (size_t begin = 0; begin < postings.size(); begin += block_postings) {
    size_t end = std::min(begin + block_postings, postings.size());
    PostingBlock block;
    block.offset = static_cast<uint32_t>(list.bytes.size());
    block.count = static_cast<uint32_t>(end - begin);
    block.last_ordinal = postings[end - 1].first;
    for (size_t i = begin; i < end; ++i) {
      // First posting of a block stores its ordinal absolutely, the rest
      // the delta from their predecessor — blocks decode independently.
      uint32_t delta = i == begin ? postings[i].first
                                  : postings[i].first - postings[i - 1].first;
      AppendVarint(&list.bytes, delta);
      AppendVarint(&list.bytes, postings[i].second);
      block.max_weight = std::max(block.max_weight, weight(i));
    }
    list.max_weight = std::max(list.max_weight, block.max_weight);
    list.blocks.push_back(block);
  }
  return list;
}

PostingCursor::PostingCursor(const PostingList* list) : list_(list) {
  LoadBlockStart();
}

void PostingCursor::LoadBlockStart() {
  if (done()) return;
  pos_ = list_->blocks[block_].offset;
  index_in_block_ = 0;
  ordinal_ = static_cast<uint32_t>(ReadVarint(list_->bytes, &pos_));
  payload_ = static_cast<uint32_t>(ReadVarint(list_->bytes, &pos_));
}

void PostingCursor::Next() {
  ++index_in_block_;
  if (index_in_block_ >= list_->blocks[block_].count) {
    ++block_;
    LoadBlockStart();
    return;
  }
  ordinal_ += static_cast<uint32_t>(ReadVarint(list_->bytes, &pos_));
  payload_ = static_cast<uint32_t>(ReadVarint(list_->bytes, &pos_));
}

bool PostingCursor::SkipBlock() {
  ++block_;
  LoadBlockStart();
  return !done();
}

PostingList EncodeRefGroups(
    const std::vector<std::pair<uint32_t, uint32_t>>& refs,
    size_t block_postings) {
  if (block_postings < 1) block_postings = 1;
  PostingList list;
  list.count = static_cast<uint32_t>(refs.size());
  std::string group_refs;
  for (size_t begin = 0; begin < refs.size();) {
    uint32_t ordinal = refs[begin].first;
    size_t end = begin;
    group_refs.clear();
    for (uint32_t prev = 0; end < refs.size() && refs[end].first == ordinal;
         ++end) {
      AppendVarint(&group_refs, refs[end].second - prev);
      prev = refs[end].second;
    }
    uint32_t count = static_cast<uint32_t>(end - begin);
    bool block_start = list.blocks.empty() ||
                       list.blocks.back().count + count > block_postings;
    if (block_start) {
      PostingBlock block;
      block.offset = static_cast<uint32_t>(list.bytes.size());
      list.blocks.push_back(block);
    }
    PostingBlock& block = list.blocks.back();
    AppendVarint(&list.bytes,
                 block_start ? ordinal : ordinal - block.last_ordinal);
    AppendVarint(&list.bytes, count);
    AppendVarint(&list.bytes, group_refs.size());
    list.bytes += group_refs;
    block.count += count;
    block.last_ordinal = ordinal;
    begin = end;
  }
  return list;
}

RefGroupCursor::RefGroupCursor(const PostingList* list) : list_(list) {
  LoadGroup(/*block_start=*/true);
}

void RefGroupCursor::LoadGroup(bool block_start) {
  if (done()) return;
  if (block_start) {
    next_pos_ = list_->blocks[block_].offset;
    block_end_ = block_ + 1 < list_->blocks.size()
                     ? list_->blocks[block_ + 1].offset
                     : list_->bytes.size();
    ordinal_ = 0;
  }
  size_t pos = next_pos_;
  ordinal_ += static_cast<uint32_t>(ReadVarint(list_->bytes, &pos));
  count_ = static_cast<uint32_t>(ReadVarint(list_->bytes, &pos));
  size_t refs_bytes = ReadVarint(list_->bytes, &pos);
  refs_pos_ = pos;
  next_pos_ = pos + refs_bytes;
}

void RefGroupCursor::Next() {
  bool block_start = next_pos_ >= block_end_;
  if (block_start) ++block_;
  LoadGroup(block_start);
}

namespace {

/// `tf / sqrt(len)` with the zero-length guard the monolithic index used —
/// the TF part of the TF-IDF score, and therefore the per-posting weight
/// whose block maxima make `idf * max_weight` a true score upper bound.
double DocPostingWeight(uint32_t tf, uint32_t doc_len) {
  double len = doc_len == 0 ? 1.0 : static_cast<double>(doc_len);
  return static_cast<double>(tf) / std::sqrt(len);
}

std::vector<std::pair<uint32_t, uint32_t>> DecodePostings(
    const PostingList& list) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(list.count);
  ForEachPosting(list, [&pairs](uint32_t ordinal, uint32_t payload) {
    pairs.push_back({ordinal, payload});
  });
  return pairs;
}

std::vector<std::pair<uint32_t, uint32_t>> DecodeRefGroups(
    const PostingList& list) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(list.count);
  ForEachGroupedRef(list, [&pairs](uint32_t ordinal, uint32_t sentence) {
    pairs.push_back({ordinal, sentence});
  });
  return pairs;
}

/// The one merge body of both segment kinds.
template <typename Segment>
std::shared_ptr<const Segment> MergeSegments(const Segment& left,
                                             const Segment& right,
                                             size_t block_postings) {
  typename Segment::Builder merged = left.Unseal();
  AppendBuilder(&merged, right.Unseal());
  return Segment::Seal(std::move(merged), block_postings);
}

}  // namespace

template <typename Builder>
void AppendBuilder(Builder* dst, Builder src) {
  uint32_t offset = static_cast<uint32_t>(dst->doc_count());
  for (auto& [term, pairs] : src.postings) {
    auto& out = dst->postings[term];
    out.reserve(out.size() + pairs.size());
    for (const auto& [ordinal, payload] : pairs) {
      out.push_back({ordinal + offset, payload});
    }
  }
  dst->docs.insert(dst->docs.end(), src.docs.begin(), src.docs.end());
  if constexpr (requires { dst->lengths; }) {
    dst->lengths.insert(dst->lengths.end(), src.lengths.begin(),
                        src.lengths.end());
  }
}

template void AppendBuilder(DocSegment::Builder*, DocSegment::Builder);
template void AppendBuilder(PassageSegment::Builder*, PassageSegment::Builder);

void DocSegment::Builder::Add(DocId doc,
                              const std::unordered_map<TermId, uint32_t>& tf,
                              size_t doc_len, DocFreqMap* df) {
  uint32_t ordinal = static_cast<uint32_t>(docs.size());
  for (const auto& [term, freq] : tf) {
    postings[term].push_back({ordinal, freq});
    if (df != nullptr) ++(*df)[term];
  }
  docs.push_back(doc);
  lengths.push_back(static_cast<uint32_t>(doc_len));
}

std::shared_ptr<const DocSegment> DocSegment::Seal(Builder builder,
                                                   size_t block_postings) {
  std::shared_ptr<DocSegment> seg(new DocSegment());
  seg->docs_ = std::move(builder.docs);
  seg->lengths_ = std::move(builder.lengths);
  for (auto& [term, pairs] : builder.postings) {
    PostingList list = EncodePostings(
        pairs, block_postings, [&pairs, seg = seg.get()](size_t i) {
          return DocPostingWeight(pairs[i].second,
                                  seg->lengths_[pairs[i].first]);
        });
    seg->postings_bytes_ += list.bytes.size();
    seg->postings_.emplace(term, std::move(list));
  }
  return seg;
}

std::shared_ptr<const DocSegment> DocSegment::Merge(const DocSegment& left,
                                                    const DocSegment& right,
                                                    size_t block_postings) {
  return MergeSegments(left, right, block_postings);
}

DocSegment::Builder DocSegment::Unseal() const {
  Builder builder;
  builder.docs = docs_;
  builder.lengths = lengths_;
  for (const auto& [term, list] : postings_) {
    builder.postings[term] = DecodePostings(list);
  }
  return builder;
}

const PostingList* DocSegment::Find(TermId term) const {
  auto it = postings_.find(term);
  return it == postings_.end() ? nullptr : &it->second;
}

void PassageSegment::Builder::Add(
    DocId doc, const std::vector<std::vector<TermId>>& sentence_terms,
    DocFreqMap* df) {
  uint32_t ordinal = static_cast<uint32_t>(docs.size());
  for (uint32_t s = 0; s < sentence_terms.size(); ++s) {
    for (TermId term : sentence_terms[s]) {
      auto& refs = postings[term];
      // The document's first ref of the term counts it once in df.
      if (df != nullptr && (refs.empty() || refs.back().first != ordinal)) {
        ++(*df)[term];
      }
      refs.push_back({ordinal, s});
    }
  }
  docs.push_back(doc);
}

std::shared_ptr<const PassageSegment> PassageSegment::Seal(
    Builder builder, size_t block_postings) {
  std::shared_ptr<PassageSegment> seg(new PassageSegment());
  seg->docs_ = std::move(builder.docs);
  for (auto& [term, pairs] : builder.postings) {
    TermInfo info;
    // Refs of one document are contiguous (ordinals are non-decreasing);
    // one pass over the runs yields df and the max per-document run.
    uint32_t run = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      run = (i > 0 && pairs[i].first == pairs[i - 1].first) ? run + 1 : 1;
      if (run == 1) ++info.doc_freq;
      info.max_occurrences = std::max(info.max_occurrences, run);
    }
    info.list = EncodeRefGroups(pairs, block_postings);
    seg->postings_bytes_ += info.list.bytes.size();
    seg->terms_.emplace(term, std::move(info));
  }
  return seg;
}

std::shared_ptr<const PassageSegment> PassageSegment::Merge(
    const PassageSegment& left, const PassageSegment& right,
    size_t block_postings) {
  return MergeSegments(left, right, block_postings);
}

PassageSegment::Builder PassageSegment::Unseal() const {
  Builder builder;
  builder.docs = docs_;
  for (const auto& [term, info] : terms_) {
    builder.postings[term] = DecodeRefGroups(info.list);
  }
  return builder;
}

const PassageSegment::TermInfo* PassageSegment::Find(TermId term) const {
  auto it = terms_.find(term);
  return it == terms_.end() ? nullptr : &it->second;
}

}  // namespace ir
}  // namespace dwqa
