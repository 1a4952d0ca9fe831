#include "ir/segment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dwqa {
namespace ir {
namespace {

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t values[] = {0,   1,   126,        127,
                             128, 129, 16383,      16384,
                             300, 1u << 21,        (1ull << 35) + 7,
                             ~0ull};
  std::string bytes;
  for (uint64_t v : values) AppendVarint(&bytes, v);
  size_t pos = 0;
  for (uint64_t v : values) {
    EXPECT_EQ(ReadVarint(bytes, &pos), v);
  }
  EXPECT_EQ(pos, bytes.size());
}

TEST(VarintTest, SmallValuesAreOneByte) {
  std::string bytes;
  AppendVarint(&bytes, 127);
  EXPECT_EQ(bytes.size(), 1u);
  AppendVarint(&bytes, 128);
  EXPECT_EQ(bytes.size(), 3u);  // 128 takes two bytes.
}

std::vector<std::pair<uint32_t, uint32_t>> Decode(const PostingList& list) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  ForEachPosting(list, [&](uint32_t ordinal, uint32_t payload) {
    out.emplace_back(ordinal, payload);
  });
  return out;
}

TEST(EncodePostingsTest, RoundTripsAcrossBlocks) {
  std::vector<std::pair<uint32_t, uint32_t>> postings;
  for (uint32_t i = 0; i < 100; ++i) {
    postings.emplace_back(i * 3, i % 7 + 1);
  }
  PostingList list = EncodePostings(postings, /*block_postings=*/8,
                                    [](size_t) { return 0.0; });
  EXPECT_EQ(list.count, 100u);
  EXPECT_EQ(list.blocks.size(), 13u);  // ceil(100 / 8)
  EXPECT_EQ(Decode(list), postings);
}

TEST(EncodePostingsTest, BlockMaxTracksTheWeightCallback) {
  // Weights 1, 2, ..., 6 over two blocks of three.
  std::vector<std::pair<uint32_t, uint32_t>> postings;
  for (uint32_t i = 0; i < 6; ++i) postings.emplace_back(i, 1);
  PostingList list =
      EncodePostings(postings, 3, [](size_t i) { return double(i + 1); });
  ASSERT_EQ(list.blocks.size(), 2u);
  EXPECT_DOUBLE_EQ(list.blocks[0].max_weight, 3.0);
  EXPECT_DOUBLE_EQ(list.blocks[1].max_weight, 6.0);
  EXPECT_DOUBLE_EQ(list.max_weight, 6.0);
  EXPECT_EQ(list.blocks[0].last_ordinal, 2u);
  EXPECT_EQ(list.blocks[1].last_ordinal, 5u);
}

TEST(EncodePostingsTest, EmptyListDecodesEmpty) {
  PostingList list = EncodePostings({}, 8, [](size_t) { return 0.0; });
  EXPECT_EQ(list.count, 0u);
  EXPECT_TRUE(Decode(list).empty());
  PostingCursor cursor(&list);
  EXPECT_TRUE(cursor.done());
}

TEST(PostingCursorTest, SkipBlockJumpsWithoutDecoding) {
  std::vector<std::pair<uint32_t, uint32_t>> postings;
  for (uint32_t i = 0; i < 10; ++i) postings.emplace_back(i * 2, i);
  PostingList list = EncodePostings(postings, 4, [](size_t) { return 0.0; });
  PostingCursor cursor(&list);
  EXPECT_EQ(cursor.ordinal(), 0u);
  ASSERT_TRUE(cursor.SkipBlock());
  EXPECT_EQ(cursor.ordinal(), 8u);  // First posting of block 1.
  EXPECT_EQ(cursor.payload(), 4u);
  ASSERT_TRUE(cursor.SkipBlock());
  EXPECT_EQ(cursor.ordinal(), 16u);  // First posting of block 2.
  EXPECT_FALSE(cursor.SkipBlock());
  EXPECT_TRUE(cursor.done());
}

/// Content is a function of the global DocId (tf = id+1, len = id+2), so
/// sealing [0,4)+[4,7) merges into exactly the corpus sealed as [0,7).
DocSegment::Builder MakeDocBuilder(DocId first_doc, size_t docs) {
  DocSegment::Builder builder;
  for (size_t i = 0; i < docs; ++i) {
    DocId id = first_doc + DocId(i);
    std::unordered_map<TermId, uint32_t> tf;
    tf[TermId(1)] = uint32_t(id + 1);
    if (id % 2 == 0) tf[TermId(2)] = 1;
    builder.Add(id, tf, /*doc_len=*/size_t(id) + 2);
  }
  return builder;
}

TEST(DocSegmentTest, SealPreservesDocsAndPostings) {
  auto segment = DocSegment::Seal(MakeDocBuilder(10, 5), 2);
  ASSERT_EQ(segment->doc_count(), 5u);
  EXPECT_EQ(segment->doc(0), 10);
  EXPECT_EQ(segment->doc(4), 14);
  EXPECT_EQ(segment->length(0), 12u);
  EXPECT_EQ(segment->length(4), 16u);
  const PostingList* all = segment->Find(TermId(1));
  ASSERT_NE(all, nullptr);
  EXPECT_EQ(all->count, 5u);
  auto decoded = Decode(*all);
  ASSERT_EQ(decoded.size(), 5u);
  EXPECT_EQ(decoded[0], (std::pair<uint32_t, uint32_t>{0, 11}));
  EXPECT_EQ(decoded[4], (std::pair<uint32_t, uint32_t>{4, 15}));
  const PostingList* even = segment->Find(TermId(2));
  ASSERT_NE(even, nullptr);
  EXPECT_EQ(even->count, 3u);
  EXPECT_EQ(segment->Find(TermId(99)), nullptr);
  EXPECT_GT(segment->postings_bytes(), 0u);
}

TEST(DocSegmentTest, SealWeightsAreTfOverSqrtLen) {
  auto segment = DocSegment::Seal(MakeDocBuilder(0, 3), 128);
  const PostingList* list = segment->Find(TermId(1));
  ASSERT_NE(list, nullptr);
  // Ordinal i has tf = i+1 and len = i+2: the max of (i+1)/sqrt(i+2).
  double expected = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    expected = std::max(expected, double(i + 1) / std::sqrt(double(i + 2)));
  }
  EXPECT_DOUBLE_EQ(list->max_weight, expected);
}

TEST(DocSegmentTest, MergeConcatenatesInOrder) {
  auto left = DocSegment::Seal(MakeDocBuilder(0, 3), 2);
  auto right = DocSegment::Seal(MakeDocBuilder(100, 2), 2);
  auto merged = DocSegment::Merge(*left, *right, 2);
  ASSERT_EQ(merged->doc_count(), 5u);
  EXPECT_EQ(merged->doc(0), 0);
  EXPECT_EQ(merged->doc(2), 2);
  EXPECT_EQ(merged->doc(3), 100);
  EXPECT_EQ(merged->doc(4), 101);
  EXPECT_EQ(merged->length(3), 102u);
  // Right-hand ordinals shift by left.doc_count().
  auto decoded = Decode(*merged->Find(TermId(1)));
  ASSERT_EQ(decoded.size(), 5u);
  EXPECT_EQ(decoded[3].first, 3u);
  EXPECT_EQ(decoded[4].first, 4u);
  EXPECT_EQ(decoded[3].second, 101u);  // tf of doc 100 (id + 1).
}

TEST(DocSegmentTest, MergeEqualsSealOfConcatenatedBuilder) {
  auto merged = DocSegment::Merge(*DocSegment::Seal(MakeDocBuilder(0, 4), 3),
                                  *DocSegment::Seal(MakeDocBuilder(4, 3), 3),
                                  3);
  auto direct = DocSegment::Seal(MakeDocBuilder(0, 7), 3);
  ASSERT_EQ(merged->doc_count(), direct->doc_count());
  for (TermId t : {TermId(1), TermId(2)}) {
    const PostingList* a = merged->Find(t);
    const PostingList* b = direct->Find(t);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->bytes, b->bytes);
    EXPECT_DOUBLE_EQ(a->max_weight, b->max_weight);
  }
}

TEST(DocSegmentTest, EmptyBuilderSealsToEmptySegment) {
  auto segment = DocSegment::Seal(DocSegment::Builder{}, 8);
  EXPECT_EQ(segment->doc_count(), 0u);
  EXPECT_TRUE(segment->postings().empty());
  EXPECT_EQ(segment->postings_bytes(), 0u);
}

TEST(DocSegmentTest, DocsWithoutPostingsSealFine) {
  // All text stopword-filtered away: docs but no postings.
  DocSegment::Builder builder;
  builder.Add(7, {}, 0);
  auto segment = DocSegment::Seal(std::move(builder), 8);
  EXPECT_EQ(segment->doc_count(), 1u);
  EXPECT_EQ(segment->doc(0), 7);
  EXPECT_TRUE(segment->postings().empty());
}

/// Content is a function of the global DocId (doc `id` has id+1 sentences;
/// term 1 in every sentence, term 2 in the first), so split builds merge
/// into exactly the single-builder corpus.
PassageSegment::Builder MakePassageBuilder(DocId first_doc, size_t docs) {
  PassageSegment::Builder builder;
  for (size_t i = 0; i < docs; ++i) {
    DocId id = first_doc + DocId(i);
    std::vector<std::vector<TermId>> sentence_terms(size_t(id) + 1);
    for (size_t s = 0; s <= size_t(id); ++s) {
      sentence_terms[s].push_back(TermId(1));
    }
    sentence_terms[0].push_back(TermId(2));
    builder.Add(id, sentence_terms);
  }
  return builder;
}

TEST(PassageSegmentTest, SealComputesDocFreqAndMaxOccurrences) {
  auto segment = PassageSegment::Seal(MakePassageBuilder(0, 3), 4);
  ASSERT_EQ(segment->doc_count(), 3u);
  const PassageSegment::TermInfo* everywhere = segment->Find(TermId(1));
  ASSERT_NE(everywhere, nullptr);
  EXPECT_EQ(everywhere->doc_freq, 3u);
  EXPECT_EQ(everywhere->max_occurrences, 3u);  // Doc 2 has 3 sentences.
  EXPECT_EQ(everywhere->list.count, 6u);       // 1 + 2 + 3 refs.
  const PassageSegment::TermInfo* first_only = segment->Find(TermId(2));
  ASSERT_NE(first_only, nullptr);
  EXPECT_EQ(first_only->doc_freq, 3u);
  EXPECT_EQ(first_only->max_occurrences, 1u);
  EXPECT_EQ(segment->Find(TermId(3)), nullptr);
}

TEST(PassageSegmentTest, MergeMatchesDirectSeal) {
  auto merged = PassageSegment::Merge(
      *PassageSegment::Seal(MakePassageBuilder(0, 2), 4),
      *PassageSegment::Seal(MakePassageBuilder(2, 2), 4), 4);
  auto direct = PassageSegment::Seal(MakePassageBuilder(0, 4), 4);
  ASSERT_EQ(merged->doc_count(), direct->doc_count());
  for (TermId t : {TermId(1), TermId(2)}) {
    const PassageSegment::TermInfo* a = merged->Find(t);
    const PassageSegment::TermInfo* b = direct->Find(t);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->list.bytes, b->list.bytes);
    EXPECT_EQ(a->doc_freq, b->doc_freq);
    EXPECT_EQ(a->max_occurrences, b->max_occurrences);
  }
}

/// Passage refs per term, decoded from every group of the segment.
std::map<TermId, std::vector<std::pair<uint32_t, uint32_t>>> DecodeRefs(
    const PassageSegment& segment) {
  std::map<TermId, std::vector<std::pair<uint32_t, uint32_t>>> out;
  for (const auto& [term, info] : segment.terms()) {
    ForEachGroupedRef(info.list, [&, term = term](uint32_t ordinal,
                                                  uint32_t sentence) {
      out[term].emplace_back(ordinal, sentence);
    });
  }
  return out;
}

TEST(PassageSegmentTest, UnsealInvertsSeal) {
  PassageSegment::Builder builder = MakePassageBuilder(0, 6);
  // Sparse refs too: a term in a late sentence of one document only.
  std::vector<std::vector<TermId>> sparse(40);
  sparse[37].push_back(TermId(3));
  builder.Add(6, sparse);
  const PassageSegment::Builder original = builder;
  PassageSegment::Builder unsealed =
      PassageSegment::Seal(std::move(builder), 3)->Unseal();
  EXPECT_EQ(unsealed.docs, original.docs);
  ASSERT_EQ(unsealed.postings.size(), original.postings.size());
  for (const auto& [term, refs] : original.postings) {
    EXPECT_EQ(unsealed.postings.at(term), refs) << "term " << term;
  }
}

TEST(PassageSegmentTest, GroupHeadersGiveCountsWithoutDecoding) {
  auto segment = PassageSegment::Seal(MakePassageBuilder(0, 4), 2);
  const PassageSegment::TermInfo* info = segment->Find(TermId(1));
  ASSERT_NE(info, nullptr);
  // Doc `id` holds term 1 in each of its id+1 sentences.
  RefGroupCursor cursor(&info->list);
  for (uint32_t ordinal = 0; ordinal < 4; ++ordinal) {
    ASSERT_FALSE(cursor.done());
    EXPECT_EQ(cursor.ordinal(), ordinal);
    EXPECT_EQ(cursor.count(), ordinal + 1);
    cursor.Next();  // Steps over the refs without reading them.
  }
  EXPECT_TRUE(cursor.done());
}

TEST(PassageSegmentTest, GroupLargerThanABlockSitsAloneInItsBlock) {
  PassageSegment::Builder builder;
  std::vector<std::vector<TermId>> one(1, {TermId(1)});
  std::vector<std::vector<TermId>> many(10, {TermId(1)});
  builder.Add(0, one);
  builder.Add(1, many);  // 10 refs against block_postings = 3.
  builder.Add(2, one);
  builder.Add(3, one);
  auto segment = PassageSegment::Seal(builder, 3);
  const PassageSegment::TermInfo* info = segment->Find(TermId(1));
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->list.count, 13u);
  EXPECT_EQ(info->max_occurrences, 10u);
  ASSERT_EQ(info->list.blocks.size(), 3u);
  EXPECT_EQ(info->list.blocks[0].count, 1u);
  EXPECT_EQ(info->list.blocks[1].count, 10u);
  EXPECT_EQ(info->list.blocks[1].last_ordinal, 1u);
  EXPECT_EQ(info->list.blocks[2].count, 2u);
  EXPECT_EQ(info->list.blocks[2].last_ordinal, 3u);
  RefGroupCursor cursor(&info->list);
  cursor.Next();
  ASSERT_EQ(cursor.ordinal(), 1u);
  ASSERT_EQ(cursor.count(), 10u);
  std::vector<uint32_t> sentences;
  cursor.ForEachRef([&](uint32_t s) { sentences.push_back(s); });
  EXPECT_EQ(sentences,
            (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  cursor.Next();
  EXPECT_EQ(cursor.ordinal(), 2u);  // First group of the next block.
  EXPECT_EQ(DecodeRefs(*segment).at(TermId(1)), builder.postings.at(TermId(1)));
}

TEST(PassageSegmentTest, MergeMatchesDirectSealAcrossBlockLayouts) {
  for (size_t block_postings : {1, 2, 5, 128}) {
    SCOPED_TRACE(block_postings);
    auto merged = PassageSegment::Merge(
        *PassageSegment::Seal(MakePassageBuilder(0, 3), block_postings),
        *PassageSegment::Seal(MakePassageBuilder(3, 4), block_postings),
        block_postings);
    auto direct =
        PassageSegment::Seal(MakePassageBuilder(0, 7), block_postings);
    ASSERT_EQ(merged->doc_count(), direct->doc_count());
    ASSERT_EQ(merged->terms().size(), direct->terms().size());
    for (const auto& [term, b] : direct->terms()) {
      const PassageSegment::TermInfo* a = merged->Find(term);
      ASSERT_NE(a, nullptr);
      EXPECT_EQ(a->list.bytes, b.list.bytes);
      ASSERT_EQ(a->list.blocks.size(), b.list.blocks.size());
      for (size_t i = 0; i < a->list.blocks.size(); ++i) {
        EXPECT_EQ(a->list.blocks[i].offset, b.list.blocks[i].offset);
        EXPECT_EQ(a->list.blocks[i].count, b.list.blocks[i].count);
        EXPECT_EQ(a->list.blocks[i].last_ordinal,
                  b.list.blocks[i].last_ordinal);
      }
      EXPECT_EQ(a->doc_freq, b.doc_freq);
      EXPECT_EQ(a->max_occurrences, b.max_occurrences);
    }
    EXPECT_EQ(DecodeRefs(*merged), DecodeRefs(*direct));
    EXPECT_EQ(merged->postings_bytes(), direct->postings_bytes());
  }
}

TEST(PassageSegmentTest, EmptyBuilderSealsToEmptySegment) {
  auto segment = PassageSegment::Seal(PassageSegment::Builder{}, 4);
  EXPECT_EQ(segment->doc_count(), 0u);
  EXPECT_TRUE(segment->terms().empty());
}

}  // namespace
}  // namespace ir
}  // namespace dwqa
