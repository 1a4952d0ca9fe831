// Behavioural suite of the LSM-style segmented index cores, driven through
// the InvertedIndex/PassageIndex façades: byte-identical results for every
// segment layout (the golden-equivalence contract), pinned tie-breaks,
// adversarial segment shapes, and seeded random operation sequences
// against the monolithic index. The target carries the `index` ctest label
// so scripts/check.sh can rerun it under ASan/UBSan and ci.yml under TSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "ir/inverted_index.h"
#include "ir/passage_index.h"
#include "ir/segmented_index.h"
#include "text/analyzed_corpus.h"

namespace dwqa {
namespace ir {
namespace {

/// Full-fidelity rendering of document hits: any drift across segment
/// layouts must show up as a string diff, down to the last score bit.
std::string Serialize(const std::vector<DocHit>& hits) {
  std::ostringstream out;
  out.precision(17);
  for (const DocHit& h : hits) {
    out << h.doc << "|" << h.score << "|" << h.matched_terms << "\n";
  }
  return out.str();
}

std::string Serialize(const std::vector<Passage>& passages) {
  std::ostringstream out;
  out.precision(17);
  for (const Passage& p : passages) {
    out << p.doc << "|" << p.first_sentence << "|" << p.last_sentence << "|"
        << p.score << "|" << p.text << "\n";
  }
  return out.str();
}

/// A small deterministic corpus with term overlap, repeats, stopword-only
/// documents and multi-sentence texts.
std::vector<std::string> Corpus(size_t docs) {
  std::vector<std::string> out;
  for (size_t i = 0; i < docs; ++i) {
    std::ostringstream text;
    text << "Document " << i << " about weather. ";
    if (i % 2 == 0) text << "Barcelona temperature is mild. ";
    if (i % 3 == 0) text << "Madrid summers are hot and dry. ";
    if (i % 5 == 0) text << "Weather weather weather everywhere. ";
    if (i % 7 == 0) text << "The the of of and and. ";  // Stopwords only.
    text << "Topic t" << i % 11 << " appears here.";
    out.push_back(text.str());
  }
  return out;
}

const char* const kQueries[] = {
    "Barcelona weather",       "Madrid summers temperature",
    "weather",                 "topic t3",
    "mild temperature dry",    "nothing matches this query zz",
};

InvertedIndex BuildDocIndex(const SegmentedIndexOptions& options,
                            size_t docs) {
  InvertedIndex index(options);
  std::vector<std::string> corpus = Corpus(docs);
  for (size_t i = 0; i < corpus.size(); ++i) {
    index.AddDocument(DocId(i), corpus[i]);
  }
  return index;
}

PassageIndex BuildPassageIndex(const SegmentedIndexOptions& options,
                               size_t docs) {
  PassageIndex index(/*window=*/2, options);
  std::vector<std::string> corpus = Corpus(docs);
  for (size_t i = 0; i < corpus.size(); ++i) {
    index.AddDocument(DocId(i), corpus[i]);
  }
  return index;
}

/// The index kind as a test input: both kinds sit on one segmented core,
/// so lifecycle tests run each of them through the same body.
template <typename Index>
Index BuildIndex(const SegmentedIndexOptions& options, size_t docs) {
  if constexpr (std::is_same_v<Index, InvertedIndex>) {
    return BuildDocIndex(options, docs);
  } else {
    return BuildPassageIndex(options, docs);
  }
}

/// The kind's `index` label on metrics and span annotations.
template <typename Index>
std::string KindLabel() {
  return std::is_same_v<Index, InvertedIndex> ? "doc" : "passage";
}

SegmentedIndexOptions Monolithic() {
  SegmentedIndexOptions options;
  options.seal_every = 0;  // Pure memtable — the old monolithic index.
  return options;
}

TEST(SegmentedDocIndexTest, EveryLayoutMatchesTheMonolithicIndex) {
  const size_t kDocs = 40;
  InvertedIndex golden = BuildDocIndex(Monolithic(), kDocs);
  EXPECT_EQ(golden.sealed_segment_count(), 0u);

  std::vector<SegmentedIndexOptions> layouts(3);
  layouts[0].seal_every = 1;  // One segment per document.
  layouts[1].seal_every = 7;  // Sealed segments plus a memtable tail.
  layouts[2].seal_every = 4;
  layouts[2].merge_trigger = 2;  // Aggressive inline merging.
  layouts[2].block_postings = 2;
  for (const SegmentedIndexOptions& options : layouts) {
    InvertedIndex segmented = BuildDocIndex(options, kDocs);
    EXPECT_EQ(segmented.DebugString(), golden.DebugString());
    EXPECT_EQ(segmented.document_count(), golden.document_count());
    for (const char* query : kQueries) {
      EXPECT_EQ(Serialize(segmented.Search(query, 10)),
                Serialize(golden.Search(query, 10)))
          << "query: " << query << " seal_every=" << options.seal_every;
    }
  }
}

TEST(SegmentedPassageIndexTest, EveryLayoutMatchesTheMonolithicIndex) {
  const size_t kDocs = 40;
  PassageIndex golden = BuildPassageIndex(Monolithic(), kDocs);
  std::vector<SegmentedIndexOptions> layouts(3);
  layouts[0].seal_every = 1;
  layouts[1].seal_every = 7;
  layouts[2].seal_every = 4;
  layouts[2].merge_trigger = 2;
  layouts[2].block_postings = 2;
  for (const SegmentedIndexOptions& options : layouts) {
    PassageIndex segmented = BuildPassageIndex(options, kDocs);
    EXPECT_EQ(segmented.DebugString(), golden.DebugString());
    for (const char* query : kQueries) {
      EXPECT_EQ(Serialize(segmented.Search(query, 5)),
                Serialize(golden.Search(query, 5)))
          << "query: " << query << " seal_every=" << options.seal_every;
    }
  }
}

TEST(SegmentedDocIndexTest, TieBreaksArePinnedAcrossLayouts) {
  // Identical documents score identically; the contract is ascending DocId
  // among equals, independent of how documents are spread over segments.
  for (size_t seal_every : {size_t(0), size_t(1), size_t(3)}) {
    SegmentedIndexOptions options;
    options.seal_every = seal_every;
    options.merge_trigger = 2;
    InvertedIndex index(options);
    for (DocId d = 0; d < 9; ++d) {
      index.AddDocument(d, "identical tie content here");
    }
    std::vector<DocHit> hits = index.Search("identical content", 9);
    ASSERT_EQ(hits.size(), 9u);
    for (DocId d = 0; d < 9; ++d) {
      EXPECT_EQ(hits[size_t(d)].doc, d) << "seal_every=" << seal_every;
      EXPECT_DOUBLE_EQ(hits[size_t(d)].score, hits[0].score);
    }
  }
}

TEST(SegmentedPassageIndexTest, TieBreaksArePinnedAcrossLayouts) {
  // Equal-score windows order by (DocId asc, first sentence asc) in every
  // layout — byte-identical serialization ties the contract down.
  std::string golden;
  for (size_t seal_every : {size_t(0), size_t(1), size_t(3)}) {
    SegmentedIndexOptions options;
    options.seal_every = seal_every;
    options.merge_trigger = 2;
    PassageIndex index(/*window=*/1, options);
    for (DocId d = 0; d < 6; ++d) {
      index.AddDocument(d, "Equal window. Equal window. Equal window.");
    }
    std::string serialized = Serialize(index.Search("equal window", 6));
    if (golden.empty()) {
      golden = serialized;
      std::vector<Passage> hits = index.Search("equal window", 6);
      ASSERT_EQ(hits.size(), 6u);
      for (size_t i = 1; i < hits.size(); ++i) {
        EXPECT_DOUBLE_EQ(hits[i].score, hits[0].score);
        EXPECT_TRUE(hits[i - 1].doc < hits[i].doc ||
                    (hits[i - 1].doc == hits[i].doc &&
                     hits[i - 1].first_sentence < hits[i].first_sentence));
      }
    } else {
      EXPECT_EQ(serialized, golden) << "seal_every=" << seal_every;
    }
  }
}

TEST(SegmentedDocIndexTest, IncrementalAppendAfterSealIsSearchable) {
  SegmentedIndexOptions options;
  options.seal_every = 2;
  InvertedIndex index(options);
  index.AddDocument(0, "first batch apple");
  index.AddDocument(1, "first batch banana");  // Seals here.
  EXPECT_EQ(index.sealed_segment_count(), 1u);
  index.AddDocument(2, "late arrival cherry");  // Memtable only.
  std::vector<DocHit> hits = index.Search("cherry", 3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc, 2);
  EXPECT_GT(index.postings_bytes(), 0u);
}

TEST(SegmentedDocIndexTest, StopwordOnlySegmentIsHarmless) {
  // A sealed segment with documents but zero postings (adversarial shape).
  SegmentedIndexOptions options;
  options.seal_every = 1;
  InvertedIndex index(options);
  index.AddDocument(0, "the of and but");  // Stopwords only.
  index.AddDocument(1, "real content weather");
  EXPECT_EQ(index.sealed_segment_count(), 2u);
  EXPECT_EQ(index.document_count(), 2u);
  std::vector<DocHit> hits = index.Search("weather", 2);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc, 1);
  EXPECT_TRUE(index.Search("the of", 2).empty());
}

TEST(SegmentedPassageIndexTest, SentencesSurviveSealsAndMerges) {
  SegmentedIndexOptions options;
  options.seal_every = 1;
  options.merge_trigger = 2;
  PassageIndex index(/*window=*/2, options);
  index.AddDocument(0, "Keep this reference. Second sentence.");
  const std::vector<std::string>& sentences = index.Sentences(0);
  ASSERT_EQ(sentences.size(), 2u);
  const std::string* first = &sentences[0];
  // Every further add seals a segment and triggers merges; the reference
  // handed out above must stay valid and unchanged.
  for (DocId d = 1; d <= 8; ++d) {
    index.AddDocument(d, "Filler document number. With two sentences.");
  }
  EXPECT_EQ(&index.Sentences(0)[0], first);
  EXPECT_EQ(*first, "Keep this reference.");
}

TEST(SegmentedDocIndexTest, PruningFiresAndResultsStayExact) {
  MetricRegistry metrics;
  SegmentedIndexOptions options;
  options.seal_every = 8;
  options.merge_trigger = 64;  // Keep many segments so bounds get used.
  options.block_postings = 4;
  InvertedIndex segmented(options);
  segmented.set_metrics(&metrics);
  InvertedIndex golden(Monolithic());
  std::vector<std::string> corpus = Corpus(120);
  for (size_t i = 0; i < corpus.size(); ++i) {
    segmented.AddDocument(DocId(i), corpus[i]);
    golden.AddDocument(DocId(i), corpus[i]);
  }
  for (const char* query : kQueries) {
    EXPECT_EQ(Serialize(segmented.Search(query, 3)),
              Serialize(golden.Search(query, 3)))
        << query;
  }
  double pruned =
      metrics.Value("dwqa_index_pruned_segments_total", {{"index", "doc"}}) +
      metrics.Value("dwqa_index_pruned_blocks_total", {{"index", "doc"}}) +
      metrics.Value("dwqa_index_pruned_candidates_total",
                    {{"index", "doc"}});
  EXPECT_GT(pruned, 0.0);
  EXPECT_EQ(metrics.Value("dwqa_index_segments", {{"index", "doc"}}),
            double(segmented.sealed_segment_count()));
  EXPECT_EQ(metrics.Value("dwqa_index_postings_bytes", {{"index", "doc"}}),
            double(segmented.postings_bytes()));
}

TEST(SegmentedPassageIndexTest, PruningFiresAndResultsStayExact) {
  MetricRegistry metrics;
  SegmentedIndexOptions options;
  options.seal_every = 8;
  options.merge_trigger = 64;
  PassageIndex segmented(/*window=*/2, options);
  segmented.set_metrics(&metrics);
  PassageIndex golden(/*window=*/2, Monolithic());
  std::vector<std::string> corpus = Corpus(120);
  for (size_t i = 0; i < corpus.size(); ++i) {
    segmented.AddDocument(DocId(i), corpus[i]);
    golden.AddDocument(DocId(i), corpus[i]);
  }
  for (const char* query : kQueries) {
    EXPECT_EQ(Serialize(segmented.Search(query, 3)),
              Serialize(golden.Search(query, 3)))
        << query;
  }
  double pruned =
      metrics.Value("dwqa_index_pruned_segments_total",
                    {{"index", "passage"}}) +
      metrics.Value("dwqa_index_pruned_candidates_total",
                    {{"index", "passage"}});
  EXPECT_GT(pruned, 0.0);
}

TEST(SegmentedPassageIndexTest, BestBoundFirstScoresOnlyWhatCanEnterTheTopK) {
  // N−1 weak documents match one query term; the one document matching
  // both comes last in ordinal order. Scored best bound first, it sets
  // the threshold before any weak document is read, so at k = 1 every
  // weak document is pruned unscored, with its one ref.
  constexpr size_t kDocs = 40;
  for (bool sealed : {false, true}) {
    SCOPED_TRACE(sealed ? "sealed" : "memtable");
    MetricRegistry metrics;
    SegmentedIndexOptions options;
    options.seal_every = sealed ? kDocs : 0;
    PassageIndex index(/*window=*/2, options);
    index.set_metrics(&metrics);
    for (size_t i = 0; i + 1 < kDocs; ++i) {
      index.AddDocument(DocId(i), "Weak page about alpha.");
    }
    index.AddDocument(DocId(kDocs - 1), "Strong page about alpha and beta.");
    ASSERT_EQ(index.sealed_segment_count(), sealed ? 1u : 0u);
    std::vector<Passage> top = index.Search("alpha beta", 1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].doc, DocId(kDocs - 1));
    MetricLabels passage = {{"index", "passage"}};
    EXPECT_EQ(metrics.Value("dwqa_index_pruned_candidates_total", passage),
              double(kDocs - 1));
    EXPECT_EQ(metrics.Value("dwqa_index_pruned_windows_total", passage),
              double(kDocs - 1));
  }
}

template <typename Index>
void ExpectSealAndInlineMergeEmitSpans() {
  SCOPED_TRACE(KindLabel<Index>());
  TraceRecorder trace;
  SegmentedIndexOptions options;
  options.seal_every = 1;
  options.merge_trigger = 2;
  Index index = BuildIndex<Index>(options, 0);
  index.set_trace(&trace);
  for (DocId d = 0; d < 5; ++d) {
    index.AddDocument(d, "span content number " + std::to_string(d));
  }
  size_t seals = 0;
  size_t merges = 0;
  for (const SpanRecord& span : trace.spans()) {
    if (span.name == "index.seal") ++seals;
    if (span.name == "index.merge") ++merges;
    if (span.name == "index.seal" || span.name == "index.merge") {
      ASSERT_FALSE(span.annotations.empty());
      EXPECT_EQ(span.annotations[0],
                std::make_pair(std::string("index"), KindLabel<Index>()));
    }
  }
  EXPECT_EQ(seals, 5u);
  EXPECT_GT(merges, 0u);
}

TEST(SegmentedDocIndexTest, SealAndInlineMergeEmitSpans) {
  ExpectSealAndInlineMergeEmitSpans<InvertedIndex>();
  ExpectSealAndInlineMergeEmitSpans<PassageIndex>();
}

template <typename Index>
void ExpectSealCountersTrackSealsAndMerges() {
  SCOPED_TRACE(KindLabel<Index>());
  MetricRegistry metrics;
  SegmentedIndexOptions options;
  options.seal_every = 1;
  options.merge_trigger = 2;
  Index index = BuildIndex<Index>(options, 0);
  index.set_metrics(&metrics);
  for (DocId d = 0; d < 6; ++d) {
    index.AddDocument(d, "counter content number " + std::to_string(d));
  }
  MetricLabels labels = {{"index", KindLabel<Index>()}};
  EXPECT_EQ(metrics.Value("dwqa_index_seals_total", labels), 6.0);
  EXPECT_GT(metrics.Value("dwqa_index_merges_total", labels), 0.0);
  EXPECT_LE(index.sealed_segment_count(), 2u);
}

TEST(SegmentedDocIndexTest, SealCountersTrackSealsAndMerges) {
  ExpectSealCountersTrackSealsAndMerges<InvertedIndex>();
  ExpectSealCountersTrackSealsAndMerges<PassageIndex>();
}

// merge_trigger = 0 is clamped to 1: one sealed segment has no adjacent
// pair to merge, so picking one used to read past the manifest (ASan:
// heap-buffer-overflow on the first seal).
template <typename Index>
void ExpectZeroMergeTriggerActsAsOne() {
  SCOPED_TRACE(KindLabel<Index>());
  SegmentedIndexOptions options;
  options.seal_every = 1;
  options.merge_trigger = 0;
  Index index = BuildIndex<Index>(options, 12);
  EXPECT_EQ(index.sealed_segment_count(), 1u);
  Index golden = BuildIndex<Index>(Monolithic(), 12);
  EXPECT_EQ(index.DebugString(), golden.DebugString());
  for (const char* query : kQueries) {
    EXPECT_EQ(Serialize(index.Search(query, 5)),
              Serialize(golden.Search(query, 5)))
        << query;
  }
}

TEST(SegmentedIndexTest, ZeroMergeTriggerActsAsOne) {
  ExpectZeroMergeTriggerActsAsOne<InvertedIndex>();
  ExpectZeroMergeTriggerActsAsOne<PassageIndex>();
}

// k = 0 asks for nothing: both kinds answer empty, with no top-k
// threshold to rank against.
TEST(SegmentedIndexTest, ZeroKReturnsNothing) {
  SegmentedIndexOptions options;
  options.seal_every = 4;
  InvertedIndex doc = BuildIndex<InvertedIndex>(options, 20);
  PassageIndex passage = BuildIndex<PassageIndex>(options, 20);
  for (const char* query : kQueries) {
    EXPECT_TRUE(doc.Search(query, 0).empty()) << query;
    EXPECT_TRUE(passage.Search(query, 0).empty()) << query;
  }
}

// ---------------------------------------------------------------------------
// Seeded segmented≡monolithic operation sequences. Each seed draws segment
// options (seal_every 1–9, merge_trigger 1–4, block_postings 1–8) and a
// random interleaving of AddDocument, AddAnalyzedBatch (serial or on a
// 2-thread pool) and SealMemtable. After every step the
// segmented index must dump and answer byte-identically to a
// `seal_every = 0` index fed the same documents one at a time.

const char* const kSequenceWords[] = {
    "barcelona", "madrid", "weather", "temperature", "mild", "hot",
    "dry",       "summer", "flight",  "delayed",     "rain", "the"};

const char* const kSequenceQueries[] = {
    "barcelona weather", "madrid temperature hot", "rain",
    "summer flight delayed", "mild dry rain barcelona sunny", "zz"};

/// One to four sentences over a small vocabulary, so terms recur across
/// documents, sentences and segments ("the" is a stopword).
std::string RandomText(Rng* rng) {
  std::string text;
  size_t sentences = 1 + rng->NextBelow(4);
  for (size_t s = 0; s < sentences; ++s) {
    size_t words = 1 + rng->NextBelow(6);
    for (size_t w = 0; w < words; ++w) {
      if (w > 0) text += ' ';
      text += kSequenceWords[rng->NextBelow(std::size(kSequenceWords))];
    }
    text += ". ";
  }
  return text;
}

template <typename Index>
Index MakeIndex(text::AnalyzedCorpus* corpus,
                const SegmentedIndexOptions& options) {
  if constexpr (std::is_same_v<Index, InvertedIndex>) {
    return InvertedIndex(corpus->mutable_dictionary(), options);
  } else {
    return PassageIndex(/*window=*/2, corpus->mutable_dictionary(), options);
  }
}

template <typename Index>
void RunOperationSequence(uint64_t seed, ThreadPool* pool) {
  Rng rng(seed);
  SegmentedIndexOptions options;
  options.seal_every = 1 + rng.NextBelow(9);
  options.merge_trigger = 1 + rng.NextBelow(4);
  options.block_postings = 1 + rng.NextBelow(8);
  SCOPED_TRACE(::testing::Message()
               << KindLabel<Index>() << " seed=" << seed
               << " seal_every=" << options.seal_every
               << " merge_trigger=" << options.merge_trigger
               << " block_postings=" << options.block_postings);
  // One dictionary for both indexes, so their dumps share term ids.
  text::AnalyzedCorpus corpus;
  Index segmented = MakeIndex<Index>(&corpus, options);
  Index golden = MakeIndex<Index>(&corpus, Monolithic());
  DocId next = 0;
  size_t steps = 4 + rng.NextBelow(8);
  for (size_t step = 0; step < steps; ++step) {
    switch (rng.NextBelow(3)) {
      case 0: {
        std::string text = RandomText(&rng);
        segmented.AddDocument(next, text);
        golden.AddDocument(next, text);
        ++next;
        break;
      }
      case 1: {
        std::vector<std::pair<DocId, const text::AnalyzedDocument*>> batch;
        for (size_t n = rng.NextBelow(7); n > 0; --n, ++next) {
          const text::AnalyzedDocument& analysis =
              corpus.Add(next, RandomText(&rng));
          batch.emplace_back(next, &analysis);
          golden.AddAnalyzed(next, analysis);
        }
        segmented.AddAnalyzedBatch(batch,
                                   rng.NextBelow(2) == 1 ? pool : nullptr);
        break;
      }
      default:
        segmented.SealMemtable();
        break;
    }
    ASSERT_EQ(segmented.DebugString(), golden.DebugString())
        << "after step " << step;
    for (const char* query : kSequenceQueries) {
      ASSERT_EQ(Serialize(segmented.Search(query, 4)),
                Serialize(golden.Search(query, 4)))
          << "after step " << step << ", query: " << query;
    }
  }
}

TEST(SegmentedIndexTest, SeededOperationSequencesMatchMonolithic) {
  ThreadPool pool(2);
  for (uint64_t seed = 0; seed < 200; ++seed) {
    RunOperationSequence<InvertedIndex>(seed, &pool);
    RunOperationSequence<PassageIndex>(seed, &pool);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ir
}  // namespace dwqa
