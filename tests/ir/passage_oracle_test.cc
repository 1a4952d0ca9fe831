// Brute-force oracle for IR-n passage scoring. SegmentedPassageIndex merges
// each document's postings and slides its windows in one pass; the oracle
// here is the direct definition instead — a window at every matched
// sentence, its occurrence counts taken by rescanning all of the
// document's hits — and must agree with SearchTopK on seeded random
// corpora down to the last score bit. (The segmented≡monolithic suites
// cannot catch a scoring bug: both of their sides run the same scorer.)
// A second suite runs the oracle over each storage layout — memtable only,
// all sealed, mixed — at k = 1, 5 and 50, with repeated query terms and
// refs past the end of a sentence table. A third draws corpora of many
// identical documents, whose bounds and window scores all tie.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ir/passage_index.h"
#include "ir/segmented_index.h"

namespace dwqa {
namespace ir {
namespace {

struct OracleDoc {
  DocId id = kInvalidDoc;
  /// Distinct terms per sentence, as the index receives them.
  std::vector<std::vector<TermId>> sentence_terms;
  /// The stored sentence table (may be shorter than sentence_terms).
  std::vector<std::string> sentences;
};

/// Today's definition of IR-n scoring, written for clarity, not speed.
std::vector<Passage> OracleSearch(const std::vector<OracleDoc>& docs,
                                  size_t window, const std::vector<TermId>& ids,
                                  size_t k) {
  std::map<TermId, size_t> df;
  for (const OracleDoc& doc : docs) {
    std::set<TermId> terms;
    for (const auto& sentence : doc.sentence_terms) {
      terms.insert(sentence.begin(), sentence.end());
    }
    for (TermId term : terms) ++df[term];
  }
  const double n_docs = static_cast<double>(docs.size());
  std::vector<std::pair<TermId, double>> query;
  for (TermId id : ids) {
    if (df[id] == 0) continue;
    query.push_back(
        {id, std::log((n_docs + 1.0) / static_cast<double>(df[id]))});
  }
  std::vector<Passage> candidates;
  for (const OracleDoc& doc : docs) {
    struct Hit {
      size_t sentence;
      size_t term;
    };
    std::vector<Hit> hits;
    std::set<size_t> starts;
    for (size_t t = 0; t < query.size(); ++t) {
      for (size_t s = 0; s < doc.sentence_terms.size(); ++s) {
        const auto& terms = doc.sentence_terms[s];
        if (std::find(terms.begin(), terms.end(), query[t].first) !=
            terms.end()) {
          hits.push_back({s, t});
          starts.insert(s);
        }
      }
    }
    size_t n_sents = doc.sentences.size();
    std::vector<Passage> windows;
    for (size_t first : starts) {
      size_t last =
          std::min(n_sents == 0 ? first : n_sents - 1, first + window - 1);
      std::vector<size_t> occurrences(query.size(), 0);
      for (const Hit& h : hits) {
        if (h.sentence >= first && h.sentence <= last) ++occurrences[h.term];
      }
      Passage p;
      p.doc = doc.id;
      p.first_sentence = first;
      p.last_sentence = last;
      for (size_t t = 0; t < query.size(); ++t) {
        if (occurrences[t] == 0) continue;
        p.score += query[t].second +
                   0.05 * query[t].second *
                       static_cast<double>(occurrences[t] - 1);
      }
      windows.push_back(p);
    }
    std::sort(windows.begin(), windows.end(),
              [](const Passage& a, const Passage& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.first_sentence < b.first_sentence;
              });
    std::vector<Passage> selected;
    for (const Passage& w : windows) {
      bool overlaps = std::any_of(
          selected.begin(), selected.end(), [&](const Passage& sel) {
            return w.first_sentence <= sel.last_sentence &&
                   sel.first_sentence <= w.last_sentence;
          });
      if (!overlaps) selected.push_back(w);
    }
    candidates.insert(candidates.end(), selected.begin(), selected.end());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Passage& a, const Passage& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.doc != b.doc) return a.doc < b.doc;
              return a.first_sentence < b.first_sentence;
            });
  if (candidates.size() > k) candidates.resize(k);
  for (Passage& p : candidates) {
    const OracleDoc& doc = *std::find_if(
        docs.begin(), docs.end(),
        [&](const OracleDoc& d) { return d.id == p.doc; });
    for (size_t s = p.first_sentence;
         s <= p.last_sentence && s < doc.sentences.size(); ++s) {
      if (!p.text.empty()) p.text += '\n';
      p.text += doc.sentences[s];
    }
  }
  return candidates;
}

uint64_t ScoreBits(double score) {
  uint64_t bits;
  std::memcpy(&bits, &score, sizeof bits);
  return bits;
}

constexpr TermId kVocabulary = 8;

/// One random document: up to 14 sentences over a vocabulary skewed toward
/// low term ids, so some terms recur across sentences (the repeat bonus)
/// and others are rare or missing from whole segments. A term drawn twice
/// for one sentence is one ref, as the text pipeline's dedup guarantees.
OracleDoc RandomDoc(Rng* rng, DocId id) {
  OracleDoc doc;
  doc.id = id;
  size_t n_sentences = rng->NextBelow(15);
  for (size_t s = 0; s < n_sentences; ++s) {
    std::vector<TermId> terms;
    for (size_t draws = rng->NextBelow(5); draws > 0; --draws) {
      TermId term = static_cast<TermId>(
          std::min(rng->NextBelow(kVocabulary), rng->NextBelow(kVocabulary)));
      if (std::find(terms.begin(), terms.end(), term) == terms.end()) {
        terms.push_back(term);
      }
    }
    doc.sentence_terms.push_back(terms);
  }
  // Mostly the full sentence table; sometimes a shorter one — down to
  // empty — so windows clamp at (or start past) the table's end.
  size_t table = n_sentences;
  if (rng->NextBelow(4) == 0) table = rng->NextBelow(n_sentences + 1);
  for (size_t s = 0; s < table; ++s) {
    doc.sentences.push_back("d" + std::to_string(id) + "s" +
                            std::to_string(s));
  }
  return doc;
}

/// Sorted-unique ids (the ResolvePassageQuery order), some of them absent
/// from the whole corpus.
std::vector<TermId> RandomQuery(Rng* rng) {
  std::set<TermId> picked;
  for (size_t n = 1 + rng->NextBelow(4); n > 0; --n) {
    picked.insert(static_cast<TermId>(rng->NextBelow(kVocabulary + 2)));
  }
  return std::vector<TermId>(picked.begin(), picked.end());
}

/// SearchTopK against the oracle, down to the score bits. Returns what
/// SearchTopK returned.
std::vector<Passage> ExpectOracleResults(const SegmentedPassageIndex& index,
                                         const std::vector<OracleDoc>& docs,
                                         size_t window,
                                         const std::vector<TermId>& ids,
                                         size_t k) {
  std::vector<Passage> got = index.SearchTopK(ids, k);
  std::vector<Passage> want = OracleSearch(docs, window, ids, k);
  EXPECT_EQ(got.size(), want.size()) << "k=" << k;
  for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "k=" << k << " rank " << i);
    EXPECT_EQ(got[i].doc, want[i].doc);
    EXPECT_EQ(got[i].first_sentence, want[i].first_sentence);
    EXPECT_EQ(got[i].last_sentence, want[i].last_sentence);
    EXPECT_EQ(ScoreBits(got[i].score), ScoreBits(want[i].score))
        << got[i].score << " vs " << want[i].score;
    EXPECT_EQ(got[i].text, want[i].text);
  }
  return got;
}

void RunOracleTrial(uint64_t seed) {
  Rng rng(seed);
  size_t window = 1 + rng.NextBelow(16);
  SegmentedIndexOptions options;
  options.seal_every = rng.NextBelow(2) == 0 ? 0 : 1 + rng.NextBelow(6);
  options.merge_trigger = 1 + rng.NextBelow(4);
  options.block_postings = 1 + rng.NextBelow(8);
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " window=" << window
               << " seal_every=" << options.seal_every
               << " merge_trigger=" << options.merge_trigger
               << " block_postings=" << options.block_postings);
  SegmentedPassageIndex index(window, options);
  std::vector<OracleDoc> docs;
  size_t n_docs = 1 + rng.NextBelow(30);
  for (size_t i = 0; i < n_docs; ++i) {
    // Distinct ids out of insertion order (17 is a unit mod 31), so the
    // DocId tie-breaks are exercised.
    DocId id = static_cast<DocId>((i * 17 + seed) % 31);
    docs.push_back(RandomDoc(&rng, id));
    index.Add(docs.back().id, docs.back().sentence_terms);
    index.SetSentences(docs.back().id, docs.back().sentences);
    // Occasional early seals leave segments of uneven sizes.
    if (rng.NextBelow(8) == 0) index.SealMemtable();
  }
  for (size_t q = 0; q < 6; ++q) {
    SCOPED_TRACE(::testing::Message() << "query " << q);
    std::vector<TermId> ids = RandomQuery(&rng);
    size_t k = rng.NextBelow(9);
    ExpectOracleResults(index, docs, window, ids, k);
  }
}

TEST(PassageScoringOracleTest, SearchTopKMatchesBruteForceOnRandomCorpora) {
  for (uint64_t seed = 0; seed < 400; ++seed) {
    RunOracleTrial(seed);
    if (::testing::Test::HasFailure()) return;
  }
}

/// Where the corpus of a layout trial lives when it is searched.
enum class Layout {
  kMemtable,  ///< seal_every = 0: the monolithic index.
  kSealed,    ///< Every document in a sealed segment.
  kMixed,     ///< Sealed segments of uneven sizes plus a memtable.
};

const char* LayoutName(Layout layout) {
  switch (layout) {
    case Layout::kMemtable:
      return "memtable";
    case Layout::kSealed:
      return "sealed";
    case Layout::kMixed:
      return "mixed";
  }
  return "?";
}

/// One seeded corpus in `layout`, searched at k = 1, 5 and 50 with
/// queries that sometimes repeat a term. Counts into `*past_end` the
/// returned passages that start past their document's sentence table.
void RunLayoutTrial(uint64_t seed, Layout layout, size_t* past_end) {
  Rng rng(seed);
  size_t window = 1 + rng.NextBelow(16);
  SegmentedIndexOptions options;
  options.seal_every = layout == Layout::kMemtable ? 0 : 1 + rng.NextBelow(6);
  options.merge_trigger = 1 + rng.NextBelow(3);
  options.block_postings = 1 + rng.NextBelow(8);
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " layout=" << LayoutName(layout)
               << " window=" << window << " seal_every=" << options.seal_every
               << " merge_trigger=" << options.merge_trigger
               << " block_postings=" << options.block_postings);
  SegmentedPassageIndex index(window, options);
  std::vector<OracleDoc> docs;
  size_t n_docs = 1 + rng.NextBelow(40);
  for (size_t i = 0; i < n_docs; ++i) {
    DocId id = static_cast<DocId>((i * 17 + seed) % 41);
    docs.push_back(RandomDoc(&rng, id));
    index.Add(docs.back().id, docs.back().sentence_terms);
    index.SetSentences(docs.back().id, docs.back().sentences);
    if (layout == Layout::kMixed && rng.NextBelow(6) == 0) {
      index.SealMemtable();
    }
  }
  if (layout == Layout::kSealed) index.SealMemtable();
  const size_t kTopK[] = {1, 5, 50};
  for (size_t q = 0; q < 9; ++q) {
    std::vector<TermId> ids = RandomQuery(&rng);
    // A repeated term counts as two query terms, each with its own idf
    // share, on both sides.
    if (rng.NextBelow(3) == 0) {
      ids.insert(ids.begin() + 1, ids.front());
    }
    SCOPED_TRACE(::testing::Message() << "query " << q);
    for (const Passage& p :
         ExpectOracleResults(index, docs, window, ids, kTopK[q % 3])) {
      const OracleDoc& doc = *std::find_if(
          docs.begin(), docs.end(),
          [&](const OracleDoc& d) { return d.id == p.doc; });
      if (p.first_sentence >= doc.sentences.size()) ++*past_end;
    }
  }
}

TEST(PassageScoringOracleTest, EveryLayoutAndTopKMatchesBruteForce) {
  size_t past_end = 0;
  for (Layout layout : {Layout::kMemtable, Layout::kSealed, Layout::kMixed}) {
    for (uint64_t seed = 0; seed < 150; ++seed) {
      RunLayoutTrial(seed, layout, &past_end);
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Refs past the end of a sentence table were searched and returned.
  EXPECT_GT(past_end, 0u);
}

/// One seeded corpus made mostly of copies of one random document under
/// distinct ids, so document bounds, segment bounds and window scores tie
/// across the copies; a few random documents ride along. Only the DocId
/// tie-break of the final rank may decide between copies, never the
/// order in which equal bounds leave the search's heap.
void RunTieTrial(uint64_t seed) {
  Rng rng(seed);
  size_t window = 1 + rng.NextBelow(8);
  SegmentedIndexOptions options;
  options.seal_every = rng.NextBelow(3) == 0 ? 0 : 1 + rng.NextBelow(8);
  options.merge_trigger = 1 + rng.NextBelow(4);
  options.block_postings = 1 + rng.NextBelow(8);
  SCOPED_TRACE(::testing::Message()
               << "seed=" << seed << " window=" << window
               << " seal_every=" << options.seal_every
               << " merge_trigger=" << options.merge_trigger
               << " block_postings=" << options.block_postings);
  SegmentedPassageIndex index(window, options);
  const OracleDoc original = RandomDoc(&rng, 0);
  size_t copies = 8 + rng.NextBelow(24);
  size_t extras = rng.NextBelow(4);
  std::vector<OracleDoc> docs;
  for (size_t i = 0; i < copies + extras; ++i) {
    DocId id = static_cast<DocId>((i * 17 + seed) % 41);
    if (i < copies) {
      docs.push_back(original);
      docs.back().id = id;
    } else {
      docs.push_back(RandomDoc(&rng, id));
    }
    index.Add(docs.back().id, docs.back().sentence_terms);
    index.SetSentences(docs.back().id, docs.back().sentences);
    if (rng.NextBelow(6) == 0) index.SealMemtable();
  }
  for (size_t q = 0; q < 6; ++q) {
    SCOPED_TRACE(::testing::Message() << "query " << q);
    std::vector<TermId> ids = RandomQuery(&rng);
    for (size_t k : {1, 5, 50}) {
      ExpectOracleResults(index, docs, window, ids, k);
    }
  }
}

TEST(PassageScoringOracleTest, TieHeavyCorporaMatchBruteForce) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    RunTieTrial(seed);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace ir
}  // namespace dwqa
