// Answer-cache tests: tick-counted TTL expiry, LRU eviction at the byte
// cap, replacement, generation-bound negative entries, and the cache
// metrics.

#include "serve/answer_cache.h"

#include <gtest/gtest.h>

#include <string>

#include "common/metric_names.h"
#include "common/metrics.h"

namespace dwqa {
namespace serve {
namespace {

CachedAnswer MakeAnswer(const std::string& text,
                        qa::DegradationLevel level =
                            qa::DegradationLevel::kFull) {
  CachedAnswer answer;
  answer.answer = {{"degradation", qa::DegradationLevelName(level)},
                   {"answered", "1"},
                   {"answer", text}};
  answer.level = level;
  return answer;
}

/// An unanswered set computed at corpus `generation`.
CachedAnswer MakeNegative(uint64_t generation) {
  CachedAnswer answer;
  answer.answer = {{"degradation", "Unanswered"}, {"answered", "0"}};
  answer.level = qa::DegradationLevel::kUnanswered;
  answer.generation = generation;
  answer.negative = true;
  return answer;
}

TEST(AnswerCacheConfigTest, Validation) {
  AnswerCacheConfig ok;
  EXPECT_TRUE(ok.Validate().ok());
  AnswerCacheConfig zero_ttl;
  zero_ttl.ttl_ticks = 0;
  EXPECT_TRUE(zero_ttl.Validate().IsInvalidArgument());
  AnswerCacheConfig zero_bytes;
  zero_bytes.max_bytes = 0;
  EXPECT_TRUE(zero_bytes.Validate().IsInvalidArgument());
}

TEST(AnswerCacheTest, MissThenHit) {
  AnswerCache cache;
  EXPECT_FALSE(cache.Get("q", 1).found);
  cache.Put("q", MakeAnswer("8C"), 1);
  CacheLookup lookup = cache.Get("q", 2);
  ASSERT_TRUE(lookup.found);
  EXPECT_FALSE(lookup.stale);
  EXPECT_EQ(lookup.entry->answer[2].second, "8C");
  EXPECT_EQ(lookup.entry->level, qa::DegradationLevel::kFull);
}

TEST(AnswerCacheTest, LookupTickedBeforeThePutReadsFresh) {
  // A request whose tick was taken before a concurrent Put of its key, but
  // whose lookup runs after it, sees the entry at age 0 — not an unsigned
  // age that wrapped to ~2^64 and reads as stale.
  AnswerCacheConfig config;
  config.ttl_ticks = 10;
  AnswerCache cache(config);
  cache.Put("q", MakeAnswer("8C"), 10);
  CacheLookup lookup = cache.Get("q", 5);
  ASSERT_TRUE(lookup.found);
  EXPECT_FALSE(lookup.stale);
}

TEST(AnswerCacheTest, TtlExpiryIsTickCounted) {
  AnswerCacheConfig config;
  config.ttl_ticks = 10;
  AnswerCache cache(config);
  cache.Put("q", MakeAnswer("8C"), 100);

  // Exactly at the TTL boundary the entry is still fresh...
  CacheLookup at_ttl = cache.Get("q", 110);
  ASSERT_TRUE(at_ttl.found);
  EXPECT_FALSE(at_ttl.stale);

  // ...one tick past it, the entry is stale but still served as one.
  CacheLookup past_ttl = cache.Get("q", 111);
  ASSERT_TRUE(past_ttl.found);
  EXPECT_TRUE(past_ttl.stale);
  EXPECT_EQ(past_ttl.entry->answer[2].second, "8C");
}

TEST(AnswerCacheTest, ReplacementRefreshesTtlAndValue) {
  AnswerCacheConfig config;
  config.ttl_ticks = 10;
  AnswerCache cache(config);
  cache.Put("q", MakeAnswer("old"), 1);
  cache.Put("q", MakeAnswer("new"), 100);
  EXPECT_EQ(cache.size(), 1u);
  CacheLookup lookup = cache.Get("q", 105);
  ASSERT_TRUE(lookup.found);
  EXPECT_FALSE(lookup.stale);
  EXPECT_EQ(lookup.entry->answer[2].second, "new");
}

TEST(AnswerCacheTest, LruEvictionAtTheByteCap) {
  AnswerCacheConfig config;
  // Room for roughly three small entries.
  config.max_bytes = 500;
  AnswerCache cache(config);
  cache.Put("first", MakeAnswer("1"), 1);
  cache.Put("second", MakeAnswer("2"), 2);
  cache.Put("third", MakeAnswer("3"), 3);
  ASSERT_EQ(cache.size(), 3u);

  // Touch "first" so "second" becomes the LRU tail.
  ASSERT_TRUE(cache.Get("first", 4).found);

  cache.Put("fourth", MakeAnswer("4"), 5);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.Get("first", 6).found);
  EXPECT_FALSE(cache.Get("second", 6).found);  // Evicted as LRU.
  EXPECT_TRUE(cache.Get("third", 6).found);
  EXPECT_TRUE(cache.Get("fourth", 6).found);
  EXPECT_LE(cache.bytes(), config.max_bytes);
}

TEST(AnswerCacheTest, OversizedEntryIsDroppedNotCached) {
  AnswerCacheConfig config;
  config.max_bytes = 200;
  AnswerCache cache(config);
  cache.Put("small", MakeAnswer("x"), 1);
  CachedAnswer huge = MakeAnswer(std::string(10'000, 'y'));
  cache.Put("huge", huge, 2);
  // The oversize insert neither landed nor evicted the resident entry.
  EXPECT_FALSE(cache.Get("huge", 3).found);
  EXPECT_TRUE(cache.Get("small", 3).found);
}

TEST(AnswerCacheTest, MetricsCountLookupsInsertionsAndEvictions) {
  AnswerCacheConfig config;
  config.ttl_ticks = 5;
  config.max_bytes = 300;
  AnswerCache cache(config);
  MetricRegistry metrics;
  cache.set_metrics(&metrics, "acme");

  cache.Get("q", 1);                     // miss
  cache.Put("q", MakeAnswer("a"), 1);    // insert
  cache.Get("q", 2);                     // hit
  cache.Get("q", 20);                    // stale
  cache.Put("r", MakeAnswer("b"), 21);   // insert
  cache.Put("s", MakeAnswer("c"), 22);   // insert, evicts LRU

  auto lookups = [&](const char* result) {
    return metrics.Value(kMetricServeCacheLookups,
                         {{"tenant", "acme"}, {"result", result}});
  };
  EXPECT_DOUBLE_EQ(lookups("miss"), 1.0);
  EXPECT_DOUBLE_EQ(lookups("hit"), 1.0);
  EXPECT_DOUBLE_EQ(lookups("stale"), 1.0);
  EXPECT_DOUBLE_EQ(
      metrics.Value(kMetricServeCacheInsertions, {{"tenant", "acme"}}), 3.0);
  EXPECT_GE(
      metrics.Value(kMetricServeCacheEvictions, {{"tenant", "acme"}}), 1.0);
  EXPECT_EQ(
      metrics.Value(kMetricServeCacheEntries, {{"tenant", "acme"}}),
      static_cast<double>(cache.size()));
  EXPECT_EQ(metrics.Value(kMetricServeCacheBytes, {{"tenant", "acme"}}),
            static_cast<double>(cache.bytes()));
}

TEST(AnswerCacheTest, NegativeEntryServesExactlyItsGeneration) {
  AnswerCacheConfig config;
  config.ttl_ticks = 5;
  AnswerCache cache(config);
  MetricRegistry metrics;
  cache.set_metrics(&metrics, "acme");
  cache.Put("q", MakeNegative(3), 1);

  // The TTL does not apply: only a new corpus generation can change an
  // unanswered result.
  CacheLookup same = cache.Get("q", 100, 3);
  ASSERT_TRUE(same.found);
  EXPECT_FALSE(same.stale);
  EXPECT_TRUE(same.entry->negative);
  EXPECT_EQ(same.entry->generation, 3u);
  // A caller whose generation read predates the entry's still gets it:
  // generations only grow, so the entry is at least as new as its corpus.
  EXPECT_TRUE(cache.Get("q", 100, 2).found);

  // After an ingest the entry is outdated: a miss, and it is dropped.
  EXPECT_FALSE(cache.Get("q", 101, 4).found);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  auto lookups = [&](const char* result) {
    return metrics.Value(kMetricServeCacheLookups,
                         {{"tenant", "acme"}, {"result", result}});
  };
  EXPECT_DOUBLE_EQ(lookups("hit"), 2.0);
  EXPECT_DOUBLE_EQ(lookups("stale"), 0.0);
  EXPECT_DOUBLE_EQ(lookups("miss"), 1.0);
}

TEST(AnswerCacheTest, PositiveEntryOutlivesItsGenerationUntilTheTtl) {
  AnswerCacheConfig config;
  config.ttl_ticks = 10;
  AnswerCache cache(config);
  CachedAnswer answer = MakeAnswer("8C");
  answer.generation = 1;
  cache.Put("q", answer, 1);
  CacheLookup later = cache.Get("q", 5, 7);
  ASSERT_TRUE(later.found);
  EXPECT_FALSE(later.stale);
  CacheLookup expired = cache.Get("q", 50, 7);
  ASSERT_TRUE(expired.found);
  EXPECT_TRUE(expired.stale);
}

TEST(AnswerCacheTest, AnOlderGenerationNeverReplacesANewerEntry) {
  AnswerCache cache;
  cache.Put("q", MakeNegative(5), 1);
  // A slow ask computed before the last ingest lands after the newer one.
  CachedAnswer older = MakeAnswer("old");
  older.generation = 4;
  cache.Put("q", older, 2);
  CacheLookup kept = cache.Get("q", 3, 5);
  ASSERT_TRUE(kept.found);
  EXPECT_TRUE(kept.entry->negative);

  CachedAnswer same = MakeAnswer("new");
  same.generation = 5;
  cache.Put("q", same, 4);
  CacheLookup replaced = cache.Get("q", 5, 5);
  ASSERT_TRUE(replaced.found);
  EXPECT_EQ(replaced.entry->answer[2].second, "new");
}

}  // namespace
}  // namespace serve
}  // namespace dwqa
