#ifndef DWQA_SERVE_ANSWER_CACHE_H_
#define DWQA_SERVE_ANSWER_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "qa/degradation.h"

namespace dwqa {
namespace serve {

/// \brief Tuning of an AnswerCache.
///
/// Time is measured in server *ticks* (one tick per accepted request), not
/// wall clock — the repo's tests ban wall clocks, and tick-counted TTLs
/// make expiry exactly reproducible: "this entry survives the next 64
/// requests" is a deterministic statement, "it survives 30 seconds" is not.
struct AnswerCacheConfig {
  /// Ticks an entry stays fresh; after that it is served only as a stale
  /// fallback (stale-while-degraded) until the LRU cap evicts it.
  uint64_t ttl_ticks = 256;
  /// Memory cap over the estimated entry footprint; the least recently
  /// used entries are evicted until the cache fits.
  size_t max_bytes = 1 << 20;

  /// InvalidArgument on a zero TTL or byte cap (a cache that can hold
  /// nothing should be disabled at the server instead).
  Status Validate() const;
};

/// \brief One cached answer: the deterministic answer block of the
/// response (exactly what the cold path would serialize — byte-identical
/// hits), plus the ladder rung and corpus generation that produced it.
struct CachedAnswer {
  /// Ordered answer fields, as in serve::Response::answer.
  std::vector<std::pair<std::string, std::string>> answer;
  /// Rung of the cached answer; stale-while-degraded only serves entries
  /// whose rung beats the live result's.
  qa::DegradationLevel level = qa::DegradationLevel::kFull;
  /// Corpus generation the answer was computed at (see QaServer: each
  /// ingest starts a new one).
  uint64_t generation = 0;
  /// An unanswered or IR-only set. Only a newer corpus can improve it, so
  /// it is valid exactly while the tenant stays at `generation`, and the
  /// TTL does not apply. Positive entries live by the TTL alone.
  bool negative = false;
};

/// \brief Outcome of one cache lookup.
struct CacheLookup {
  bool found = false;  ///< An entry exists (fresh or stale).
  bool stale = false;  ///< It has outlived the TTL.
  /// The cached answer (set when found). Entries are immutable and shared,
  /// so a hit copies a pointer under the cache lock, not the fields.
  std::shared_ptr<const CachedAnswer> entry;
};

/// \brief Bounded, TTL'd, LRU answer cache keyed by normalized question —
/// the "cached-fast" rung of the Snippet-1 sync/direct/hybrid ladder.
///
/// Thread-safe: lookups and insertions from concurrent server workers are
/// serialized on an internal mutex (the critical section is a map lookup,
/// a list splice and a reference-count bump; a Put builds its entry before
/// taking the lock). One cache per tenant, so a
/// tenant can neither read another tenant's answers nor evict them.
class AnswerCache {
 public:
  explicit AnswerCache(AnswerCacheConfig config = {});

  /// Looks up `key` at time `now_tick` for a tenant at corpus
  /// `generation`. A negative entry from an older generation is outdated:
  /// it is dropped and counted as a miss. A found entry is moved to the
  /// front of the LRU order, fresh or stale — a stale entry being used as
  /// a degraded fallback is exactly the entry worth keeping around.
  CacheLookup Get(const std::string& key, uint64_t now_tick,
                  uint64_t generation = 0);

  /// Inserts (or replaces) the entry under `key`, then evicts from the LRU
  /// tail until the byte cap holds. An entry larger than the whole cap is
  /// dropped on the floor (with a lookup-miss worth of nothing — it cannot
  /// fit, and evicting everything else for it would empty the cache), and
  /// so is one computed at an older generation than the entry it would
  /// replace (a slow ask must not overwrite a newer corpus's answer).
  void Put(const std::string& key, CachedAnswer answer, uint64_t now_tick);

  /// Entries currently held.
  size_t size() const;
  /// Estimated bytes currently held.
  size_t bytes() const;

  /// Attaches a metrics registry (may be null). Lookups, insertions and
  /// evictions are mirrored into the `dwqa_serve_cache_*` families labeled
  /// `{tenant}`.
  void set_metrics(MetricRegistry* metrics, const std::string& tenant);

 private:
  struct Entry {
    std::shared_ptr<const CachedAnswer> answer;
    uint64_t inserted_tick = 0;
    size_t bytes = 0;
    /// Position in lru_ (front = most recently used).
    std::list<std::string>::iterator lru_pos;
  };

  /// Estimated footprint of one entry (key + fields + bookkeeping).
  static size_t EntryBytes(const std::string& key,
                           const CachedAnswer& answer);

  /// Lookup results, in `dwqa_serve_cache_lookups_total` label order.
  enum LookupResult { kHit, kStale, kMiss };

  /// Unlinks one entry from the map, the LRU order and the byte count.
  /// Caller holds mu_.
  void Erase(std::unordered_map<std::string, Entry>::iterator it);
  /// Evicts LRU-tail entries until bytes_ <= config_.max_bytes.
  /// Caller holds mu_.
  void EvictToFit();
  /// Mirrors a lookup result into the registry. Caller holds mu_.
  void CountLookup(LookupResult result);

  AnswerCacheConfig config_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  /// Keys in recency order, most recent first.
  std::list<std::string> lru_;
  size_t bytes_ = 0;
  MetricRegistry* metrics_ = nullptr;
  std::string tenant_;
  /// The lookup counters by LookupResult and the insertion, eviction and
  /// footprint series, resolved on first use (cleared by set_metrics) so a
  /// lookup or an insertion takes no registry lock.
  std::array<MetricSlot<Counter>, 3> lookups_;
  MetricSlot<Counter> insertions_;
  MetricSlot<Counter> evictions_;
  MetricSlot<Gauge> bytes_gauge_;
  MetricSlot<Gauge> entries_gauge_;
};

}  // namespace serve
}  // namespace dwqa

#endif  // DWQA_SERVE_ANSWER_CACHE_H_
