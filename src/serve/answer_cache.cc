#include "serve/answer_cache.h"

#include "common/metric_names.h"

namespace dwqa {
namespace serve {

Status AnswerCacheConfig::Validate() const {
  if (ttl_ticks == 0) {
    return Status::InvalidArgument("answer cache ttl_ticks must be > 0");
  }
  if (max_bytes == 0) {
    return Status::InvalidArgument("answer cache max_bytes must be > 0");
  }
  return Status::OK();
}

AnswerCache::AnswerCache(AnswerCacheConfig config) : config_(config) {}

size_t AnswerCache::EntryBytes(const std::string& key,
                               const CachedAnswer& answer) {
  size_t bytes = key.size() + 64;  // Map/list node overhead, estimated.
  for (const auto& [k, v] : answer.answer) {
    bytes += k.size() + v.size() + 16;
  }
  return bytes;
}

void AnswerCache::CountLookup(LookupResult result) {
  if (metrics_ == nullptr) return;
  static constexpr const char* kResultNames[] = {"hit", "stale", "miss"};
  lookups_[result]
      .Get([&] {
        return metrics_->GetCounter(
            kMetricServeCacheLookups,
            {{"tenant", tenant_}, {"result", kResultNames[result]}},
            "Answer-cache lookups by result (hit/stale/miss)");
      })
      ->Increment();
}

CacheLookup AnswerCache::Get(const std::string& key, uint64_t now_tick,
                             uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  CacheLookup lookup;
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.answer->negative &&
      it->second.answer->generation < generation) {
    // An ingest since: the corpus may now answer this question. (A newer
    // entry than the caller's generation read is valid: generations only
    // grow.)
    Erase(it);
    it = entries_.end();
  }
  if (it == entries_.end()) {
    CountLookup(kMiss);
    return lookup;
  }
  Entry& entry = it->second;
  lookup.found = true;
  // A tick taken before a concurrent Put of this entry reads it at age 0,
  // not as a wrapped-around unsigned age.
  lookup.stale = !entry.answer->negative && now_tick > entry.inserted_tick &&
                 now_tick - entry.inserted_tick > config_.ttl_ticks;
  lookup.entry = entry.answer;
  lru_.splice(lru_.begin(), lru_, entry.lru_pos);
  CountLookup(lookup.stale ? kStale : kHit);
  return lookup;
}

void AnswerCache::Put(const std::string& key, CachedAnswer answer,
                      uint64_t now_tick) {
  const size_t bytes = EntryBytes(key, answer);
  if (bytes > config_.max_bytes) return;  // Can never fit.
  auto shared = std::make_shared<const CachedAnswer>(std::move(answer));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.answer->generation > shared->generation) return;
    Erase(it);
  }
  lru_.push_front(key);
  Entry entry;
  entry.answer = std::move(shared);
  entry.inserted_tick = now_tick;
  entry.bytes = bytes;
  entry.lru_pos = lru_.begin();
  entries_.emplace(key, std::move(entry));
  bytes_ += bytes;
  EvictToFit();
  if (metrics_ == nullptr) return;
  insertions_
      .Get([&] {
        return metrics_->GetCounter(kMetricServeCacheInsertions,
                                    {{"tenant", tenant_}},
                                    "Answers inserted into the cache");
      })
      ->Increment();
  bytes_gauge_
      .Get([&] {
        return metrics_->GetGauge(kMetricServeCacheBytes,
                                  {{"tenant", tenant_}},
                                  "Estimated bytes the answer cache holds");
      })
      ->Set(static_cast<double>(bytes_));
  entries_gauge_
      .Get([&] {
        return metrics_->GetGauge(kMetricServeCacheEntries,
                                  {{"tenant", tenant_}},
                                  "Entries the answer cache holds");
      })
      ->Set(static_cast<double>(entries_.size()));
}

void AnswerCache::Erase(
    std::unordered_map<std::string, Entry>::iterator it) {
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void AnswerCache::EvictToFit() {
  while (bytes_ > config_.max_bytes && !lru_.empty()) {
    Erase(entries_.find(lru_.back()));
    if (metrics_ != nullptr) {
      evictions_
          .Get([&] {
            return metrics_->GetCounter(
                kMetricServeCacheEvictions, {{"tenant", tenant_}},
                "Entries evicted by the LRU memory cap");
          })
          ->Increment();
    }
  }
}

size_t AnswerCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t AnswerCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

void AnswerCache::set_metrics(MetricRegistry* metrics,
                              const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
  tenant_ = tenant;
  for (MetricSlot<Counter>& slot : lookups_) slot.Reset();
  insertions_.Reset();
  evictions_.Reset();
  bytes_gauge_.Reset();
  entries_gauge_.Reset();
}

}  // namespace serve
}  // namespace dwqa
