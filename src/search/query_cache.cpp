#include "search/query_cache.hpp"

#include "telemetry/telemetry.hpp"

namespace laminar::search {
namespace {

telemetry::Counter& HitCounter() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::Global().GetCounter(
      "laminar_search_query_cache_hits_total");
  return c;
}

telemetry::Counter& MissCounter() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::Global().GetCounter(
      "laminar_search_query_cache_misses_total");
  return c;
}

}  // namespace

QueryEmbeddingCache::QueryEmbeddingCache(size_t capacity)
    : capacity_(capacity) {
  // Touch both counters up front so GET /metrics exposes the series (at 0)
  // as soon as a search service exists, not only after the first query.
  HitCounter();
  MissCounter();
}

embed::SparseVector QueryEmbeddingCache::GetOrCompute(
    std::string_view model, std::string_view text,
    const std::function<embed::SparseVector()>& encode) {
  std::string key;
  key.reserve(model.size() + 1 + text.size());
  key.append(model);
  key.push_back('\0');  // unambiguous (model, text) separator
  key.append(text);

  uint64_t miss_generation = 0;
  if (capacity_ > 0) {
    std::scoped_lock lock(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      HitCounter().Inc();
      return it->second->embedding;
    }
    ++misses_;
    miss_generation = generation_;
  } else {
    std::scoped_lock lock(mu_);
    ++misses_;
  }
  MissCounter().Inc();

  // Encode outside the lock: misses must not serialize behind each other.
  embed::SparseVector embedding = encode();
  if (capacity_ == 0) return embedding;

  std::scoped_lock lock(mu_);
  if (generation_ != miss_generation) {
    // Clear() ran while we were encoding: the result reflects pre-Clear
    // state, so hand it to the caller but do not store it.
    return embedding;
  }
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    // A concurrent miss already stored this key; refresh recency only.
    lru_.splice(lru_.begin(), lru_, it->second);
    return embedding;
  }
  lru_.push_front(Entry{std::move(key), embedding});
  by_key_[lru_.front().key] = lru_.begin();
  while (lru_.size() > capacity_) {
    by_key_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return embedding;
}

QueryEmbeddingCache::Stats QueryEmbeddingCache::stats() const {
  std::scoped_lock lock(mu_);
  return Stats{hits_, misses_, lru_.size()};
}

void QueryEmbeddingCache::Clear() {
  std::scoped_lock lock(mu_);
  lru_.clear();
  by_key_.clear();
  ++generation_;  // invalidate in-flight off-lock encodes (see header)
}

}  // namespace laminar::search
