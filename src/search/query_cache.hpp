// Small LRU cache for query embeddings, keyed on (model, query text).
// Interactive search traffic repeats queries heavily (SlsReuse, PAPERS.md:
// retrieval latency dominates reuse UX), and the encoders are the most
// expensive step of a cached-index query — a hit skips the encode entirely.
// Entries are the encoders' sparse vectors, ~0.5 KB each.
//
// Thread-safe: GetOrCompute may be called concurrently from the server's
// shared-lock read path, so the cache takes its own internal mutex (held
// only around map/list bookkeeping, never while encoding). Hits and misses
// are counted into laminar_search_query_cache_{hits,misses}_total.
#pragma once

#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "embed/embedding.hpp"

namespace laminar::search {

class QueryEmbeddingCache {
 public:
  /// `capacity` of 0 disables caching (every lookup is a recorded miss).
  explicit QueryEmbeddingCache(size_t capacity);

  /// Returns the cached embedding for (model, text), or runs `encode`,
  /// stores the result and returns it. Concurrent misses for the same key
  /// may both encode (the encoders are deterministic, so either result is
  /// valid); the last store wins.
  embed::SparseVector GetOrCompute(
      std::string_view model, std::string_view text,
      const std::function<embed::SparseVector()>& encode);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    size_t entries = 0;
  };
  Stats stats() const;

  void Clear();
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    embed::SparseVector embedding;
  };

  size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> by_key_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  /// Bumped by Clear(). A miss captures the generation before its off-lock
  /// encode and drops the store if Clear() ran in between — otherwise an
  /// embedding computed against pre-Clear encoder state would be
  /// resurrected into the freshly emptied cache (Clear accompanies registry
  /// reloads that replace the encoders, so such entries are stale, not just
  /// redundant).
  uint64_t generation_ = 0;
};

}  // namespace laminar::search
