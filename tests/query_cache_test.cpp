// QueryEmbeddingCache: LRU bookkeeping, the (model, text) key, the
// zero-capacity switch, and Clear() racing GetOrCompute's unlock-encode-
// relock window (the query_cache_churn_stress ctest entry runs the last two
// under the faults label).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "embed/embedding.hpp"
#include "search/query_cache.hpp"
#include "dense_embedding.hpp"

namespace laminar::search {
namespace {

TEST(QueryEmbeddingCache, HitsAndMissesAreCounted) {
  QueryEmbeddingCache cache(4);
  int encodes = 0;
  auto encode = [&] {
    ++encodes;
    return Sparse(embed::Vector{1.0f, 2.0f});
  };
  embed::SparseVector first = cache.GetOrCompute("m", "query", encode);
  embed::SparseVector second = cache.GetOrCompute("m", "query", encode);
  EXPECT_EQ(encodes, 1);
  EXPECT_EQ(first, second);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryEmbeddingCache, KeyIncludesModel) {
  QueryEmbeddingCache cache(4);
  int encodes = 0;
  auto encode = [&] {
    ++encodes;
    return Sparse(embed::Vector{1.0f});
  };
  cache.GetOrCompute("unixcoder", "q", encode);
  cache.GetOrCompute("reacc", "q", encode);
  EXPECT_EQ(encodes, 2);  // same text, different model -> distinct entries
}

TEST(QueryEmbeddingCache, EvictsLeastRecentlyUsed) {
  QueryEmbeddingCache cache(2);
  int encodes = 0;
  auto encode = [&] {
    ++encodes;
    return Sparse(embed::Vector{1.0f});
  };
  cache.GetOrCompute("m", "a", encode);
  cache.GetOrCompute("m", "b", encode);
  cache.GetOrCompute("m", "a", encode);  // refresh a
  cache.GetOrCompute("m", "c", encode);  // evicts b
  EXPECT_EQ(encodes, 3);
  cache.GetOrCompute("m", "a", encode);  // still cached
  EXPECT_EQ(encodes, 3);
  cache.GetOrCompute("m", "b", encode);  // was evicted -> re-encoded
  EXPECT_EQ(encodes, 4);
}

TEST(QueryEmbeddingCache, ZeroCapacityDisablesCaching) {
  QueryEmbeddingCache cache(0);
  int encodes = 0;
  auto encode = [&] {
    ++encodes;
    return Sparse(embed::Vector{1.0f});
  };
  cache.GetOrCompute("m", "q", encode);
  cache.GetOrCompute("m", "q", encode);
  EXPECT_EQ(encodes, 2);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(QueryEmbeddingCache, ClearDuringEncodeDoesNotResurrectStaleEntry) {
  // Regression (bugfix): a miss encodes outside the lock; if Clear() runs
  // in that window (registry reload replacing the encoders), the in-flight
  // result must be handed to its caller but NOT stored — otherwise the
  // freshly emptied cache is repopulated with a pre-Clear embedding.
  QueryEmbeddingCache cache(4);
  embed::SparseVector got = cache.GetOrCompute("m", "q", [&] {
    cache.Clear();  // deterministic mid-encode Clear
    return Sparse(embed::Vector{1.0f, 2.0f});
  });
  EXPECT_EQ(got, Sparse({1.0f, 2.0f}));  // caller still gets a result
  EXPECT_EQ(cache.stats().entries, 0u);         // but nothing was resurrected
  // The next lookup is a real miss that does get cached.
  int encodes = 0;
  cache.GetOrCompute("m", "q", [&] {
    ++encodes;
    return Sparse(embed::Vector{3.0f});
  });
  EXPECT_EQ(encodes, 1);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(QueryEmbeddingCache, ChurnStressConcurrentLookupsAndClears) {
  // Readers hammer a small key space while two threads Clear() in a loop:
  // under TSan this races GetOrCompute's unlock-encode-relock window
  // against Clear; the invariants are no crash, entries bounded by
  // capacity, and hits + misses equal to the number of lookups.
  constexpr int kReaders = 6;
  constexpr int kLookupsPerReader = 400;
  QueryEmbeddingCache cache(8);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clearers;
  for (int i = 0; i < 2; ++i) {
    clearers.emplace_back([&] {
      while (!stop.load()) {
        cache.Clear();
        std::this_thread::yield();
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kLookupsPerReader; ++i) {
        std::string text = "q" + std::to_string((r + i) % 12);
        embed::Vector v = embed::ToDense(cache.GetOrCompute("m", text, [&] {
          return Sparse(embed::Vector{static_cast<float>((r + i) % 12)});
        }));
        ASSERT_EQ(v.size(), 1u);
        ASSERT_EQ(v[0], static_cast<float>((r + i) % 12));
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  for (auto& t : clearers) t.join();

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kReaders) * kLookupsPerReader);
  EXPECT_LE(stats.entries, cache.capacity());
}

}  // namespace
}  // namespace laminar::search
