// Reference implementations for the Aroma parity checks: a brute-force
// SptIndex::TopK that scores every live document pairwise, and the
// map-based greedy PruneAgainstQuery the flat-array prune replaced (kept
// verbatim). tests/aroma_test.cpp and `bench_aroma --smoke` both require the
// production paths to equal these exactly, with no tolerance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spt/features.hpp"
#include "spt/index.hpp"
#include "spt/rerank.hpp"

namespace laminar::spt::reference {

/// Scores every (id, bag) in `docs` with the metric's pairwise function,
/// keeps scores above zero, sorts by (score desc, id asc) and truncates.
inline std::vector<SptIndex::Hit> BruteForceTopK(
    const std::vector<std::pair<int64_t, const FeatureBag*>>& docs,
    const FeatureBag& query, size_t k, Metric metric) {
  std::vector<SptIndex::Hit> hits;
  for (const auto& [id, bag] : docs) {
    double score = 0.0;
    switch (metric) {
      case Metric::kOverlap: score = OverlapScore(query, *bag); break;
      case Metric::kCosine: score = CosineSimilarity(query, *bag); break;
      case Metric::kContainment: score = ContainmentScore(query, *bag); break;
    }
    if (score > 0.0) hits.push_back(SptIndex::Hit{id, score});
  }
  std::sort(hits.begin(), hits.end(),
            [](const SptIndex::Hit& a, const SptIndex::Hit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc_id < b.doc_id;
            });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

/// The original prune: per-line feature maps of the whole candidate and a
/// hash-map query budget, rescanned every greedy round.
inline PruneResult MapPruneAgainstQuery(const FeatureBag& query,
                                        const FeatureBag& candidate) {
  PruneResult result;
  if (query.total == 0 || candidate.occurrences.empty()) return result;

  // Per-line feature multisets of the candidate.
  std::map<int, std::unordered_map<uint64_t, uint32_t>> by_line;
  for (const auto& [hash, line] : candidate.occurrences) {
    ++by_line[line][hash];
  }

  // Remaining query budget per feature.
  std::unordered_map<uint64_t, uint32_t> remaining = query.counts;
  std::vector<int> selected;
  std::vector<int> pool;
  pool.reserve(by_line.size());
  for (const auto& [line, feats] : by_line) pool.push_back(line);

  double total_overlap = 0.0;
  while (!pool.empty()) {
    int best_line = 0;
    double best_gain = 0.0;
    size_t best_pos = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      const auto& feats = by_line[pool[i]];
      double gain = 0.0;
      for (const auto& [h, c] : feats) {
        auto it = remaining.find(h);
        if (it != remaining.end()) {
          gain += std::min(c, it->second);
        }
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_line = pool[i];
        best_pos = i;
      }
    }
    if (best_gain <= 0.0) break;
    // Commit the line: consume its matched features from the budget.
    for (const auto& [h, c] : by_line[best_line]) {
      auto it = remaining.find(h);
      if (it == remaining.end()) continue;
      uint32_t used = std::min(c, it->second);
      it->second -= used;
      if (it->second == 0) remaining.erase(it);
    }
    total_overlap += best_gain;
    selected.push_back(best_line);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_pos));
  }

  std::sort(selected.begin(), selected.end());
  result.lines = std::move(selected);
  result.overlap = total_overlap;
  result.containment = total_overlap / static_cast<double>(query.total);
  return result;
}

/// Bit-exact equality of two prune results (no tolerance).
inline bool SamePrune(const PruneResult& a, const PruneResult& b) {
  return a.lines == b.lines && a.overlap == b.overlap &&
         a.containment == b.containment;
}

/// Bit-exact equality of two hit lists (ids, order and scores).
inline bool SameHits(const std::vector<SptIndex::Hit>& a,
                     const std::vector<SptIndex::Hit>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const SptIndex::Hit& x, const SptIndex::Hit& y) {
                      return x.doc_id == y.doc_id && x.score == y.score;
                    });
}

}  // namespace laminar::spt::reference
