#include "spt/rerank.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

namespace laminar::spt {

PruneResult PruneAgainstQuery(const FeatureBag& query,
                              const FeatureBag& candidate) {
  PruneResult result;
  if (query.total == 0 || candidate.occurrences.empty()) return result;

  // Give each query feature a dense slot holding its remaining budget,
  // found through an open-addressed table at most half full (feature hashes
  // are FNV-1a, so their low bits index it directly).
  constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
  size_t capacity = 16;
  while (capacity < 2 * query.counts.size()) capacity <<= 1;
  const size_t mask = capacity - 1;
  std::vector<uint64_t> table_hash(capacity);
  std::vector<uint32_t> table_slot(capacity, kNoSlot);
  auto probe = [&](uint64_t hash) {
    size_t i = hash & mask;
    while (table_slot[i] != kNoSlot && table_hash[i] != hash) {
      i = (i + 1) & mask;
    }
    return i;
  };
  std::vector<uint32_t> budget;
  budget.reserve(query.counts.size());
  for (const auto& [hash, count] : query.counts) {
    const size_t i = probe(hash);
    table_hash[i] = hash;
    table_slot[i] = static_cast<uint32_t>(budget.size());
    budget.push_back(count);
  }

  // Keep only the occurrences of query features, as (line, slot) keys whose
  // unsigned order is (line, slot) order: flipping the sign bit maps int
  // line order onto uint32_t order. A line with no query feature never has
  // a positive gain, so dropping it is exact.
  constexpr uint32_t kSignBit = 0x80000000u;
  std::vector<uint64_t> matched;
  matched.reserve(candidate.occurrences.size());
  for (const auto& [hash, line] : candidate.occurrences) {
    const uint32_t slot = table_slot[probe(hash)];
    if (slot == kNoSlot) continue;
    matched.push_back(
        uint64_t{static_cast<uint32_t>(line) ^ kSignBit} << 32 | slot);
  }
  std::sort(matched.begin(), matched.end());

  // Group into per-line (slot, count) runs, ascending by line: the runs of
  // lines[i] are entries[run_begin[i] .. run_begin[i + 1]).
  struct Entry {
    uint32_t slot;
    uint32_t count;
  };
  std::vector<int> lines;
  std::vector<size_t> run_begin;
  std::vector<Entry> entries;
  for (size_t i = 0; i < matched.size(); ++i) {
    if (i > 0 && matched[i] == matched[i - 1]) {
      ++entries.back().count;
      continue;
    }
    const uint32_t line_key = static_cast<uint32_t>(matched[i] >> 32);
    if (i == 0 || line_key != static_cast<uint32_t>(matched[i - 1] >> 32)) {
      lines.push_back(static_cast<int>(line_key ^ kSignBit));
      run_begin.push_back(entries.size());
    }
    entries.push_back(Entry{static_cast<uint32_t>(matched[i]), 1});
  }
  run_begin.push_back(entries.size());

  // Greedy set cover: take the line with the largest marginal overlap; the
  // strict '>' over the ascending pool lets the lowest line win ties.
  std::vector<size_t> pool(lines.size());
  std::iota(pool.begin(), pool.end(), size_t{0});
  std::vector<int> selected;
  double total_overlap = 0.0;
  while (!pool.empty()) {
    uint64_t best_gain = 0;
    size_t best_pos = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      uint64_t gain = 0;
      for (size_t e = run_begin[pool[i]]; e < run_begin[pool[i] + 1]; ++e) {
        gain += std::min(entries[e].count, budget[entries[e].slot]);
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_pos = i;
      }
    }
    if (best_gain == 0) break;
    // Commit the line: consume its matched features from the budget.
    const size_t best = pool[best_pos];
    for (size_t e = run_begin[best]; e < run_begin[best + 1]; ++e) {
      uint32_t& left = budget[entries[e].slot];
      left -= std::min(entries[e].count, left);
    }
    total_overlap += static_cast<double>(best_gain);
    selected.push_back(lines[best]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_pos));
  }

  std::sort(selected.begin(), selected.end());
  result.lines = std::move(selected);
  result.overlap = total_overlap;
  result.containment = total_overlap / static_cast<double>(query.total);
  return result;
}

}  // namespace laminar::spt
