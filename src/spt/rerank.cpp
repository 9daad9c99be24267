#include "spt/rerank.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

namespace laminar::spt {

PruneResult PruneAgainstQuery(const FlatFeatures& query,
                              const FlatFeatures& candidate) {
  PruneResult result;
  if (query.total == 0 || candidate.occurrences.empty()) return result;

  // Map each candidate feature to its query slot (an index into
  // query.features) with one merge of the two hash-sorted arrays.
  constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> slot_of(candidate.features.size(), kNoSlot);
  for (size_t c = 0, q = 0;
       c < candidate.features.size() && q < query.features.size();) {
    if (candidate.features[c].hash < query.features[q].hash) {
      ++c;
    } else if (query.features[q].hash < candidate.features[c].hash) {
      ++q;
    } else {
      slot_of[c++] = static_cast<uint32_t>(q++);
    }
  }

  // Group the occurrences of query features into per-line (slot, count)
  // runs, ascending by line: the runs of lines[i] are
  // entries[run_begin[i] .. run_begin[i + 1]). Occurrences are sorted by
  // (line, feature), so repeats of one feature on a line are adjacent. A
  // line with no query feature never has a positive gain, so dropping it
  // is exact.
  struct Entry {
    uint32_t slot;
    uint32_t count;
  };
  std::vector<int> lines;
  std::vector<size_t> run_begin;
  std::vector<Entry> entries;
  const FlatFeatures::Occurrence* last = nullptr;
  for (const FlatFeatures::Occurrence& occ : candidate.occurrences) {
    const uint32_t slot = slot_of[occ.feature];
    if (slot == kNoSlot) continue;
    if (last != nullptr && occ.line == last->line &&
        occ.feature == last->feature) {
      ++entries.back().count;
      continue;
    }
    if (last == nullptr || occ.line != last->line) {
      lines.push_back(occ.line);
      run_begin.push_back(entries.size());
    }
    entries.push_back(Entry{slot, 1});
    last = &occ;
  }
  run_begin.push_back(entries.size());

  // Greedy set cover: take the line with the largest marginal overlap; the
  // strict '>' over the ascending pool lets the lowest line win ties.
  std::vector<uint32_t> budget(query.features.size());
  for (size_t q = 0; q < budget.size(); ++q) {
    budget[q] = query.features[q].count;
  }
  std::vector<size_t> pool(lines.size());
  std::iota(pool.begin(), pool.end(), size_t{0});
  std::vector<int> selected;
  uint64_t total_overlap = 0;
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
    total_overlap += best_gain;
    selected.push_back(lines[best]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_pos));
  }

  std::sort(selected.begin(), selected.end());
  result.lines = std::move(selected);
  result.overlap = static_cast<double>(total_overlap);
  result.containment = result.overlap / static_cast<double>(query.total);
  return result;
}

}  // namespace laminar::spt
