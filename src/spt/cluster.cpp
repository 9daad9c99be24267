#include "spt/cluster.hpp"

#include <algorithm>
#include <cmath>

namespace laminar::spt {
namespace {

/// JaccardSimilarity(a, b) >= threshold, merging only until the verdict is
/// settled. Each part of inter / (ta + tb - inter) is an exact integer and
/// the division is correctly rounded, so the similarity never falls as the
/// overlap grows, and the verdict flips at most once, at the least overlap
/// that passes: `need`. The merge accepts once its overlap reaches `need`,
/// and rejects once what either side has left could not lift it there.
bool SimilarEnough(const FlatFeatures& a, const FlatFeatures& b,
                   double threshold) {
  const uint64_t ta = a.total;
  const uint64_t tb = b.total;
  auto passes = [&](uint64_t inter) {
    return JaccardOfOverlap(inter, ta, tb) >= threshold;
  };
  const uint64_t most = std::min(ta, tb);  // the largest overlap possible
  if (!passes(most)) return false;
  if (passes(0)) return true;
  // Now 0 < threshold <= 1. Start from the real solution of
  // inter / (ta + tb - inter) = threshold, then step to the least passing
  // overlap; rounding leaves the two at most a step or two apart.
  const double guess = std::ceil(threshold * static_cast<double>(ta + tb) /
                                 (1.0 + threshold));
  uint64_t need = std::clamp<uint64_t>(static_cast<uint64_t>(guess), 1, most);
  while (need > 1 && passes(need - 1)) --need;
  while (!passes(need)) ++need;

  uint64_t inter = 0;
  uint64_t rest_a = ta;
  uint64_t rest_b = tb;
  auto x = a.features.begin();
  auto y = b.features.begin();
  while (x != a.features.end() && y != b.features.end()) {
    if (x->hash < y->hash) {
      rest_a -= x->count;
      ++x;
    } else if (y->hash < x->hash) {
      rest_b -= y->count;
      ++y;
    } else {
      inter += std::min(x->count, y->count);
      if (inter >= need) return true;
      rest_a -= x->count;
      rest_b -= y->count;
      ++x;
      ++y;
    }
    if (inter + std::min(rest_a, rest_b) < need) return false;
  }
  return false;
}

}  // namespace

std::vector<std::vector<size_t>> ClusterCandidates(
    const std::vector<ClusterInput>& inputs, double jaccard_threshold,
    size_t max_clusters) {
  std::vector<std::vector<size_t>> clusters;
  for (size_t i = 0; i < inputs.size(); ++i) {
    bool placed = false;
    for (auto& cluster : clusters) {
      const ClusterInput& leader = inputs[cluster.front()];
      if (leader.features != nullptr && inputs[i].features != nullptr &&
          SimilarEnough(*leader.features, *inputs[i].features,
                        jaccard_threshold)) {
        cluster.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed && clusters.size() < max_clusters) clusters.push_back({i});
  }
  return clusters;
}

}  // namespace laminar::spt
