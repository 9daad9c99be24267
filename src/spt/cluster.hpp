// Iterative clustering (Aroma stage 4): groups reranked candidates whose
// pruned snippets are structurally similar, so that the final list shows one
// recommendation per coding idiom instead of five near-duplicates.
#pragma once

#include <cstdint>
#include <vector>

#include "spt/features.hpp"

namespace laminar::spt {

struct ClusterInput {
  int64_t doc_id = 0;
  const FlatFeatures* features = nullptr;  ///< non-owning; outlives the call
};

/// Greedy leader clustering over Jaccard similarity: candidates are visited
/// in the given (rerank) order; each joins the first cluster whose leader is
/// at least `jaccard_threshold` similar, else starts a new cluster while
/// fewer than `max_clusters` exist, else is left out. A candidate only ever
/// joins the first leader it matches, so capping leaves the first
/// `max_clusters` clusters, and their members, exactly as uncapped.
/// Returns clusters as index lists into `inputs`, preserving order.
///
/// Each comparison gives JaccardSimilarity(leader, candidate) >=
/// jaccard_threshold for any threshold (NaN included), but merges the two
/// feature arrays only until that verdict is settled: it finds the least
/// overlap that passes from the two totals, and stops once the overlap
/// reaches it or what is left of either document could no longer reach it.
/// That bound needs each input's `total` to equal the sum of its feature
/// counts, as FlatFeatures::From builds it and AromaEngine checks it.
std::vector<std::vector<size_t>> ClusterCandidates(
    const std::vector<ClusterInput>& inputs, double jaccard_threshold,
    size_t max_clusters);

}  // namespace laminar::spt
