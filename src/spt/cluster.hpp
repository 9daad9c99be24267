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
std::vector<std::vector<size_t>> ClusterCandidates(
    const std::vector<ClusterInput>& inputs, double jaccard_threshold,
    size_t max_clusters);

}  // namespace laminar::spt
