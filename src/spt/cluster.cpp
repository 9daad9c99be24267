#include "spt/cluster.hpp"

namespace laminar::spt {

std::vector<std::vector<size_t>> ClusterCandidates(
    const std::vector<ClusterInput>& inputs, double jaccard_threshold,
    size_t max_clusters) {
  std::vector<std::vector<size_t>> clusters;
  for (size_t i = 0; i < inputs.size(); ++i) {
    bool placed = false;
    for (auto& cluster : clusters) {
      const ClusterInput& leader = inputs[cluster.front()];
      if (leader.features != nullptr && inputs[i].features != nullptr &&
          JaccardSimilarity(*leader.features, *inputs[i].features) >=
              jaccard_threshold) {
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
