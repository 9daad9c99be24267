// Prune-and-rerank (Aroma stage 3).
//
// The featurization search over-retrieves; Aroma then *prunes* each
// candidate against the query — greedily keeping only the candidate lines
// whose features overlap the query's — and reranks candidates by how much of
// the query the pruned snippet still covers. This is what lets a partial
// query match the relevant half of a larger method.
#pragma once

#include <vector>

#include "spt/features.hpp"

namespace laminar::spt {

struct PruneResult {
  /// Retained candidate source lines (1-based, ascending).
  std::vector<int> lines;
  /// Overlap between the pruned snippet's features and the query.
  double overlap = 0.0;
  /// overlap / |query features| — the rerank key.
  double containment = 0.0;
};

/// Prunes a candidate against a query. `candidate` must have been built
/// from a bag extracted with FeatureOptions::with_occurrences so features
/// carry line tags; the query's occurrences are not read. The query's
/// sorted features and their counts, the starting budgets, are shared by
/// every candidate of one query. Greedy set-cover: repeatedly add the line
/// with the largest marginal feature overlap, the lowest line on ties,
/// until no line adds anything.
PruneResult PruneAgainstQuery(const FlatFeatures& query,
                              const FlatFeatures& candidate);

}  // namespace laminar::spt
