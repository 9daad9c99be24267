// AromaEngine — the end-to-end structural code-search / recommendation
// pipeline: SPT generation -> featurization search -> prune & rerank ->
// clustering -> recommendation creation.
//
// Two operating modes, matching the paper:
//  * full Aroma pipeline (use_full_pipeline = true): all five stages;
//  * Laminar 2.0 simplified path (false): featurization + cosine similarity
//    only, "for efficiency, simplicity, and scalability" (paper §VI-A).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "spt/cluster.hpp"
#include "spt/index.hpp"
#include "spt/rerank.hpp"

namespace laminar::spt {

struct AromaConfig {
  FeatureOptions features;          ///< occurrences forced on internally
  size_t retrieve_top = 100;        ///< stage-2 over-retrieval width
  double cluster_jaccard = 0.45;    ///< stage-4 cluster admission
  size_t max_recommendations = 5;   ///< paper default: top five
  double min_overlap_score = 6.0;   ///< paper default score threshold
  bool use_full_pipeline = true;
  Metric simplified_metric = Metric::kCosine;  ///< used when !use_full_pipeline
};

struct Recommendation {
  int64_t snippet_id = 0;       ///< representative snippet of the cluster
  double score = 0.0;           ///< overlap (full pipeline) or cosine
  double containment = 0.0;     ///< query coverage after pruning (full only)
  size_t cluster_size = 1;
  std::vector<int> pruned_lines;   ///< retained lines of the representative
  std::string recommended_code;    ///< pruned snippet text
};

/// A code-completion suggestion: the continuation lines of an indexed
/// snippet whose prefix structurally matches the partial query.
struct Completion {
  int64_t snippet_id = 0;
  double score = 0.0;           ///< overlap of the query with the snippet
  std::vector<int> matched_lines;  ///< snippet lines covering the query
  std::string continuation;        ///< snippet lines after the match
};

class AromaEngine {
 public:
  explicit AromaEngine(AromaConfig config = {});

  /// Parses, featurizes and indexes a snippet. Fails only if the snippet
  /// yields no tokens at all.
  Status AddSnippet(int64_t id, std::string_view code);
  /// Indexes a snippet whose features were already extracted in flat form
  /// (FeaturizeFlat) — the two-phase registration path does that off-lock
  /// and hands the result here, so committing never reparses or sorts. The
  /// features must come from FeaturizeFlat on *this* engine's options, with
  /// the per-feature line occurrences that prune/rerank need (a
  /// FeatureBagToJson text has none). Fails with InvalidArgument, indexing
  /// nothing, unless the features are a well-formed flat document with a
  /// line occurrence for every count, as FlatFeatures::From builds.
  Status AddSnippetWithFeatures(int64_t id, std::string_view code,
                                FlatFeatures features);
  bool RemoveSnippet(int64_t id);
  size_t size() const { return index_.size(); }

  /// Raw structural similarity search (no pruning/clustering); this is the
  /// 'spt' embedding search the Laminar CLI exposes.
  Result<std::vector<SptIndex::Hit>> Search(std::string_view query_code,
                                            size_t k,
                                            Metric metric = Metric::kCosine) const;

  /// Full code recommendation per the configured mode.
  Result<std::vector<Recommendation>> Recommend(std::string_view query_code) const;

  /// Code completion (paper §I: "code completion capabilities"): finds the
  /// snippets that structurally contain the partial query, locates the
  /// matched region with prune-against-query, and returns what follows it.
  Result<std::vector<Completion>> Complete(std::string_view partial_code,
                                           size_t k = 3) const;

  /// Featurizes a snippet with this engine's options, as a feature bag.
  Result<FeatureBag> Featurize(std::string_view code) const;
  /// The same features in the flat form the index, prune and cluster
  /// stages read: FlatFeatures::From(Featurize(code)), built without the
  /// FeatureBag. The second form reads a tree the caller already parsed
  /// with pycode::ParseLenient(code).
  Result<FlatFeatures> FeaturizeFlat(std::string_view code) const;
  FlatFeatures FeaturizeFlat(const pycode::Node& parse_tree) const;

  const AromaConfig& config() const { return config_; }

 private:
  AromaConfig config_;
  SptIndex index_;
  std::unordered_map<int64_t, std::string> sources_;
};

/// Serializes a feature bag as the JSON object of the paper's
/// 'sptEmbedding' column (Fig. 6): {"<hash>":count,...} in ascending hash
/// order. Both overloads write the same bytes for the same features. The
/// server stores no such column (search rebuilds from the code); the
/// traced benchmark replay still builds it.
std::string FeatureBagToJson(const FeatureBag& bag);
std::string FeatureBagToJson(const FlatFeatures& features);

}  // namespace laminar::spt
