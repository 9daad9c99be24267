// Aroma feature extraction over SPTs.
//
// For every *non-keyword* token (identifier or literal) the extractor emits:
//   1. a token feature          — the (possibly generalized) token itself;
//   2. parent features          — (token, child-index, ancestor-label) for up
//                                 to `parent_levels` enclosing SPT nodes;
//   3. sibling features         — (token, next non-keyword token) in leaf
//                                 order;
//   4. variable-usage features  — for consecutive uses of the same local
//                                 variable, (label of first use's parent,
//                                 label of second use's parent).
// Local variable names (assignment targets, parameters, loop/with/except
// bindings, self/cls) are generalized to "#VAR" and string literals to
// "#STR", which is what makes Aroma robust to renames — the property the
// paper's Fig. 12 vs Fig. 13 comparison turns on.
//
// A feature is its spelling's FNV-1a hash, e.g. of "P1:#VAR|0|#=#". The
// extractor streams the hash over the spelling's pieces and builds the
// spelling only for FeatureOptions::record_strings.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "spt/spt.hpp"

namespace laminar::spt {

/// Multiset of hashed features, with optional per-occurrence line tags
/// (needed by prune-and-rerank) and debug strings (tests).
struct FeatureBag {
  std::unordered_map<uint64_t, uint32_t> counts;
  /// (feature hash, source line) per occurrence; filled only when
  /// FeatureOptions::with_occurrences is set.
  std::vector<std::pair<uint64_t, int>> occurrences;
  /// Human-readable feature spellings; filled only when
  /// FeatureOptions::record_strings is set.
  std::vector<std::string> strings;
  size_t total = 0;

  void Add(uint64_t hash) {
    ++counts[hash];
    ++total;
  }
  bool Contains(uint64_t hash) const { return counts.contains(hash); }
  double Norm() const;
};

/// A feature bag in the flat form the index, prune and cluster stages read.
/// It is built once per document (at registration, off the index lock) and
/// once per query, so no stage rebuilds a table or sorts per candidate:
///   * `features` holds each distinct feature once, in ascending hash order,
///     so two documents intersect by one merge;
///   * `occurrences` holds the line tags as (line, index into `features`),
///     in ascending (line, feature) order, so a prune walks per-line runs;
///   * `total` and `norm` are FeatureBag::total and FeatureBag::Norm().
struct FlatFeatures {
  struct Feature {
    uint64_t hash = 0;
    uint32_t count = 0;
  };
  struct Occurrence {
    int line = 0;
    uint32_t feature = 0;  ///< index into `features`
  };
  std::vector<Feature> features;
  std::vector<Occurrence> occurrences;
  size_t total = 0;
  double norm = 0.0;

  /// Flattens `bag`. Occurrences of a hash missing from `bag.counts` cannot
  /// name a feature, so they are dropped; extracted bags have none.
  static FlatFeatures From(const FeatureBag& bag);
};

struct FeatureOptions {
  /// How many enclosing nodes contribute parent features (Aroma uses 3).
  int parent_levels = 3;
  /// Replace local-variable identifiers with "#VAR". Disabling this is the
  /// ablation knob that makes structural search identifier-sensitive.
  bool generalize_variables = true;
  /// Tag each feature occurrence with its source line.
  bool with_occurrences = false;
  /// Keep human-readable feature strings for debugging.
  bool record_strings = false;
};

/// Extracts the Aroma feature multiset of an SPT.
FeatureBag ExtractFeatures(const SptNode& root, const FeatureOptions& opts = {});
/// The same features in flat form, FlatFeatures::From(ExtractFeatures(root,
/// opts)) bit for bit, built from the extractor's (hash, line) stream with
/// no FeatureBag in between. record_strings has no effect here.
FlatFeatures ExtractFlatFeatures(const SptNode& root,
                                 const FeatureOptions& opts = {});

/// Identifiers bound locally in the snippet (assignment/loop/param/etc.).
std::unordered_set<std::string> CollectLocalVariables(const SptNode& root);

/// Σ_h min(a[h], b[h]) — Aroma's overlap score (the paper's default
/// recommendation threshold of 6.0 applies to this score).
double OverlapScore(const FeatureBag& a, const FeatureBag& b);

/// Standard cosine over feature-count vectors — Laminar 2.0's simplified
/// scoring path.
double CosineSimilarity(const FeatureBag& a, const FeatureBag& b);

/// |query ∩ candidate| / |query| in multiset terms; used for reranking
/// (how much of the query the candidate covers).
double ContainmentScore(const FeatureBag& query, const FeatureBag& candidate);

/// Jaccard over feature sets (clustering).
double JaccardSimilarity(const FeatureBag& a, const FeatureBag& b);

/// OverlapScore and JaccardSimilarity over flat documents: one merge of the
/// two sorted feature arrays, summed in integers. Every term is an integer,
/// so both equal their FeatureBag counterparts exactly.
uint64_t OverlapCount(const FlatFeatures& a, const FlatFeatures& b);
double JaccardSimilarity(const FlatFeatures& a, const FlatFeatures& b);

}  // namespace laminar::spt
