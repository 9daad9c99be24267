// Featurization search index (Aroma "Feature Extraction and Search" stage).
//
// Aroma scores a query against every indexed snippet with a sparse
// matrix-vector product over feature-count vectors. We implement the same
// computation with an inverted index scored straight from its postings:
//
//   * every live document owns a dense uint32_t *slot*; removed documents
//     return their slot to a free list, so slot arrays stay as long as the
//     live high-water mark rather than growing with churn;
//   * each feature hash maps to one posting vector of (slot, count), the
//     sparse matrix column the product reads;
//   * each document is stored as the FlatFeatures its caller built, so the
//     prune and cluster stages read it without conversion.
//
// TopK walks the query's features once. Every metric decomposes by feature,
// so each posting adds its term — min(q, d) for overlap and containment,
// q * d for cosine — into a score array indexed by slot, recording the
// slots it touches. Overlap and containment sum in uint64_t (a sum never
// exceeds the query's total), cosine in double. The array is thread_local
// and reset through the touched list, as in search::PostingsIndex. Each
// touched slot then gets its final score (cosine divides by |q| * |d|,
// containment by |q|) and competes for a bounded top-k heap ordered by
// (score desc, id asc). Every term is an integer, so the sums are exact and
// independent of posting order: the returned (id, score) lists equal the
// per-pair OverlapScore / CosineSimilarity / ContainmentScore ranking bit
// for bit.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "spt/features.hpp"

namespace laminar::telemetry {
class Counter;
}  // namespace laminar::telemetry

namespace laminar::spt {

enum class Metric {
  kOverlap,      ///< Σ min(count) — Aroma's score; threshold 6.0 by default
  kCosine,       ///< normalized dot — Laminar 2.0's simplified path
  kContainment,  ///< fraction of the query covered
};

class SptIndex {
 public:
  struct Hit {
    int64_t doc_id = 0;
    double score = 0.0;
  };

  /// Resolves laminar_search_postings_read_total{index="spt"}, which each
  /// TopK adds its posting count to once.
  SptIndex();

  /// Adds (or replaces) a document.
  void Add(int64_t doc_id, FlatFeatures doc);
  bool Remove(int64_t doc_id);
  void Clear();

  const FlatFeatures* Get(int64_t doc_id) const;
  size_t size() const { return docs_.size(); }

  /// Top-k most similar documents with a score above zero, ties broken by
  /// ascending doc id so results are deterministic. Concurrent calls are
  /// safe (the score scratch is thread_local); Add, Remove and Clear need
  /// exclusive access.
  std::vector<Hit> TopK(const FlatFeatures& query, size_t k,
                        Metric metric = Metric::kOverlap) const;

 private:
  struct Doc {
    uint32_t slot = 0;
    FlatFeatures features;
  };
  struct Posting {
    uint32_t slot = 0;
    uint32_t count = 0;
  };

  /// doc id -> slot and flat features (node-based, so Get() pointers stay
  /// valid across other documents' Add and Remove).
  std::unordered_map<int64_t, Doc> docs_;
  /// Per-slot doc id and FlatFeatures::norm; entries of free slots are
  /// stale and never reached, since no posting names them.
  std::vector<int64_t> slot_ids_;
  std::vector<double> slot_norms_;
  std::vector<uint32_t> free_slots_;
  /// feature hash -> (slot, count) of every live document containing it,
  /// in no particular order.
  std::unordered_map<uint64_t, std::vector<Posting>> postings_;
  telemetry::Counter* postings_read_ = nullptr;
};

}  // namespace laminar::spt
