// Featurization search index (Aroma "Feature Extraction and Search" stage).
//
// Aroma scores a query against every indexed snippet with a sparse
// matrix-vector product over feature-count vectors. We implement the same
// computation with an inverted index scored straight from its postings:
//
//   * every live document owns a dense uint32_t *slot*; removed documents
//     return their slot to a free list, so slot arrays stay as long as the
//     live high-water mark N rather than growing with churn;
//   * each feature hash maps to one posting list, the sparse matrix column
//     the product reads, in one of two encodings chosen by its density:
//     (slot, count) pairs, or a *count column* of one uint8_t per slot;
//   * each document is stored as the FlatFeatures its caller built, so the
//     prune and cluster stages read it without conversion.
//
// Density rule. A list becomes a column once its feature is in at least
// 1/8 of the N slots, and goes back to pairs below 1/16, so a list near
// the line does not flip back and forth. Each list is re-decided on its
// own feature's Add and Remove, and every list each time N reaches a power
// of two (lists promoted while the corpus was small do not stay dense). A
// list holding a count above 255 stays pairs. A column covers the slots
// below its length; the slots past it, and free slots, count zero, so
// Remove zeroes one byte instead of searching the list. The column is one
// heap block, allocated on promotion: its live count, length and capacity,
// then the counts, so a list reaches a slot's count through its one
// pointer. ~1.4% of lists ever promote, so every other list costs a
// 32-byte header: its pairs and a null column pointer.
//
// TopK walks the query's features once. Every metric decomposes by feature,
// so each posting adds its term — min(q, d) for overlap and containment,
// q * d for cosine — into a score array indexed by slot. Pairs scatter one
// at a time; a column adds min(q, d) over all its slots with one
// dispatched integer kernel (simd::AddMinU8), and cosine reads its
// non-zero bytes. Overlap and containment sum in uint64_t (a sum never
// exceeds the query's total), cosine in double, with each slot's terms
// added in query-feature order whatever the encoding. The array is
// thread_local. One walk over every slot then gives each non-zero sum its
// final score (cosine divides by |q| * |d|, containment by |q|), resets
// it, and lets it compete for a bounded top-k heap ordered by (score desc,
// id asc); a query reads the boilerplate columns, so nearly every slot
// holds a sum anyway (DESIGN.md §3k). Every term is an integer, so the
// sums are exact and independent of posting order: the returned
// (id, score) lists equal the per-pair OverlapScore / CosineSimilarity /
// ContainmentScore ranking bit for bit.
#pragma once

#include <cstdint>
#include <memory>
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

  /// Where the postings live: the lists, how many are count columns, and
  /// the bytes each encoding has allocated.
  struct PostingStats {
    size_t lists = 0;
    size_t columns = 0;
    size_t sparse_bytes = 0;  ///< (slot, count) pairs, 8 bytes each
    size_t column_bytes = 0;  ///< one byte per slot a column covers
    size_t header_bytes = 0;  ///< each list's header and column object
  };

  /// Adds (or replaces) a document. Its features must be distinct, as
  /// FlatFeatures::From builds them.
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

  PostingStats Stats() const;

 private:
  struct Doc {
    uint32_t slot = 0;
    FlatFeatures features;
  };
  struct Posting {
    uint32_t slot = 0;
    uint32_t count = 0;
  };
  /// A promoted list's postings: this header, then `capacity` counts in
  /// the same block, one per slot below `length` and zero past it. The
  /// block grows as a std::vector<uint8_t> resized to each new length does.
  struct alignas(16) Column {
    uint32_t live = 0;      ///< non-zero counts
    uint32_t length = 0;    ///< slots covered
    uint32_t capacity = 0;  ///< counts allocated, zero past `length`

    uint8_t* counts() { return reinterpret_cast<uint8_t*>(this + 1); }
    const uint8_t* counts() const {
      return reinterpret_cast<const uint8_t*>(this + 1);
    }
  };
  struct FreeColumn {
    void operator()(Column* column) const;
  };
  using ColumnPtr = std::unique_ptr<Column, FreeColumn>;
  /// One feature's postings: `sparse` pairs in no particular order, or,
  /// once promoted, a column.
  struct PostingList {
    std::vector<Posting> sparse;
    ColumnPtr column;

    bool dense() const { return column != nullptr; }
    /// Documents holding the feature.
    size_t live() const { return dense() ? column->live : sparse.size(); }
  };
  static_assert(sizeof(PostingList) <= 32, "a pair list's header");

  /// A zeroed column of `length` slots in a block for `capacity` counts.
  static ColumnPtr NewColumn(uint32_t length, uint32_t capacity);
  /// Makes `list`'s column cover `slot`.
  static void CoverSlot(PostingList& list, uint32_t slot);

  /// Applies the density rule to `hash`'s `list` (see the file comment).
  void Redecide(uint64_t hash, PostingList& list);
  void Promote(PostingList& list);
  static void Demote(PostingList& list);

  /// doc id -> slot and flat features (node-based, so Get() pointers stay
  /// valid across other documents' Add and Remove).
  std::unordered_map<int64_t, Doc> docs_;
  /// Per-slot doc id and FlatFeatures::norm; entries of free slots are
  /// stale and never reached, since no posting names them.
  std::vector<int64_t> slot_ids_;
  std::vector<double> slot_norms_;
  std::vector<uint32_t> free_slots_;
  /// feature hash -> the postings of every live document containing it.
  std::unordered_map<uint64_t, PostingList> postings_;
  /// feature hash -> its pairs holding a count above 255, which keep the
  /// list pairs; only features with such a pair have an entry.
  std::unordered_map<uint64_t, uint32_t> wide_;
  telemetry::Counter* postings_read_ = nullptr;
};

}  // namespace laminar::spt
