// Embedding index scored straight from postings: the four SearchService
// indexes (PE and workflow, each description text and code).
//
// UnixcoderSim and ReaccSim hash each text or snippet into `dims` (4,096)
// signed dimensions, of which only ~2.5% are non-zero. A dense row-major
// scan reads every dimension of every row. This index keeps only the
// non-zero ones, in the layout spt::SptIndex uses for Aroma features:
//
//   * every live row owns a dense uint32_t *slot*; removed rows return
//     theirs to a free list, so slot arrays stay as long as the live
//     high-water mark rather than growing with churn;
//   * each dimension some row is non-zero in maps to one posting vector of
//     (slot, weight), where the weight is the row's L2-normalized value in
//     that dimension;
//   * rows and queries arrive as embed::SparseVectors and are
//     L2-normalized: each entry is divided, in float, by the vector's float
//     embed::Norm, and a quotient of 0 is dropped. A zero, non-finite or
//     wrong-size vector is not normalized: as a row it gets no postings, as
//     a query it matches no row (see the ranking contract below). The norm
//     sums the entries in index order, so rows and queries read exactly what
//     dividing the dense vector would give.
//
// TopK walks the query's entries in ascending dimension order. Each
// posting adds q[d] * w, in double, into a score array indexed by slot and
// records the slots it touches. The array is thread_local, so concurrent
// calls never share it, and each call resets it through its touched list
// rather than clearing all of it. Every slot's score is summed in ascending
// dimension order whatever its slot number or position in a posting list,
// so leaders, followers, restarted servers and indexes built in another
// order return identical (id, score) lists.
//
// The ranking contract is the dense scan's:
//   * every live row competes for the top k, ordered by score descending
//     and ties by ascending id;
//   * a row that shares no dimension with the query scores exactly 0, so
//     such rows fill the top k by ascending id, below every positive score
//     and above every negative one;
//   * a zero, non-finite or wrong-size query returns the k lowest ids, each
//     at score 0; a zero, non-finite or wrong-size stored vector gets no
//     postings and scores 0 against every query.
//
// Concurrency contract: TopK and stats() may run concurrently with each
// other (the score scratch is thread_local); Upsert, Remove and Clear need
// exclusive access, which the server's write path provides.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "embed/embedding.hpp"

namespace laminar::telemetry {
class Counter;
}  // namespace laminar::telemetry

namespace laminar::search {

/// Point-in-time footprint snapshot for /stats.
struct PostingsIndexStats {
  size_t rows = 0;      ///< live rows
  size_t dims = 0;
  size_t postings = 0;  ///< live (slot, weight) entries over all dimensions
  size_t bytes = 0;     ///< posting, slot and row-dimension storage (capacity)
};

class PostingsIndex {
 public:
  struct Hit {
    int64_t id = 0;
    double score = 0.0;
  };

  /// A non-empty `label` resolves the counter
  /// laminar_search_postings_read_total{index="<label>"}, which each TopK
  /// adds its posting count to once.
  explicit PostingsIndex(size_t dims, const std::string& label = "");

  /// Inserts or replaces the row for `id` (normalized copy, see above).
  void Upsert(int64_t id, const embed::SparseVector& embedding);
  /// Returns false when the id was never inserted.
  bool Remove(int64_t id);
  void Clear();

  size_t size() const { return rows_.size(); }
  size_t dims() const { return dims_; }
  PostingsIndexStats stats() const;

  /// Top `k` rows by cosine similarity against `query` (raw encoder output;
  /// normalized here), sorted by score descending, ties by ascending id.
  /// k > size() returns every row.
  std::vector<Hit> TopK(const embed::SparseVector& query, size_t k) const;

 private:
  struct Posting {
    uint32_t slot = 0;
    float weight = 0.0f;
  };
  struct Row {
    uint32_t slot = 0;
    std::vector<uint32_t> dims;  ///< dimensions holding one of its postings
  };

  /// The L2 norm every entry of `embedding` is divided by, or 0 for a
  /// zero, non-finite or wrong-size vector, which gets no postings.
  float Divisor(const embed::SparseVector& embedding) const;

  size_t dims_;
  /// id -> slot and posted dimensions, in ascending id order: the
  /// zero-score fill walks it.
  std::map<int64_t, Row> rows_;
  /// Per-slot id; entries of free slots are stale and never reached, since
  /// no posting names them.
  std::vector<int64_t> slot_ids_;
  std::vector<uint32_t> free_slots_;
  /// dimension -> (slot, weight) of every live row non-zero there, in no
  /// particular order. Keyed like spt::SptIndex, so a server with few rows
  /// holds only the dimensions they use.
  std::unordered_map<uint32_t, std::vector<Posting>> postings_;
  size_t posting_count_ = 0;
  telemetry::Counter* postings_read_ = nullptr;
};

}  // namespace laminar::search
