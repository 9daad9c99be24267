#include "search/postings_index.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hpp"

namespace laminar::search {
namespace {

using Hit = PostingsIndex::Hit;

/// Score descending, ties broken by ascending id.
inline bool Better(const Hit& a, const Hit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// Per-thread query scratch, shared by every index the thread queries:
/// the slot-indexed score array with its `seen` flags, and the list of
/// slots the current call touched.
struct Scratch {
  std::vector<double> score;
  std::vector<uint8_t> seen;
  std::vector<uint32_t> touched;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Resets the touched entries when TopK returns, so the next call on this
/// thread starts from an all-zero array without clearing all of it.
class TouchedReset {
 public:
  explicit TouchedReset(Scratch& s) : s_(s) {}
  ~TouchedReset() {
    for (uint32_t slot : s_.touched) {
      s_.score[slot] = 0.0;
      s_.seen[slot] = 0;
    }
    s_.touched.clear();
  }
  TouchedReset(const TouchedReset&) = delete;
  TouchedReset& operator=(const TouchedReset&) = delete;

 private:
  Scratch& s_;
};

}  // namespace

PostingsIndex::PostingsIndex(size_t dims, const std::string& label)
    : dims_(dims) {
  if (!label.empty()) {
    postings_read_ = &telemetry::MetricsRegistry::Global().GetCounter(
        "laminar_search_postings_read_total", "index=\"" + label + "\"");
  }
}

float PostingsIndex::Divisor(const embed::SparseVector& embedding) const {
  if (embedding.dims != dims_) return 0.0f;
  const float norm = embed::Norm(embedding);
  return norm > 0.0f && std::isfinite(norm) ? norm : 0.0f;
}

void PostingsIndex::Upsert(int64_t id,
                           const embed::SparseVector& embedding) {
  Remove(id);
  uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slot_ids_.size());
    slot_ids_.push_back(id);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_ids_[slot] = id;
  }
  Row row{slot, {}};
  const float norm = Divisor(embedding);
  if (norm > 0.0f) {
    row.dims.reserve(embedding.entries.size());
    for (const embed::SparseVector::Entry& e : embedding.entries) {
      const float w = e.value / norm;
      if (w == 0.0f) continue;  // adds nothing to any dot product
      postings_[e.index].push_back(Posting{slot, w});
      row.dims.push_back(e.index);
    }
  }
  posting_count_ += row.dims.size();
  rows_.emplace(id, std::move(row));
}

bool PostingsIndex::Remove(int64_t id) {
  auto it = rows_.find(id);
  if (it == rows_.end()) return false;
  const uint32_t slot = it->second.slot;
  for (uint32_t d : it->second.dims) {
    auto pit = postings_.find(d);
    if (pit == postings_.end()) continue;
    std::vector<Posting>& list = pit->second;
    auto pos = std::find_if(list.begin(), list.end(), [slot](const Posting& p) {
      return p.slot == slot;
    });
    if (pos == list.end()) continue;
    *pos = list.back();  // postings are unordered: swap-remove
    list.pop_back();
    if (list.empty()) postings_.erase(pit);
  }
  posting_count_ -= it->second.dims.size();
  free_slots_.push_back(slot);
  rows_.erase(it);
  return true;
}

void PostingsIndex::Clear() {
  rows_.clear();
  slot_ids_.clear();
  free_slots_.clear();
  postings_.clear();
  posting_count_ = 0;
}

PostingsIndexStats PostingsIndex::stats() const {
  PostingsIndexStats out;
  out.rows = rows_.size();
  out.dims = dims_;
  out.postings = posting_count_;
  size_t bytes = slot_ids_.capacity() * sizeof(int64_t) +
                 free_slots_.capacity() * sizeof(uint32_t) +
                 postings_.bucket_count() * sizeof(void*);
  for (const auto& [d, list] : postings_) {
    bytes += sizeof(std::pair<const uint32_t, std::vector<Posting>>) +
             list.capacity() * sizeof(Posting);
  }
  for (const auto& [id, row] : rows_) {
    bytes += sizeof(std::pair<const int64_t, Row>) +
             row.dims.capacity() * sizeof(uint32_t);
  }
  out.bytes = bytes;
  return out;
}

std::vector<Hit> PostingsIndex::TopK(const embed::SparseVector& query,
                                     size_t k) const {
  if (k == 0 || rows_.empty()) return {};
  Scratch& s = ThreadScratch();
  if (s.score.size() < slot_ids_.size()) {
    s.score.resize(slot_ids_.size(), 0.0);
    s.seen.resize(slot_ids_.size(), 0);
  }
  TouchedReset reset(s);

  // Ascending dimensions: each slot's terms are added in dimension order,
  // whatever the posting order within a list.
  const float norm = Divisor(query);
  uint64_t read = 0;
  for (const embed::SparseVector::Entry& e : query.entries) {
    if (norm == 0.0f) break;  // matches no row
    const double qd = e.value / norm;
    if (qd == 0.0) continue;
    auto pit = postings_.find(e.index);
    if (pit == postings_.end()) continue;
    read += pit->second.size();
    for (const Posting& p : pit->second) {
      if (s.seen[p.slot] == 0) {
        s.seen[p.slot] = 1;
        s.touched.push_back(p.slot);
      }
      s.score[p.slot] += qd * static_cast<double>(p.weight);
    }
  }
  if (postings_read_ != nullptr) postings_read_->Inc(read);

  // Positive scores compete for a bounded heap whose front is the worst of
  // the current top k.
  std::vector<Hit> top;
  top.reserve(std::min(k, rows_.size()));
  for (uint32_t slot : s.touched) {
    if (!(s.score[slot] > 0.0)) continue;
    const Hit hit{slot_ids_[slot], s.score[slot]};
    if (top.size() < k) {
      top.push_back(hit);
      std::push_heap(top.begin(), top.end(), Better);
    } else if (Better(hit, top.front())) {
      std::pop_heap(top.begin(), top.end(), Better);
      top.back() = hit;
      std::push_heap(top.begin(), top.end(), Better);
    }
  }
  std::sort_heap(top.begin(), top.end(), Better);

  // Then every row scoring exactly 0, by ascending id: rows sharing no
  // dimension with the query and exact cancellations.
  for (auto it = rows_.begin(); it != rows_.end() && top.size() < k; ++it) {
    const uint32_t slot = it->second.slot;
    if (s.seen[slot] == 0 || s.score[slot] == 0.0) {
      top.push_back(Hit{it->first, 0.0});
    }
  }
  if (top.size() == k) return top;

  // Negative scores last.
  std::vector<Hit> negative;
  for (uint32_t slot : s.touched) {
    if (s.score[slot] < 0.0) {
      negative.push_back(Hit{slot_ids_[slot], s.score[slot]});
    }
  }
  std::sort(negative.begin(), negative.end(), Better);
  negative.resize(std::min(negative.size(), k - top.size()));
  top.insert(top.end(), negative.begin(), negative.end());
  return top;
}

}  // namespace laminar::search
