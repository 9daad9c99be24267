#include "spt/index.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace laminar::spt {
namespace {

/// Per-thread TopK scratch, shared by every index the thread queries: the
/// slot-indexed sums (integer for overlap and containment, double for
/// cosine) and the slots the current call touched.
struct Scratch {
  std::vector<uint64_t> counts;
  std::vector<double> dots;
  std::vector<uint32_t> touched;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Zeroes the touched entries when TopK returns, so the next call on this
/// thread starts from all-zero arrays without clearing all of them.
class TouchedReset {
 public:
  explicit TouchedReset(Scratch& s) : s_(s) {}
  ~TouchedReset() {
    for (uint32_t slot : s_.touched) {
      s_.counts[slot] = 0;
      s_.dots[slot] = 0.0;
    }
    s_.touched.clear();
  }
  TouchedReset(const TouchedReset&) = delete;
  TouchedReset& operator=(const TouchedReset&) = delete;

 private:
  Scratch& s_;
};

}  // namespace

SptIndex::SptIndex()
    : postings_read_(&telemetry::MetricsRegistry::Global().GetCounter(
          "laminar_search_postings_read_total", "index=\"spt\"")) {}

void SptIndex::Add(int64_t doc_id, FlatFeatures doc) {
  Remove(doc_id);
  uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slot_ids_.size());
    slot_ids_.push_back(doc_id);
    slot_norms_.push_back(doc.norm);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_ids_[slot] = doc_id;
    slot_norms_[slot] = doc.norm;
  }
  // A zero count adds nothing to any metric, so it needs no posting; every
  // posting then contributes a positive term in TopK.
  for (const FlatFeatures::Feature& f : doc.features) {
    if (f.count > 0) postings_[f.hash].push_back(Posting{slot, f.count});
  }
  docs_.emplace(doc_id, Doc{slot, std::move(doc)});
}

bool SptIndex::Remove(int64_t doc_id) {
  auto it = docs_.find(doc_id);
  if (it == docs_.end()) return false;
  const uint32_t slot = it->second.slot;
  for (const FlatFeatures::Feature& f : it->second.features.features) {
    auto pit = postings_.find(f.hash);
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
  free_slots_.push_back(slot);
  docs_.erase(it);
  return true;
}

void SptIndex::Clear() {
  docs_.clear();
  slot_ids_.clear();
  slot_norms_.clear();
  free_slots_.clear();
  postings_.clear();
}

const FlatFeatures* SptIndex::Get(int64_t doc_id) const {
  auto it = docs_.find(doc_id);
  return it == docs_.end() ? nullptr : &it->second.features;
}

std::vector<SptIndex::Hit> SptIndex::TopK(const FlatFeatures& query, size_t k,
                                          Metric metric) const {
  if (k == 0) return {};
  if (metric == Metric::kContainment && query.total == 0) return {};
  Scratch& s = ThreadScratch();
  if (s.counts.size() < slot_ids_.size()) {
    s.counts.resize(slot_ids_.size(), 0);
    s.dots.resize(slot_ids_.size(), 0.0);
  }
  TouchedReset reset(s);

  // Sum each query feature's postings into a per-slot sum; a slot joins
  // `touched` on its first (always positive) term.
  uint64_t read = 0;
  auto accumulate = [&](auto& sums, auto term) {
    for (const FlatFeatures::Feature& f : query.features) {
      if (f.count == 0) continue;
      auto pit = postings_.find(f.hash);
      if (pit == postings_.end()) continue;
      read += pit->second.size();
      for (const Posting& p : pit->second) {
        auto& sum = sums[p.slot];
        if (sum == 0) s.touched.push_back(p.slot);
        sum += term(f.count, p.count);
      }
    }
  };
  if (metric == Metric::kCosine) {
    accumulate(s.dots, [](uint32_t q, uint32_t d) {
      return static_cast<double>(q) * static_cast<double>(d);
    });
  } else {
    accumulate(s.counts,
               [](uint32_t q, uint32_t d) { return uint64_t{std::min(q, d)}; });
  }
  postings_read_->Inc(read);

  auto better = [](const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  };
  // Bounded heap whose front is the worst of the current top k.
  std::vector<Hit> top;
  top.reserve(std::min(k, s.touched.size()));
  for (uint32_t slot : s.touched) {
    Hit hit{slot_ids_[slot], 0.0};
    if (metric == Metric::kCosine) {
      hit.score = s.dots[slot] / (query.norm * slot_norms_[slot]);
    } else {
      hit.score = static_cast<double>(s.counts[slot]);
      if (metric == Metric::kContainment) {
        hit.score /= static_cast<double>(query.total);
      }
    }
    if (top.size() < k) {
      top.push_back(hit);
      std::push_heap(top.begin(), top.end(), better);
    } else if (better(hit, top.front())) {
      std::pop_heap(top.begin(), top.end(), better);
      top.back() = hit;
      std::push_heap(top.begin(), top.end(), better);
    }
  }
  std::sort_heap(top.begin(), top.end(), better);
  return top;
}

}  // namespace laminar::spt
