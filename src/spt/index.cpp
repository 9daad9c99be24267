#include "spt/index.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>

#include "simd/simd.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::spt {
namespace {

/// The density rule: a list becomes a column at live * kPromote >= N and
/// goes back to pairs at live * kDemote < N, N being the slot high-water
/// mark; a column holds counts up to kColumnMax.
constexpr uint64_t kPromote = 8;
constexpr uint64_t kDemote = 16;
constexpr uint32_t kColumnMax = std::numeric_limits<uint8_t>::max();

/// Per-thread TopK scratch, shared by every index the thread queries: the
/// slot-indexed sums, integer for overlap and containment, double for
/// cosine. Every sum is zero between calls.
struct Scratch {
  std::vector<uint64_t> counts;
  std::vector<double> dots;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace

SptIndex::SptIndex()
    : postings_read_(&telemetry::MetricsRegistry::Global().GetCounter(
          "laminar_search_postings_read_total", "index=\"spt\"")) {}

void SptIndex::Redecide(uint64_t hash, PostingList& list) {
  const uint64_t slots = slot_ids_.size();
  const uint64_t live = list.live();
  if (list.dense()) {
    if (live * kDemote < slots) Demote(list);
  } else if (live * kPromote >= slots && !wide_.contains(hash)) {
    Promote(list);
  }
}

void SptIndex::FreeColumn::operator()(Column* column) const {
  column->~Column();
  ::operator delete(column);
}

SptIndex::ColumnPtr SptIndex::NewColumn(uint32_t length, uint32_t capacity) {
  void* block = ::operator new(sizeof(Column) + capacity);
  ColumnPtr column(new (block) Column{0, length, capacity});
  std::memset(column->counts(), 0, capacity);
  return column;
}

void SptIndex::CoverSlot(PostingList& list, uint32_t slot) {
  Column& column = *list.column;
  if (slot < column.length) return;
  const uint32_t length = slot + 1;
  if (length <= column.capacity) {
    column.length = length;  // the counts past the old length are zero
    return;
  }
  // std::vector's resize growth: at least double.
  ColumnPtr grown = NewColumn(length, std::max(2 * column.length, length));
  std::memcpy(grown->counts(), column.counts(), column.length);
  grown->live = column.live;
  list.column = std::move(grown);
}

void SptIndex::Promote(PostingList& list) {
  const auto slots = static_cast<uint32_t>(slot_ids_.size());
  ColumnPtr column = NewColumn(slots, slots);
  for (const Posting& p : list.sparse) {
    column->counts()[p.slot] = static_cast<uint8_t>(p.count);
  }
  column->live = static_cast<uint32_t>(list.sparse.size());
  list.column = std::move(column);
  std::vector<Posting>().swap(list.sparse);
}

void SptIndex::Demote(PostingList& list) {
  const Column& column = *list.column;
  const uint8_t* counts = column.counts();
  list.sparse.reserve(column.live);
  for (uint32_t slot = 0; slot < column.length; ++slot) {
    if (counts[slot] != 0) list.sparse.push_back(Posting{slot, counts[slot]});
  }
  list.column.reset();
}

void SptIndex::Add(int64_t doc_id, FlatFeatures doc) {
  Remove(doc_id);
  uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slot_ids_.size());
    slot_ids_.push_back(doc_id);
    slot_norms_.push_back(doc.norm);
    // Columns promoted while N was smaller may now sit below 1/16 of it.
    if (IsPowerOfTwo(slot_ids_.size())) {
      for (auto& [hash, list] : postings_) Redecide(hash, list);
    }
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_ids_[slot] = doc_id;
    slot_norms_[slot] = doc.norm;
  }
  // A zero count adds nothing to any metric, so it needs no posting; every
  // posting then contributes a positive term in TopK.
  for (const FlatFeatures::Feature& f : doc.features) {
    if (f.count == 0) continue;
    PostingList& list = postings_[f.hash];
    if (f.count > kColumnMax) {
      ++wide_[f.hash];
      // A column cannot hold this count: back to pairs.
      if (list.dense()) Demote(list);
    }
    if (list.dense()) {
      CoverSlot(list, slot);
      list.column->counts()[slot] = static_cast<uint8_t>(f.count);
      ++list.column->live;
    } else {
      list.sparse.push_back(Posting{slot, f.count});
    }
    Redecide(f.hash, list);
  }
  docs_.emplace(doc_id, Doc{slot, std::move(doc)});
}

bool SptIndex::Remove(int64_t doc_id) {
  auto it = docs_.find(doc_id);
  if (it == docs_.end()) return false;
  const uint32_t slot = it->second.slot;
  for (const FlatFeatures::Feature& f : it->second.features.features) {
    if (f.count == 0) continue;  // Add made no posting for it
    auto pit = postings_.find(f.hash);
    if (pit == postings_.end()) continue;
    PostingList& list = pit->second;
    if (list.dense()) {
      // Covered: the column was made N long with the document already in
      // it, or grew to its slot when the document joined.
      list.column->counts()[slot] = 0;
      --list.column->live;
    } else {
      auto pos = std::find_if(
          list.sparse.begin(), list.sparse.end(),
          [slot](const Posting& p) { return p.slot == slot; });
      if (pos == list.sparse.end()) continue;
      if (pos->count > kColumnMax) {
        auto wide = wide_.find(f.hash);
        if (--wide->second == 0) wide_.erase(wide);
      }
      *pos = list.sparse.back();  // pairs are unordered: swap-remove
      list.sparse.pop_back();
    }
    if (list.live() == 0) {
      postings_.erase(pit);
    } else {
      Redecide(f.hash, list);
    }
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
  wide_.clear();
}

const FlatFeatures* SptIndex::Get(int64_t doc_id) const {
  auto it = docs_.find(doc_id);
  return it == docs_.end() ? nullptr : &it->second.features;
}

SptIndex::PostingStats SptIndex::Stats() const {
  PostingStats stats;
  stats.lists = postings_.size();
  stats.header_bytes = postings_.size() * sizeof(PostingList);
  for (const auto& [hash, list] : postings_) {
    stats.sparse_bytes += list.sparse.capacity() * sizeof(Posting);
    if (list.dense()) {
      ++stats.columns;
      stats.column_bytes += list.column->capacity;
      stats.header_bytes += sizeof(Column);
    }
  }
  return stats;
}

std::vector<SptIndex::Hit> SptIndex::TopK(const FlatFeatures& query, size_t k,
                                          Metric metric) const {
  if (k == 0) return {};
  if (metric == Metric::kContainment && query.total == 0) return {};
  const size_t slots = slot_ids_.size();
  Scratch& s = ThreadScratch();
  if (s.counts.size() < slots) {
    s.counts.resize(slots, 0);
    s.dots.resize(slots, 0.0);
  }
  // Allocated up front, so nothing between the first write to the sums and
  // the walk that resets them can throw and leave them dirty.
  std::vector<Hit> top;
  top.reserve(std::min(k, slots));

  // Sum each query feature's postings into a per-slot sum: pairs one at a
  // time, a column over every slot it covers.
  uint64_t read = 0;
  for (const FlatFeatures::Feature& f : query.features) {
    if (f.count == 0) continue;
    auto pit = postings_.find(f.hash);
    if (pit == postings_.end()) continue;
    const PostingList& list = pit->second;
    read += list.live();
    if (metric == Metric::kCosine) {
      const double q = f.count;
      if (list.dense()) {
        const uint8_t* counts = list.column->counts();
        for (uint32_t slot = 0; slot < list.column->length; ++slot) {
          if (counts[slot] != 0) s.dots[slot] += q * counts[slot];
        }
        continue;
      }
      for (const Posting& p : list.sparse) {
        s.dots[p.slot] += q * static_cast<double>(p.count);
      }
    } else if (list.dense()) {
      // Column counts are at most 255, so min(q, d) = min(min(q, 255), d).
      simd::AddMinU8(s.counts.data(), list.column->counts(),
                     list.column->length,
                     static_cast<uint8_t>(std::min(f.count, kColumnMax)));
    } else {
      for (const Posting& p : list.sparse) {
        s.counts[p.slot] += std::min(f.count, p.count);
      }
    }
  }
  postings_read_->Inc(read);

  auto better = [](const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  };
  // Every slot with a non-zero sum gets its score, has the sum reset, and
  // competes for a bounded heap whose front is the worst of the top k.
  for (uint32_t slot = 0; slot < slots; ++slot) {
    Hit hit;
    if (metric == Metric::kCosine) {
      double& dot = s.dots[slot];
      if (dot == 0.0) continue;
      hit.score = dot / (query.norm * slot_norms_[slot]);
      dot = 0.0;
    } else {
      uint64_t& count = s.counts[slot];
      if (count == 0) continue;
      hit.score = static_cast<double>(count);
      if (metric == Metric::kContainment) {
        hit.score /= static_cast<double>(query.total);
      }
      count = 0;
    }
    hit.doc_id = slot_ids_[slot];
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
