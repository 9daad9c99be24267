#include "spt/index.hpp"

#include <algorithm>

namespace laminar::spt {

void SptIndex::Add(int64_t doc_id, FeatureBag bag) {
  Remove(doc_id);
  uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slot_ids_.size());
    slot_ids_.push_back(doc_id);
    slot_norms_.push_back(bag.Norm());
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_ids_[slot] = doc_id;
    slot_norms_[slot] = bag.Norm();
  }
  // A zero count adds nothing to any metric, so it needs no posting; every
  // posting then contributes a positive term in TopK.
  for (const auto& [h, c] : bag.counts) {
    if (c > 0) postings_[h].push_back(Posting{slot, c});
  }
  docs_.emplace(doc_id, Doc{slot, std::move(bag)});
}

bool SptIndex::Remove(int64_t doc_id) {
  auto it = docs_.find(doc_id);
  if (it == docs_.end()) return false;
  const uint32_t slot = it->second.slot;
  for (const auto& [h, c] : it->second.bag.counts) {
    auto pit = postings_.find(h);
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

const FeatureBag* SptIndex::Get(int64_t doc_id) const {
  auto it = docs_.find(doc_id);
  return it == docs_.end() ? nullptr : &it->second.bag;
}

std::vector<SptIndex::Hit> SptIndex::TopK(const FeatureBag& query, size_t k,
                                          Metric metric) const {
  if (k == 0) return {};
  if (metric == Metric::kContainment && query.total == 0) return {};

  // Sum each query feature's postings into a per-slot score; a slot joins
  // `touched` on its first (always positive) term.
  std::vector<double> scores(slot_ids_.size(), 0.0);
  std::vector<uint32_t> touched;
  auto accumulate = [&](auto term) {
    for (const auto& [h, q] : query.counts) {
      if (q == 0) continue;
      auto pit = postings_.find(h);
      if (pit == postings_.end()) continue;
      for (const Posting& p : pit->second) {
        double& score = scores[p.slot];
        if (score == 0.0) touched.push_back(p.slot);
        score += term(q, p.count);
      }
    }
  };
  if (metric == Metric::kCosine) {
    accumulate([](uint32_t q, uint32_t d) {
      return static_cast<double>(q) * static_cast<double>(d);
    });
  } else {
    accumulate([](uint32_t q, uint32_t d) {
      return static_cast<double>(std::min(q, d));
    });
  }

  const double query_norm = metric == Metric::kCosine ? query.Norm() : 0.0;
  auto better = [](const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  };
  // Bounded heap whose front is the worst of the current top k.
  std::vector<Hit> top;
  top.reserve(std::min(k, touched.size()));
  for (uint32_t slot : touched) {
    Hit hit{slot_ids_[slot], scores[slot]};
    if (metric == Metric::kCosine) {
      hit.score /= query_norm * slot_norms_[slot];
    } else if (metric == Metric::kContainment) {
      hit.score /= static_cast<double>(query.total);
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
