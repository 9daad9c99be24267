#include "embed/hashed_encoder.hpp"

#include <algorithm>
#include <bit>

#include "common/hashing.hpp"

namespace laminar::embed {
namespace {

/// Per-thread Finish scratch, shared by every encoder the thread finishes:
/// a float sum and a `seen` flag per dimension, zero between calls, and the
/// dimensions the current call touched.
struct Scratch {
  std::vector<float> sum;
  std::vector<uint8_t> seen;
  std::vector<uint32_t> touched;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Resets the touched dimensions when Finish returns, so the next call on
/// this thread starts from all-zero sums without clearing all of them.
class TouchedReset {
 public:
  explicit TouchedReset(Scratch& s) : s_(s) {}
  ~TouchedReset() {
    for (uint32_t dim : s_.touched) {
      s_.sum[dim] = 0.0f;
      s_.seen[dim] = 0;
    }
    s_.touched.clear();
  }
  TouchedReset(const TouchedReset&) = delete;
  TouchedReset& operator=(const TouchedReset&) = delete;

 private:
  Scratch& s_;
};

}  // namespace

HashedEncoder::HashedEncoder(size_t dims, uint64_t seed)
    : dims_(dims), seed_(seed) {}

void HashedEncoder::Add(std::span<const std::string_view> pieces,
                        float weight) {
  uint64_t h = seed_;
  for (std::string_view piece : pieces) h = hashing::Fnv1a64(piece, h);
  uint64_t mixed = hashing::SplitMix64(h);
  uint32_t dim = static_cast<uint32_t>(mixed % dims_);
  float sign = (mixed >> 63) != 0 ? 1.0f : -1.0f;
  terms_.push_back(Term{dim, sign * weight});
}

SparseVector HashedEncoder::Finish() {
  Scratch& s = ThreadScratch();
  if (s.sum.size() < dims_) {
    s.sum.resize(dims_, 0.0f);
    s.seen.resize(dims_, 0);
  }
  TouchedReset reset(s);
  for (const Term& t : terms_) {
    if (s.seen[t.dim] == 0) {
      s.touched.push_back(t.dim);
      s.seen[t.dim] = 1;
    }
    s.sum[t.dim] += t.value;
  }
  terms_.clear();
  std::sort(s.touched.begin(), s.touched.end());
  SparseVector out;
  out.dims = dims_;
  out.entries.reserve(s.touched.size());
  for (uint32_t dim : s.touched) {
    // A sum that cancelled to +0.0 is the dense zero: no entry.
    if (std::bit_cast<uint32_t>(s.sum[dim]) != 0) {
      out.entries.push_back({dim, s.sum[dim]});
    }
  }
  L2Normalize(out);
  return out;
}

}  // namespace laminar::embed
