// Signed feature hashing ("hashing trick") into a fixed-dimension vector —
// the numerical core of the offline neural-model simulators.
//
// Each term is hashed twice: once to pick a dimension, once to pick a sign.
// Terms that co-occur across two texts therefore contribute correlated mass
// to the same dimensions, so cosine over the hashed vectors approximates
// weighted term overlap — exactly the property semantic search needs, with
// no model weights required.
//
// A text touches a few dozen of the 4,096 dimensions, so the encoder emits a
// SparseVector. Add records each term's (dimension, signed weight); Finish
// replays them in Add order into a per-thread accumulator, resets only the
// dimensions it touched, and sorts only those distinct dimensions. Each
// dimension's float sum therefore starts at 0.0f and adds the same terms in
// the same order as a dense accumulator would, bit for bit.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "embed/embedding.hpp"

namespace laminar::embed {

class HashedEncoder {
 public:
  /// `seed` namespaces the hash space: encoders with different seeds produce
  /// incomparable vectors (used to keep text and code spaces separate).
  explicit HashedEncoder(size_t dims, uint64_t seed);

  /// Accumulates a term with the given weight.
  void Add(std::string_view term, float weight);

  /// Returns the accumulated, L2-normalized vector and resets the encoder.
  SparseVector Finish();

  size_t dims() const { return dims_; }

 private:
  struct Term {
    uint32_t dim = 0;
    float value = 0.0f;  ///< sign * weight
  };

  size_t dims_;
  uint64_t seed_;
  std::vector<Term> terms_;  ///< in Add order
};

}  // namespace laminar::embed
