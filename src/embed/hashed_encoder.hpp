// Signed feature hashing ("hashing trick") into a fixed-dimension vector —
// the numerical core of the offline neural-model simulators.
//
// Each term is hashed twice: once to pick a dimension, once to pick a sign.
// Terms that co-occur across two texts therefore contribute correlated mass
// to the same dimensions, so cosine over the hashed vectors approximates
// weighted term overlap — exactly the property semantic search needs, with
// no model weights required.
//
// A term is a prefix and a few words or tokens: UnixcoderSim's "w:", "s:",
// "b:" and "t:" terms, ReaccSim's "u:" unigrams and "g:" n-grams with each
// token followed by '\x1f'. Add takes a term as those pieces and streams
// FNV-1a over them from the encoder's seed. Hashing a then b equals hashing
// a + b, so the term lands on the dimension and sign of its concatenation,
// and no term string is built. The encoders add their terms in the order
// they always did, which fixes each dimension's float sum.
//
// A text touches a few dozen of the 4,096 dimensions, so the encoder emits a
// SparseVector. Add records each term's (dimension, signed weight); Finish
// replays them in Add order into a per-thread accumulator, resets only the
// dimensions it touched, and sorts only those distinct dimensions. Each
// dimension's float sum therefore starts at 0.0f and adds the same terms in
// the same order as a dense accumulator would, bit for bit.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "embed/embedding.hpp"

namespace laminar::embed {

class HashedEncoder {
 public:
  /// `seed` namespaces the hash space: encoders with different seeds produce
  /// incomparable vectors (used to keep text and code spaces separate).
  explicit HashedEncoder(size_t dims, uint64_t seed);

  /// Accumulates the term spelled by concatenating `pieces`, with the given
  /// weight. Equal to Add of the concatenated term, bit for bit.
  void Add(std::span<const std::string_view> pieces, float weight);
  void Add(std::initializer_list<std::string_view> pieces, float weight) {
    Add(std::span<const std::string_view>(pieces.begin(), pieces.size()),
        weight);
  }
  /// Accumulates a term with the given weight.
  void Add(std::string_view term, float weight) {
    Add(std::span<const std::string_view>(&term, 1), weight);
  }

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
