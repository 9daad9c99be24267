// UnixcoderSim — offline stand-in for the UniXcoder text-embedding model
// Laminar 2.0 uses for text-to-code search (paper §V-B).
//
// Substitution rationale (see DESIGN.md): semantic search in Laminar only
// needs one property from UniXcoder — descriptions that talk about the same
// things land close in embedding space. We approximate that with weighted
// signed-hash bag-of-subwords: whole words carry most of the weight, word
// bigrams add phrase sensitivity, and character trigrams give the partial
// robustness to morphology that subword tokenizers provide.
#pragma once

#include <string_view>

#include "embed/hashed_encoder.hpp"

namespace laminar::embed {

struct UnixcoderConfig {
  size_t dims = 4096;
  float word_weight = 1.0f;
  float bigram_weight = 0.5f;
  float trigram_weight = 0.15f;
  /// Common English/glue words are down-weighted by this factor.
  float stopword_weight = 0.1f;
};

class UnixcoderSim {
 public:
  explicit UnixcoderSim(UnixcoderConfig config = {});

  /// Embeds free text (a query or a PE/workflow description). Deterministic;
  /// L2-normalized.
  SparseVector Encode(std::string_view text) const;
  /// Encode as a dense vector of dims() floats, for the dense SIMD kernels
  /// (perfbench's scan timing) and tests.
  Vector EncodeText(std::string_view text) const {
    return ToDense(Encode(text));
  }

  size_t dims() const { return config_.dims; }

 private:
  UnixcoderConfig config_;
};

}  // namespace laminar::embed
