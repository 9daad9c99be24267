// ReaccSim — offline stand-in for the ReACC-py-retriever code-embedding
// model that implemented code-to-code search in Laminar 1.0 (the baseline
// the paper's Fig. 13 evaluates).
//
// ReACC's published behaviour: excellent recall of identical or nearly
// identical code (clone detection), but sensitive to identifier renames and
// to missing code — it embeds the token *sequence*. We reproduce exactly
// that profile: verbatim token unigrams plus token n-grams (sequence
// coupling). No variable-name generalization — that is Aroma's advantage,
// and the contrast is the whole point of the Fig. 12/13 experiment.
#pragma once

#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "embed/hashed_encoder.hpp"
#include "pycode/token.hpp"

namespace laminar::embed {

struct ReaccConfig {
  size_t dims = 4096;
  float unigram_weight = 0.5f;
  float ngram_weight = 3.0f;  ///< sequence coupling dominates
  int ngram = 5;
};

class ReaccSim {
 public:
  explicit ReaccSim(ReaccConfig config = {});

  /// Embeds a code snippet. Tokenizes with the Python lexer when possible,
  /// falling back to whitespace tokens for unlexable fragments.
  SparseVector Encode(std::string_view code) const;
  /// Encode(code) from `tokens`, which must be pycode::Lex(code): a caller
  /// that lexed the snippet for its parse hands the tokens over.
  SparseVector Encode(std::string_view code,
                      const Result<std::vector<pycode::Token>>& tokens) const;
  /// Encode as a dense vector of dims() floats, for the dense SIMD kernels
  /// (perfbench's scan timing) and tests.
  Vector EncodeCode(std::string_view code) const {
    return ToDense(Encode(code));
  }

  size_t dims() const { return config_.dims; }

 private:
  ReaccConfig config_;
};

}  // namespace laminar::embed
