#include "embed/reacc_sim.hpp"

#include "common/strings.hpp"
#include "pycode/lexer.hpp"

namespace laminar::embed {
namespace {

constexpr uint64_t kCodeSpaceSeed = 0x7265616363707932ULL;  // "reaccpy2"

std::vector<std::string> CodeTokens(std::string_view code) {
  Result<std::vector<pycode::Token>> lexed = pycode::Lex(code);
  std::vector<std::string> tokens;
  if (lexed.ok()) {
    for (const pycode::Token& t : lexed.value()) {
      switch (t.type) {
        case pycode::TokenType::kName:
        case pycode::TokenType::kKeyword:
        case pycode::TokenType::kNumber:
        case pycode::TokenType::kString:
        case pycode::TokenType::kOp:
          tokens.push_back(t.text);
          break;
        default:
          break;  // structure tokens carry no content
      }
    }
    return tokens;
  }
  // Unlexable fragment (dropped code can cut a string literal in half):
  // degrade to whitespace tokens, as a subword tokenizer would still produce
  // *something* for any input.
  return strings::SplitWhitespace(code);
}

}  // namespace

ReaccSim::ReaccSim(ReaccConfig config) : config_(config) {}

SparseVector ReaccSim::Encode(std::string_view code) const {
  HashedEncoder enc(config_.dims, kCodeSpaceSeed);
  std::vector<std::string> tokens = CodeTokens(code);
  for (const std::string& t : tokens) {
    enc.Add("u:" + t, config_.unigram_weight);
  }
  int n = config_.ngram;
  if (n > 1) {
    for (size_t i = 0; i + static_cast<size_t>(n) <= tokens.size(); ++i) {
      std::string gram = "g:";
      for (int j = 0; j < n; ++j) {
        gram += tokens[i + static_cast<size_t>(j)];
        gram += '\x1f';
      }
      enc.Add(gram, config_.ngram_weight);
    }
  }
  return enc.Finish();
}

}  // namespace laminar::embed
