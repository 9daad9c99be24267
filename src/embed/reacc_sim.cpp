#include "embed/reacc_sim.hpp"

#include "common/strings.hpp"
#include "pycode/lexer.hpp"

namespace laminar::embed {
namespace {

constexpr uint64_t kCodeSpaceSeed = 0x7265616363707932ULL;  // "reaccpy2"

/// The content tokens' spellings: views into `lexed` when the lex
/// succeeded, else into `fallback`, which then holds `code`'s whitespace
/// tokens.
std::vector<std::string_view> CodeTokens(
    std::string_view code, const Result<std::vector<pycode::Token>>& lexed,
    std::vector<std::string>& fallback) {
  std::vector<std::string_view> tokens;
  if (lexed.ok()) {
    tokens.reserve(lexed->size());
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
  fallback = strings::SplitWhitespace(code);
  tokens.assign(fallback.begin(), fallback.end());
  return tokens;
}

}  // namespace

ReaccSim::ReaccSim(ReaccConfig config) : config_(config) {}

SparseVector ReaccSim::Encode(std::string_view code) const {
  return Encode(code, pycode::Lex(code));
}

SparseVector ReaccSim::Encode(
    std::string_view code,
    const Result<std::vector<pycode::Token>>& tokens) const {
  HashedEncoder enc(config_.dims, kCodeSpaceSeed);
  std::vector<std::string> fallback;
  const std::vector<std::string_view> spellings =
      CodeTokens(code, tokens, fallback);
  for (std::string_view t : spellings) {
    enc.Add({"u:", t}, config_.unigram_weight);
  }
  if (config_.ngram > 1) {
    // An n-gram term is "g:", then each of its tokens followed by '\x1f'.
    const auto n = static_cast<size_t>(config_.ngram);
    std::vector<std::string_view> gram(1 + 2 * n, "\x1f");
    gram[0] = "g:";
    for (size_t i = 0; i + n <= spellings.size(); ++i) {
      for (size_t j = 0; j < n; ++j) gram[1 + 2 * j] = spellings[i + j];
      enc.Add(gram, config_.ngram_weight);
    }
  }
  return enc.Finish();
}

}  // namespace laminar::embed
