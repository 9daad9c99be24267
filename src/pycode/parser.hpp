// Recursive-descent parser for the Python subset used by Laminar PEs.
//
// Covers everything the corpus generator, the example PEs and typical
// dispel4py code need: classes, functions (plain & decorated), all common
// statements, full expression grammar with comprehensions, slices, lambdas,
// starred args, and chained comparisons.
//
// Two entry points:
//  * Parse        — strict; any syntax error is reported.
//  * ParseLenient — for partial snippets (Aroma queries with dropped code):
//    falls back to per-logical-line fragment trees for unparseable regions so
//    that feature extraction still sees most of the structure, mirroring how
//    Aroma handles incomplete code.
#pragma once

#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "pycode/ast.hpp"
#include "pycode/token.hpp"

namespace laminar::pycode {

/// Deepest nesting of statements, brackets and other recursive expression
/// forms the parser follows; deeper input is a parse error (ParseLenient
/// turns that region into a fragment). CPython also stops at 200 nested
/// brackets. A bracket costs about 17 C++ frames, so the bound keeps one
/// hostile request body inside a thread's stack, under sanitizers too.
inline constexpr int kMaxNesting = 200;

/// Strict parse of a complete module.
Result<NodePtr> Parse(std::string_view source);

/// Parse that never fails on syntactically broken snippets: regions that do
/// not parse become flat "fragment" nodes holding their tokens. Returns an
/// error only if the input produces no tokens at all.
Result<NodePtr> ParseLenient(std::string_view source);

/// ParseLenient over `tokens`, which must be Lex(source): the same tree,
/// for callers that also read the tokens. When the lex failed, the parser
/// relexes `source` line by line, as ParseLenient(source) does.
Result<NodePtr> ParseLenient(std::string_view source,
                             const Result<std::vector<Token>>& tokens);

/// A snippet lexed once and leniently parsed once, for callers with several
/// readers. Registration hands the tokens to the ReACC encoder and the tree
/// to the class-name fallback, the summarizer and the Aroma featurizer.
struct ParsedSnippet {
  Result<std::vector<Token>> tokens;  ///< Lex(source)
  Result<NodePtr> tree;               ///< ParseLenient(source, tokens)
};
ParsedSnippet ParseSnippet(std::string_view source);

}  // namespace laminar::pycode
