// Simplified Parse Trees (SPTs), after Luan et al., "Aroma: Code
// Recommendation via Structural Code Search" (OOPSLA 2019), adapted to
// Python exactly as Laminar 2.0 did.
//
// An SPT node is an ordered list of elements, each either a *keyword token*
// (Python keywords and operators/punctuation — tokens that define structure),
// a *non-keyword token* (identifiers and literals), or a nested SPT. The
// node's label is the concatenation of its keyword tokens with '#'
// placeholders for everything else: `if x > 1:` labels as "if#:#".
// Labels are what make structural matching robust to renamed identifiers.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "pycode/ast.hpp"

namespace laminar::spt {

struct SptNode;
using SptNodePtr = std::unique_ptr<SptNode>;

/// One element of an SPT node's list.
struct SptElem {
  bool is_token = false;
  /// For tokens: source spelling. Unused for subtrees.
  std::string text;
  /// Token class: true for keywords/operators (structure), false for
  /// identifiers/literals (content).
  bool is_keyword = false;
  /// Source line of the token (0 for subtrees).
  int line = 0;
  /// Set iff !is_token.
  SptNodePtr child;
};

/// A label spells at most this many elements; the widest node of the
/// generated corpora has 13.
inline constexpr size_t kMaxLabelElements = 64;
/// Ends the label of a wider node. No token spells '$' (the lexer rejects
/// it), and no width is added, so two truncated wide nodes still match.
inline constexpr char kTruncatedLabelMark = '$';

struct SptNode {
  /// Grammar-rule name this node came from (diagnostic only).
  std::string rule;
  std::vector<SptElem> elems;

  /// Aroma node label: keyword tokens verbatim, '#' per other element, over
  /// the first kMaxLabelElements elements, then kTruncatedLabelMark if
  /// there are more.
  std::string Label() const;

  size_t TreeSize() const;
  /// Collects every token element in order with its parent chain available
  /// via the traversal in features.cpp.
  void CollectLines(std::vector<int>& lines) const;
};

/// Builds an SPT from a parse tree. Structure tokens (NEWLINE etc.) are
/// dropped; single-child chains are collapsed so that expression-precedence
/// scaffolding does not dilute labels.
SptNodePtr BuildSpt(const pycode::Node& parse_tree);

/// Convenience: source → SPT via the lenient parser (never fails on partial
/// snippets unless no tokens at all survive).
Result<SptNodePtr> SptFromSource(std::string_view source);

/// Debug rendering: node as (label elem elem ...).
std::string ToDebugString(const SptNode& node);

}  // namespace laminar::spt
