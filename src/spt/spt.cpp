#include "spt/spt.hpp"

#include <algorithm>

#include "pycode/parser.hpp"

namespace laminar::spt {
namespace {

using pycode::Node;
using pycode::Token;
using pycode::TokenType;

bool IsStructureToken(const Token& t) {
  return t.type == TokenType::kNewline || t.type == TokenType::kIndent ||
         t.type == TokenType::kDedent || t.type == TokenType::kEnd;
}

bool IsKeywordClass(const Token& t) {
  return t.type == TokenType::kKeyword || t.type == TokenType::kOp;
}

SptNodePtr Build(const Node& node);

void AppendChild(SptNode& parent, const Node& child) {
  if (child.leaf) {
    if (IsStructureToken(child.token)) return;
    SptElem elem;
    elem.is_token = true;
    elem.text = child.token.text;
    elem.is_keyword = IsKeywordClass(child.token);
    elem.line = child.token.line;
    parent.elems.push_back(std::move(elem));
    return;
  }
  SptNodePtr sub = Build(child);
  if (!sub) return;  // empty subtree (e.g. blank suite)
  // Collapse single-element subtrees directly into the parent: grammar
  // scaffolding like paren-less one-element lists adds no structure. Two
  // exceptions: a lone *keyword* element (e.g. a suite holding only `pass`)
  // would corrupt the parent's label if hoisted, and `param` nodes must
  // survive for local-variable detection.
  if (sub->elems.size() == 1 && sub->rule != "param") {
    const SptElem& only = sub->elems[0];
    if (!(only.is_token && only.is_keyword)) {
      parent.elems.push_back(std::move(sub->elems[0]));
      return;
    }
  }
  SptElem elem;
  elem.child = std::move(sub);
  parent.elems.push_back(std::move(elem));
}

SptNodePtr Build(const Node& node) {
  if (node.leaf) {
    if (IsStructureToken(node.token)) return nullptr;
    auto spt = std::make_unique<SptNode>();
    spt->rule = "token";
    SptElem elem;
    elem.is_token = true;
    elem.text = node.token.text;
    elem.is_keyword = IsKeywordClass(node.token);
    elem.line = node.token.line;
    spt->elems.push_back(std::move(elem));
    return spt;
  }
  auto spt = std::make_unique<SptNode>();
  spt->rule = node.kind;
  for (const auto& c : node.children) AppendChild(*spt, *c);
  if (spt->elems.empty()) return nullptr;
  return spt;
}

}  // namespace

std::string SptNode::Label() const {
  // Container nodes get a constant label: encoding their statement count
  // would make every feature inside a block depend on the block's length,
  // destroying robustness to partial snippets (the paper's 50/75/90% drop
  // experiments rely on local features surviving truncation).
  if (rule == "suite" || rule == "module") return "#";
  // Every token's parent features name this label, so spelling all n
  // elements of a wide node would make featurizing it O(n^2).
  const size_t spelled = std::min(elems.size(), kMaxLabelElements);
  std::string label;
  for (size_t i = 0; i < spelled; ++i) {
    const SptElem& e = elems[i];
    if (e.is_token && e.is_keyword) {
      label += e.text;
    } else {
      label += '#';
    }
  }
  if (elems.size() > kMaxLabelElements) label += kTruncatedLabelMark;
  return label;
}

size_t SptNode::TreeSize() const {
  size_t n = 1;
  for (const SptElem& e : elems) {
    if (e.child) n += e.child->TreeSize();
  }
  return n;
}

void SptNode::CollectLines(std::vector<int>& lines) const {
  for (const SptElem& e : elems) {
    if (e.is_token) {
      if (e.line > 0) lines.push_back(e.line);
    } else if (e.child) {
      e.child->CollectLines(lines);
    }
  }
}

SptNodePtr BuildSpt(const pycode::Node& parse_tree) {
  SptNodePtr spt = Build(parse_tree);
  if (!spt) {
    spt = std::make_unique<SptNode>();
    spt->rule = "module";
  }
  return spt;
}

Result<SptNodePtr> SptFromSource(std::string_view source) {
  Result<pycode::NodePtr> tree = pycode::ParseLenient(source);
  if (!tree.ok()) return tree.status();
  return BuildSpt(*tree.value());
}

std::string ToDebugString(const SptNode& node) {
  std::string out = "(" + node.Label();
  for (const SptElem& e : node.elems) {
    out += ' ';
    if (e.is_token) {
      out += e.text;
    } else if (e.child) {
      out += ToDebugString(*e.child);
    }
  }
  out += ')';
  return out;
}

}  // namespace laminar::spt
