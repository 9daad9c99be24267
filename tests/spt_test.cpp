#include <algorithm>
#include <functional>
#include <gtest/gtest.h>

#include "pycode/parser.hpp"
#include "spt/spt.hpp"

namespace laminar::spt {
namespace {

SptNodePtr Build(const std::string& source) {
  Result<SptNodePtr> spt = SptFromSource(source);
  EXPECT_TRUE(spt.ok()) << spt.status().ToString();
  return spt.ok() ? std::move(spt.value()) : nullptr;
}

/// Finds the first descendant whose label equals `label`.
const SptNode* FindLabel(const SptNode& node, const std::string& label) {
  if (node.Label() == label) return &node;
  for (const SptElem& e : node.elems) {
    if (e.child) {
      if (const SptNode* found = FindLabel(*e.child, label)) return found;
    }
  }
  return nullptr;
}

TEST(Spt, LabelOfComparison) {
  // `x > 1` -> node label "#>#" (Aroma's canonical example).
  SptNodePtr spt = Build("x > 1\n");
  ASSERT_NE(spt, nullptr);
  EXPECT_NE(FindLabel(*spt, "#>#"), nullptr) << ToDebugString(*spt);
}

TEST(Spt, LabelOfIfStatement) {
  SptNodePtr spt = Build("if x > 1:\n    pass\n");
  ASSERT_NE(spt, nullptr);
  // if_stmt children: 'if' keyword, condition subtree, ':', suite subtree.
  EXPECT_NE(FindLabel(*spt, "if#:#"), nullptr) << ToDebugString(*spt);
}

TEST(Spt, KeywordsKeptVerbatimIdentifiersAbstracted) {
  SptNodePtr spt = Build("return value\n");
  ASSERT_NE(spt, nullptr);
  EXPECT_NE(FindLabel(*spt, "return#"), nullptr) << ToDebugString(*spt);
}

TEST(Spt, StructureTokensDropped) {
  SptNodePtr spt = Build("x = 1\ny = 2\n");
  ASSERT_NE(spt, nullptr);
  std::string debug = ToDebugString(*spt);
  EXPECT_EQ(debug.find("<NL>"), std::string::npos);
  EXPECT_EQ(debug.find("NEWLINE"), std::string::npos);
}

TEST(Spt, RenamedSnippetsHaveIdenticalLabels) {
  // Identical structure, different identifiers -> same SPT shape.
  SptNodePtr a = Build("for i in range(2, n):\n    if n % i == 0:\n        return None\n");
  SptNodePtr b = Build("for div in range(2, num):\n    if num % div == 0:\n        return None\n");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Compare the label multisets by rendering structure with identifiers
  // replaced by '#': labels only contain keywords + '#'.
  std::function<void(const SptNode&, std::vector<std::string>&)> collect =
      [&](const SptNode& n, std::vector<std::string>& out) {
        out.push_back(n.Label());
        for (const SptElem& e : n.elems) {
          if (e.child) collect(*e.child, out);
        }
      };
  std::vector<std::string> la, lb;
  collect(*a, la);
  collect(*b, lb);
  EXPECT_EQ(la, lb);
}

TEST(Spt, TreeSizeAndLines) {
  SptNodePtr spt = Build(
      "def f(x):\n"
      "    y = x + 1\n"
      "    return y\n");
  ASSERT_NE(spt, nullptr);
  EXPECT_GT(spt->TreeSize(), 3u);
  std::vector<int> lines;
  spt->CollectLines(lines);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(*std::min_element(lines.begin(), lines.end()), 1);
  EXPECT_EQ(*std::max_element(lines.begin(), lines.end()), 3);
}

TEST(Spt, SingleElementChainsCollapsed) {
  SptNodePtr spt = Build("x\n");
  ASSERT_NE(spt, nullptr);
  // The whole module is one token element, not a chain of unary wrappers.
  ASSERT_EQ(spt->elems.size(), 1u);
  EXPECT_TRUE(spt->elems[0].is_token);
  EXPECT_EQ(spt->elems[0].text, "x");
}

TEST(Spt, PartialSnippetStillBuilds) {
  Result<SptNodePtr> spt = SptFromSource(
      "class P(IterativePE):\n"
      "    def _process(self, data):\n"
      "        result = 0\n"
      "        for\n");  // truncated mid-keyword
  ASSERT_TRUE(spt.ok());
  EXPECT_GT(spt.value()->TreeSize(), 4u);
}

TEST(Spt, EmptySnippetFails) {
  EXPECT_FALSE(SptFromSource("").ok());
}

TEST(Spt, OperatorsCountAsKeywords) {
  SptNodePtr spt = Build("total += price * qty\n");
  ASSERT_NE(spt, nullptr);
  EXPECT_NE(FindLabel(*spt, "#+=#"), nullptr) << ToDebugString(*spt);
  EXPECT_NE(FindLabel(*spt, "#*#"), nullptr) << ToDebugString(*spt);
}

/// A call of `args` arguments, `f(a0, a1, ...)`: its trailer node holds the
/// parentheses, the arguments and the commas, 2 * args + 1 elements.
std::string Call(size_t args) {
  std::string code = "f(a0";
  for (size_t i = 1; i < args; ++i) code += ", a" + std::to_string(i);
  return code + ")\n";
}

std::string Repeat(std::string_view piece, size_t times) {
  std::string out;
  for (size_t i = 0; i < times; ++i) out += piece;
  return out;
}

TEST(Spt, WideLabelSpellsItsFirst64ElementsThenAMark) {
  // 32 arguments: 65 elements. The label spells "(", 31 (#, ",") pairs and
  // the last argument, then the mark in place of ")".
  SptNodePtr wide = Build(Call(32));
  ASSERT_NE(wide, nullptr);
  EXPECT_NE(FindLabel(*wide, "(" + Repeat("#,", 31) + "#$"), nullptr)
      << ToDebugString(*wide);
  // 31 arguments: 63 elements, spelled in full.
  SptNodePtr narrow = Build(Call(31));
  ASSERT_NE(narrow, nullptr);
  EXPECT_NE(FindLabel(*narrow, "(" + Repeat("#,", 30) + "#)"), nullptr)
      << ToDebugString(*narrow);
}

TEST(Spt, LabelsOfUpTo64ElementsAreSpelledInFull) {
  // Nodes of every width up to 66, mixing keywords, other tokens and
  // subtrees; each label is checked against the uncapped spelling.
  SptNode node;
  node.rule = "expr";
  std::string full;
  std::string spelled_at_cap;
  for (size_t width = 1; width <= kMaxLabelElements + 2; ++width) {
    SptElem elem;
    switch (width % 3) {
      case 0:
        elem.is_token = true;
        elem.is_keyword = true;
        elem.text = width % 2 == 0 ? "lambda" : "**";
        full += elem.text;
        break;
      case 1:
        elem.is_token = true;
        elem.text = "v" + std::to_string(width);
        full += '#';
        break;
      default:
        elem.child = std::make_unique<SptNode>();
        full += '#';
    }
    node.elems.push_back(std::move(elem));
    if (width <= kMaxLabelElements) {
      EXPECT_EQ(node.Label(), full) << width;
      EXPECT_EQ(node.Label().find('$'), std::string::npos) << width;
    } else {
      EXPECT_EQ(node.Label(), spelled_at_cap + "$") << width;
    }
    if (width == kMaxLabelElements) spelled_at_cap = full;
  }
}

}  // namespace
}  // namespace laminar::spt
