#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pycode/parser.hpp"

namespace laminar::pycode {
namespace {

std::string SExpr(const std::string& source) {
  Result<NodePtr> tree = Parse(source);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString() << "\nsource:\n" << source;
  return tree.ok() ? tree.value()->ToSExpr() : "";
}

bool ParsesStrict(const std::string& source) { return Parse(source).ok(); }

TEST(Parser, SimpleAssignment) {
  EXPECT_EQ(SExpr("x = 1\n"), "(module (assign x = 1))");
}

TEST(Parser, ChainedAndAugmented) {
  EXPECT_EQ(SExpr("a = b = 2\n"), "(module (assign a = b = 2))");
  EXPECT_EQ(SExpr("a += 1\n"), "(module (aug_assign a += 1))");
}

TEST(Parser, AnnotatedAssignment) {
  EXPECT_EQ(SExpr("x: int = 5\n"), "(module (ann_assign x : int = 5))");
}

TEST(Parser, TupleAssignmentAndSwap) {
  EXPECT_TRUE(ParsesStrict("a, b = b, a + b\n"));
  EXPECT_TRUE(ParsesStrict("xs[i], xs[j] = xs[j], xs[i]\n"));
}

TEST(Parser, OperatorPrecedence) {
  // * binds tighter than +; ** tighter than unary minus on the left.
  EXPECT_EQ(SExpr("x = 1 + 2 * 3\n"),
            "(module (assign x = (bin_op 1 + (bin_op 2 * 3))))");
  EXPECT_EQ(SExpr("x = 2 ** 3 ** 2\n"),
            "(module (assign x = (power 2 ** (power 3 ** 2))))");
}

TEST(Parser, ComparisonChains) {
  EXPECT_EQ(SExpr("r = a < b <= c\n"),
            "(module (assign r = (comparison a < b <= c)))");
  EXPECT_TRUE(ParsesStrict("if x not in seen and y is not None:\n    pass\n"));
}

TEST(Parser, BooleanOperators) {
  EXPECT_EQ(SExpr("r = a or b and not c\n"),
            "(module (assign r = (or_expr a or (and_expr b and (not_expr not c)))))");
}

TEST(Parser, Ternary) {
  EXPECT_EQ(SExpr("x = 1 if ok else 2\n"),
            "(module (assign x = (ternary 1 if ok else 2)))");
}

TEST(Parser, CallForms) {
  EXPECT_TRUE(ParsesStrict("f()\n"));
  EXPECT_TRUE(ParsesStrict("f(1, x, key=2, *args, **kwargs)\n"));
  EXPECT_TRUE(ParsesStrict("obj.method(1).chain()[0].attr\n"));
  EXPECT_TRUE(ParsesStrict("print('a', end='')\n"));
}

TEST(Parser, SubscriptsAndSlices) {
  EXPECT_TRUE(ParsesStrict("a[1]\n"));
  EXPECT_TRUE(ParsesStrict("a[1:2]\n"));
  EXPECT_TRUE(ParsesStrict("a[::2]\n"));
  EXPECT_TRUE(ParsesStrict("a[i:j:k]\n"));
  EXPECT_TRUE(ParsesStrict("m[i][j]\n"));
  EXPECT_TRUE(ParsesStrict("a[1:]\n"));
  EXPECT_TRUE(ParsesStrict("a[:-1]\n"));
  EXPECT_TRUE(ParsesStrict("a[x, y]\n"));
}

TEST(Parser, Displays) {
  EXPECT_TRUE(ParsesStrict("x = []\n"));
  EXPECT_TRUE(ParsesStrict("x = [1, 2, 3]\n"));
  EXPECT_TRUE(ParsesStrict("x = {}\n"));
  EXPECT_TRUE(ParsesStrict("x = {'a': 1, 'b': 2}\n"));
  EXPECT_TRUE(ParsesStrict("x = {1, 2}\n"));
  EXPECT_TRUE(ParsesStrict("x = (1,)\n"));
  EXPECT_TRUE(ParsesStrict("x = ()\n"));
  EXPECT_TRUE(ParsesStrict("x = (a + b) * c\n"));
}

TEST(Parser, Comprehensions) {
  EXPECT_TRUE(ParsesStrict("x = [i * i for i in range(10) if i % 2 == 0]\n"));
  EXPECT_TRUE(ParsesStrict("x = {k: v for k, v in items}\n"));
  EXPECT_TRUE(ParsesStrict("x = {c for c in text}\n"));
  EXPECT_TRUE(ParsesStrict("total = sum(v * v for v in vec)\n"));
  EXPECT_TRUE(ParsesStrict("m = [[0] * n for _ in range(n)]\n"));
}

TEST(Parser, Lambda) {
  EXPECT_TRUE(ParsesStrict("f = lambda x, y=2: x + y\n"));
  EXPECT_TRUE(ParsesStrict("sorted(xs, key=lambda p: p[1])\n"));
}

TEST(Parser, FunctionDefs) {
  std::string src =
      "def f(a, b=1, *args, **kw) -> int:\n"
      "    return a + b\n";
  std::string sexpr = SExpr(src);
  EXPECT_NE(sexpr.find("func_def"), std::string::npos);
  EXPECT_NE(sexpr.find("return_annotation"), std::string::npos);
}

TEST(Parser, ClassWithMethods) {
  std::string src =
      "class IsPrime(IterativePE):\n"
      "    def __init__(self):\n"
      "        IterativePE.__init__(self)\n"
      "    def _process(self, num):\n"
      "        if all(num % i != 0 for i in range(2, num)):\n"
      "            return num\n";
  std::string sexpr = SExpr(src);
  EXPECT_NE(sexpr.find("class_def"), std::string::npos);
  EXPECT_NE(sexpr.find("(bases ( IterativePE ))"), std::string::npos);
}

TEST(Parser, Decorators) {
  EXPECT_TRUE(ParsesStrict(
      "@staticmethod\n"
      "@app.route('/x', methods=['GET'])\n"
      "def handler():\n"
      "    pass\n"));
}

TEST(Parser, ControlFlowStatements) {
  EXPECT_TRUE(ParsesStrict(
      "while x > 0:\n"
      "    x -= 1\n"
      "else:\n"
      "    done()\n"));
  EXPECT_TRUE(ParsesStrict(
      "for i, v in enumerate(xs):\n"
      "    if v:\n"
      "        break\n"
      "    elif not v:\n"
      "        continue\n"
      "else:\n"
      "    pass\n"));
  EXPECT_TRUE(ParsesStrict(
      "try:\n"
      "    risky()\n"
      "except ValueError as e:\n"
      "    handle(e)\n"
      "except Exception:\n"
      "    raise\n"
      "else:\n"
      "    ok()\n"
      "finally:\n"
      "    cleanup()\n"));
  EXPECT_TRUE(ParsesStrict(
      "with open('f') as fh, lock:\n"
      "    fh.read()\n"));
}

TEST(Parser, ImportForms) {
  EXPECT_TRUE(ParsesStrict("import os\n"));
  EXPECT_TRUE(ParsesStrict("import os.path as p, sys\n"));
  EXPECT_TRUE(ParsesStrict("from collections import OrderedDict, deque\n"));
  EXPECT_TRUE(ParsesStrict("from a.b.c import d as e\n"));
  EXPECT_TRUE(ParsesStrict("from . import sibling\n"));
  EXPECT_TRUE(ParsesStrict("from mod import *\n"));
  EXPECT_TRUE(ParsesStrict("from pkg import (one,\n    two)\n"));
}

TEST(Parser, SmallStatements) {
  EXPECT_TRUE(ParsesStrict("assert x, 'message'\n"));
  EXPECT_TRUE(ParsesStrict("global a, b\n"));
  EXPECT_TRUE(ParsesStrict("nonlocal c\n"));
  EXPECT_TRUE(ParsesStrict("del xs[0], y\n"));
  EXPECT_TRUE(ParsesStrict("raise ValueError('bad') from err\n"));
  EXPECT_TRUE(ParsesStrict("yield x\n"));
  EXPECT_TRUE(ParsesStrict("x = yield from gen()\n"));
  EXPECT_TRUE(ParsesStrict("a = 1; b = 2; c = 3\n"));
}

TEST(Parser, InlineSuite) {
  EXPECT_TRUE(ParsesStrict("if x: y = 1\n"));
  EXPECT_TRUE(ParsesStrict("def f(): return 1\n"));
}

TEST(Parser, AsyncForms) {
  EXPECT_TRUE(ParsesStrict(
      "async def fetch(url):\n"
      "    data = await get(url)\n"
      "    return data\n"));
}

TEST(Parser, StringConcatenation) {
  EXPECT_TRUE(ParsesStrict("s = 'a' 'b' 'c'\n"));
}

TEST(Parser, DocstringSurvivesInTree) {
  std::string sexpr = SExpr(
      "def f():\n"
      "    \"\"\"Docs here.\"\"\"\n"
      "    return 1\n");
  EXPECT_NE(sexpr.find("Docs here."), std::string::npos);
}

TEST(Parser, SyntaxErrorsReported) {
  EXPECT_FALSE(ParsesStrict("def f(:\n    pass\n"));
  EXPECT_FALSE(ParsesStrict("if\n"));
  EXPECT_FALSE(ParsesStrict("x = = 2\n"));
  EXPECT_FALSE(ParsesStrict("return 1\n2 +\n"));
}

TEST(ParserLenient, RecoversPerStatement) {
  // Second line is garbage; first and third must still be parsed.
  Result<NodePtr> tree = ParseLenient(
      "x = 1\n"
      "def broken(:\n"
      "y = 2\n");
  ASSERT_TRUE(tree.ok());
  std::string sexpr = tree.value()->ToSExpr();
  EXPECT_NE(sexpr.find("(assign x = 1)"), std::string::npos);
  EXPECT_NE(sexpr.find("(assign y = 2)"), std::string::npos);
  EXPECT_NE(sexpr.find("fragment"), std::string::npos);
}

TEST(ParserLenient, TruncatedSuiteTolerated) {
  // Dropping code can cut a def header from its body.
  Result<NodePtr> tree = ParseLenient(
      "class P(IterativePE):\n"
      "    def _process(self, x):\n");
  ASSERT_TRUE(tree.ok());
  EXPECT_NE(tree.value()->ToSExpr().find("func_def"), std::string::npos);
}

TEST(ParserLenient, UnlexableFallsBackToLineFragments) {
  Result<NodePtr> tree = ParseLenient(
      "result = value + 1\n"
      "s = 'unterminated\n");
  ASSERT_TRUE(tree.ok());
  EXPECT_NE(tree.value()->ToSExpr().find("result"), std::string::npos);
}

TEST(ParserLenient, EmptyInputRejected) {
  EXPECT_FALSE(ParseLenient("").ok());
}

std::string Repeat(std::string_view unit, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) out += unit;
  return out;
}

/// `x = ` and `depth` copies of `open` around `1`, closed by `close`.
std::string NestedAssignment(std::string_view open, std::string_view close,
                             int depth) {
  return "x = " + Repeat(open, depth) + "1" + Repeat(close, depth) + "\n";
}

/// `depth` nested `if x:` blocks around `pass`.
std::string NestedIfs(int depth) {
  std::string source;
  for (int i = 0; i < depth; ++i) source += std::string(i, ' ') + "if x:\n";
  return source + std::string(depth, ' ') + "pass\n";
}

// Hostile nesting (one request body) must come back as a parse error, or a
// fragment in lenient mode, instead of overflowing the stack.
TEST(ParserNesting, DeepExpressionsAreRefusedNotFatal) {
  constexpr int kDeep = 5000;
  const std::pair<std::string_view, std::string_view> forms[] = {
      {"(", ")"},      {"[", "]"},  {"{", "}"},  {"f(", ")"},
      {"a[", "]"},     {"not ", ""}, {"-", ""},  {"2 ** ", ""},
      {"lambda: ", ""}};
  std::vector<std::string> sources;
  for (const auto& [open, close] : forms) {
    sources.push_back(NestedAssignment(open, close, kDeep));
  }
  sources.push_back("for " + Repeat("(", kDeep) + "x" + Repeat(")", kDeep) +
                    " in y:\n    pass\n");
  for (const std::string& source : sources) {
    const std::string head = source.substr(0, 12);
    Result<NodePtr> strict = Parse(source);
    ASSERT_FALSE(strict.ok()) << head;
    EXPECT_EQ(strict.status().code(), StatusCode::kParseError) << head;
    Result<NodePtr> lenient = ParseLenient(source);
    ASSERT_TRUE(lenient.ok()) << head;
    EXPECT_NE(lenient.value()->ToSExpr().find("(fragment"), std::string::npos)
        << head;
  }
}

// Each link of a left-deep chain wraps the tree one level deeper, so long
// chains are bounded like brackets: every later tree walk recurses on them.
TEST(ParserNesting, LongChainsAreRefusedNotFatal) {
  constexpr int kLinks = 100'000;
  for (std::string_view link : {"+1", " or 1", " and 1", "()", "[0]", ".b"}) {
    const std::string source = "x = a" + Repeat(link, kLinks) + "\n";
    EXPECT_EQ(Parse(source).status().code(), StatusCode::kParseError) << link;
    Result<NodePtr> lenient = ParseLenient(source);
    ASSERT_TRUE(lenient.ok()) << link;
    EXPECT_EQ(lenient.value()->children.front()->kind, "fragment") << link;
  }
  EXPECT_TRUE(ParsesStrict("x = a" + Repeat("+1", kMaxNesting - 2) + "\n"));
}

TEST(ParserNesting, DeepBlocksAreRefusedNotFatal) {
  const std::string source = NestedIfs(kMaxNesting + 50);
  EXPECT_EQ(Parse(source).status().code(), StatusCode::kParseError);
  Result<NodePtr> lenient = ParseLenient(source);
  ASSERT_TRUE(lenient.ok());
  EXPECT_NE(lenient.value()->ToSExpr().find("(fragment"), std::string::npos);
}

TEST(ParserNesting, NestingJustUnderTheBoundParses) {
  // The statement and its right-hand side take two levels, each bracket one.
  const int brackets = kMaxNesting - 2;
  std::string expected = "1";
  for (int i = 0; i < brackets; ++i) {
    expected = "(paren_expr ( " + expected + " ))";
  }
  EXPECT_EQ(SExpr(NestedAssignment("(", ")", brackets)),
            "(module (assign x = " + expected + "))");
  EXPECT_FALSE(ParsesStrict(NestedAssignment("(", ")", brackets + 1)));

  // Each block takes one level, and the innermost statement one more.
  const int blocks = kMaxNesting - 1;
  expected = "(pass_stmt pass)";
  for (int i = 0; i < blocks; ++i) {
    expected = "(if_stmt if x : (suite " + expected + "))";
  }
  EXPECT_EQ(SExpr(NestedIfs(blocks)), "(module " + expected + ")");
  EXPECT_FALSE(ParsesStrict(NestedIfs(blocks + 1)));
}

TEST(ParseTree, LineSpans) {
  Result<NodePtr> tree = Parse(
      "def f():\n"
      "    a = 1\n"
      "    return a\n");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree.value()->FirstLine(), 1);
  EXPECT_EQ(tree.value()->LastLine(), 3);
}

TEST(ParseTree, TreeSizeCountsAllNodes) {
  Result<NodePtr> tree = Parse("x = 1\n");
  ASSERT_TRUE(tree.ok());
  // module + assign + x + '=' + 1
  EXPECT_EQ(tree.value()->TreeSize(), 5u);
}

}  // namespace
}  // namespace laminar::pycode
