#include "pycode/parser.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "pycode/lexer.hpp"

namespace laminar::pycode {
namespace {

/// Internal control-flow exception; converted to Status at the API boundary.
struct ParseErrorEx : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Parser {
 public:
  Parser(const std::vector<Token>& tokens, bool lenient)
      : tokens_(tokens), lenient_(lenient) {}

  NodePtr ParseModule() {
    auto module = Node::Internal("module");
    while (!At(TokenType::kEnd)) {
      if (At(TokenType::kNewline)) {  // stray blank logical lines
        ++pos_;
        continue;
      }
      module->Add(ParseStatementRecovering());
    }
    return module;
  }

 private:
  // ---- token cursor ----
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool At(TokenType t) const { return Peek().type == t; }
  bool AtOp(std::string_view op) const { return Peek().IsOp(op); }
  bool AtKw(std::string_view kw) const { return Peek().IsKeyword(kw); }
  Token Take() { return tokens_[pos_ < tokens_.size() ? pos_++ : pos_]; }

  [[noreturn]] void Fail(const std::string& msg) const {
    const Token& t = Peek();
    throw ParseErrorEx(msg + " (got " + std::string(TokenTypeName(t.type)) +
                       " '" + t.text + "' at line " + std::to_string(t.line) +
                       ")");
  }

  /// Levels of nesting held for its scope; past kMaxNesting the input
  /// fails like any other syntax error. A left-deep chain (a + b + c,
  /// f()(), a.b.c) adds a level per link: each link wraps the tree so far
  /// one level deeper, and every later tree walk recurses through it.
  class Nested {
   public:
    explicit Nested(Parser& parser, bool deepen = true) : parser_(parser) {
      if (deepen) Deepen();
    }
    ~Nested() { parser_.depth_ -= held_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

    void Deepen() {
      if (parser_.depth_ >= kMaxNesting) {
        parser_.Fail("nesting deeper than " + std::to_string(kMaxNesting) +
                     " levels");
      }
      ++parser_.depth_;
      ++held_;
    }

   private:
    Parser& parser_;
    int held_ = 0;
  };

  Token ExpectOp(std::string_view op) {
    if (!AtOp(op)) Fail("expected '" + std::string(op) + "'");
    return Take();
  }
  Token ExpectKw(std::string_view kw) {
    if (!AtKw(kw)) Fail("expected keyword '" + std::string(kw) + "'");
    return Take();
  }
  Token ExpectName() {
    if (!At(TokenType::kName)) Fail("expected identifier");
    return Take();
  }
  void ExpectNewline(Node& into) {
    (void)into;
    if (At(TokenType::kNewline)) {
      Take();  // structure tokens stay out of the tree
      return;
    }
    if (At(TokenType::kEnd) && lenient_) return;  // truncated snippet
    if (AtOp(";")) return;  // handled by caller loop
    Fail("expected end of line");
  }

  // ---- statement-level recovery (lenient mode) ----
  NodePtr ParseStatementRecovering() {
    if (!lenient_) return ParseStatement();
    size_t start = pos_;
    try {
      return ParseStatement();
    } catch (const ParseErrorEx&) {
      pos_ = start;
      auto frag = Node::Internal("fragment");
      // Consume tokens through the end of this logical line; swallow
      // structure tokens so the outer loop stays aligned. Dropped code can
      // leave a bracket unbalanced, which makes the lexer join every
      // following physical line into this logical one — so also stop when
      // the *physical* line changes, keeping later lines recoverable.
      int frag_line = Peek().line;
      while (!At(TokenType::kEnd)) {
        if (Peek().type != TokenType::kNewline && Peek().line > frag_line &&
            !frag->children.empty()) {
          break;  // next physical line: give the parser another chance
        }
        Token t = Take();
        if (t.type == TokenType::kNewline) break;
        if (t.type == TokenType::kIndent || t.type == TokenType::kDedent) continue;
        frag->AddLeaf(std::move(t));
      }
      if (frag->children.empty()) {
        // Guarantee progress even on a structure-only line.
        if (!At(TokenType::kEnd)) ++pos_;
      }
      return frag;
    }
  }

  // ---- statements ----
  NodePtr ParseStatement() {
    Nested nested(*this);
    if (AtOp("@")) return ParseDecorated();
    if (AtKw("def")) return ParseFuncDef();
    if (AtKw("class")) return ParseClassDef();
    if (AtKw("if")) return ParseIf();
    if (AtKw("while")) return ParseWhile();
    if (AtKw("for")) return ParseFor();
    if (AtKw("try")) return ParseTry();
    if (AtKw("with")) return ParseWith();
    if (AtKw("async")) return ParseAsync();
    return ParseSimpleStatementLine();
  }

  NodePtr ParseAsync() {
    auto node = Node::Internal("async_stmt");
    node->AddLeaf(ExpectKw("async"));
    if (AtKw("def")) node->Add(ParseFuncDef());
    else if (AtKw("for")) node->Add(ParseFor());
    else if (AtKw("with")) node->Add(ParseWith());
    else Fail("expected def/for/with after 'async'");
    return node;
  }

  NodePtr ParseDecorated() {
    auto node = Node::Internal("decorated");
    while (AtOp("@")) {
      auto dec = Node::Internal("decorator");
      dec->AddLeaf(ExpectOp("@"));
      dec->Add(ParseAtomExpr());  // dotted name with optional call
      ExpectNewline(*dec);
      node->Add(std::move(dec));
    }
    if (AtKw("def")) node->Add(ParseFuncDef());
    else if (AtKw("class")) node->Add(ParseClassDef());
    else if (AtKw("async")) node->Add(ParseAsync());
    else Fail("expected def or class after decorator");
    return node;
  }

  NodePtr ParseFuncDef() {
    auto node = Node::Internal("func_def");
    node->AddLeaf(ExpectKw("def"));
    node->AddLeaf(ExpectName());
    node->Add(ParseParams());
    if (AtOp("->")) {
      auto ret = Node::Internal("return_annotation");
      ret->AddLeaf(Take());
      ret->Add(ParseTest());
      node->Add(std::move(ret));
    }
    node->AddLeaf(ExpectOp(":"));
    node->Add(ParseSuite());
    return node;
  }

  NodePtr ParseParams() {
    auto params = Node::Internal("params");
    params->AddLeaf(ExpectOp("("));
    bool first = true;
    while (!AtOp(")")) {
      if (!first) params->AddLeaf(ExpectOp(","));
      first = false;
      if (AtOp(")")) break;  // trailing comma
      auto param = Node::Internal("param");
      if (AtOp("*") || AtOp("**")) param->AddLeaf(Take());
      if (At(TokenType::kName)) param->AddLeaf(Take());
      if (AtOp(":")) {  // annotation
        param->AddLeaf(Take());
        param->Add(ParseTest());
      }
      if (AtOp("=")) {  // default
        param->AddLeaf(Take());
        param->Add(ParseTest());
      }
      params->Add(std::move(param));
    }
    params->AddLeaf(ExpectOp(")"));
    return params;
  }

  NodePtr ParseClassDef() {
    auto node = Node::Internal("class_def");
    node->AddLeaf(ExpectKw("class"));
    node->AddLeaf(ExpectName());
    if (AtOp("(")) {
      auto bases = Node::Internal("bases");
      bases->AddLeaf(Take());
      bool first = true;
      while (!AtOp(")")) {
        if (!first) bases->AddLeaf(ExpectOp(","));
        first = false;
        if (AtOp(")")) break;
        // allow keyword args (metaclass=...)
        if (At(TokenType::kName) && Peek(1).IsOp("=")) {
          auto kw = Node::Internal("kwarg");
          kw->AddLeaf(Take());
          kw->AddLeaf(Take());
          kw->Add(ParseTest());
          bases->Add(std::move(kw));
        } else {
          bases->Add(ParseTest());
        }
      }
      bases->AddLeaf(ExpectOp(")"));
      node->Add(std::move(bases));
    }
    node->AddLeaf(ExpectOp(":"));
    node->Add(ParseSuite());
    return node;
  }

  NodePtr ParseIf() {
    auto node = Node::Internal("if_stmt");
    node->AddLeaf(ExpectKw("if"));
    node->Add(ParseTest());
    node->AddLeaf(ExpectOp(":"));
    node->Add(ParseSuite());
    while (AtKw("elif")) {
      auto clause = Node::Internal("elif_clause");
      clause->AddLeaf(Take());
      clause->Add(ParseTest());
      clause->AddLeaf(ExpectOp(":"));
      clause->Add(ParseSuite());
      node->Add(std::move(clause));
    }
    if (AtKw("else")) {
      auto clause = Node::Internal("else_clause");
      clause->AddLeaf(Take());
      clause->AddLeaf(ExpectOp(":"));
      clause->Add(ParseSuite());
      node->Add(std::move(clause));
    }
    return node;
  }

  NodePtr ParseWhile() {
    auto node = Node::Internal("while_stmt");
    node->AddLeaf(ExpectKw("while"));
    node->Add(ParseTest());
    node->AddLeaf(ExpectOp(":"));
    node->Add(ParseSuite());
    if (AtKw("else")) {
      auto clause = Node::Internal("else_clause");
      clause->AddLeaf(Take());
      clause->AddLeaf(ExpectOp(":"));
      clause->Add(ParseSuite());
      node->Add(std::move(clause));
    }
    return node;
  }

  NodePtr ParseFor() {
    auto node = Node::Internal("for_stmt");
    node->AddLeaf(ExpectKw("for"));
    node->Add(ParseTargetList());
    node->AddLeaf(ExpectKw("in"));
    node->Add(ParseTestList());
    node->AddLeaf(ExpectOp(":"));
    node->Add(ParseSuite());
    if (AtKw("else")) {
      auto clause = Node::Internal("else_clause");
      clause->AddLeaf(Take());
      clause->AddLeaf(ExpectOp(":"));
      clause->Add(ParseSuite());
      node->Add(std::move(clause));
    }
    return node;
  }

  NodePtr ParseTry() {
    auto node = Node::Internal("try_stmt");
    node->AddLeaf(ExpectKw("try"));
    node->AddLeaf(ExpectOp(":"));
    node->Add(ParseSuite());
    while (AtKw("except")) {
      auto clause = Node::Internal("except_clause");
      clause->AddLeaf(Take());
      if (!AtOp(":")) {
        clause->Add(ParseTest());
        if (AtKw("as")) {
          clause->AddLeaf(Take());
          clause->AddLeaf(ExpectName());
        }
      }
      clause->AddLeaf(ExpectOp(":"));
      clause->Add(ParseSuite());
      node->Add(std::move(clause));
    }
    if (AtKw("else")) {
      auto clause = Node::Internal("else_clause");
      clause->AddLeaf(Take());
      clause->AddLeaf(ExpectOp(":"));
      clause->Add(ParseSuite());
      node->Add(std::move(clause));
    }
    if (AtKw("finally")) {
      auto clause = Node::Internal("finally_clause");
      clause->AddLeaf(Take());
      clause->AddLeaf(ExpectOp(":"));
      clause->Add(ParseSuite());
      node->Add(std::move(clause));
    }
    return node;
  }

  NodePtr ParseWith() {
    auto node = Node::Internal("with_stmt");
    node->AddLeaf(ExpectKw("with"));
    while (true) {
      auto item = Node::Internal("with_item");
      item->Add(ParseTest());
      if (AtKw("as")) {
        item->AddLeaf(Take());
        item->Add(ParseTarget());
      }
      node->Add(std::move(item));
      if (AtOp(",")) {
        node->AddLeaf(Take());
        continue;
      }
      break;
    }
    node->AddLeaf(ExpectOp(":"));
    node->Add(ParseSuite());
    return node;
  }

  NodePtr ParseSuite() {
    auto suite = Node::Internal("suite");
    if (At(TokenType::kNewline)) {
      Take();  // NEWLINE (structure tokens stay out of the tree)
      if (!At(TokenType::kIndent)) {
        if (lenient_) return suite;  // truncated: empty body
        Fail("expected indented block");
      }
      Take();  // INDENT
      while (!At(TokenType::kDedent) && !At(TokenType::kEnd)) {
        if (At(TokenType::kNewline)) {
          Take();
          continue;
        }
        suite->Add(ParseStatementRecovering());
      }
      if (At(TokenType::kDedent)) Take();
      return suite;
    }
    // Inline suite: simple statements on the same line.
    suite->Add(ParseSimpleStatementLine());
    return suite;
  }

  /// One logical line of ';'-separated simple statements.
  NodePtr ParseSimpleStatementLine() {
    auto line = Node::Internal("stmt_line");
    while (true) {
      line->Add(ParseSmallStatement());
      if (AtOp(";")) {
        line->AddLeaf(Take());
        if (At(TokenType::kNewline)) break;
        continue;
      }
      break;
    }
    ExpectNewline(*line);
    // A single-statement line collapses to the statement itself: keeps trees
    // compact and SPT features focused.
    if (line->children.size() == 1) return std::move(line->children[0]);
    return line;
  }

  NodePtr ParseSmallStatement() {
    if (AtKw("return")) {
      auto node = Node::Internal("return_stmt");
      node->AddLeaf(Take());
      if (!At(TokenType::kNewline) && !AtOp(";") && !At(TokenType::kEnd)) {
        node->Add(ParseTestList());
      }
      return node;
    }
    if (AtKw("pass") || AtKw("break") || AtKw("continue")) {
      auto node = Node::Internal(Peek().text + "_stmt");
      node->AddLeaf(Take());
      return node;
    }
    if (AtKw("import")) return ParseImport();
    if (AtKw("from")) return ParseFromImport();
    if (AtKw("raise")) {
      auto node = Node::Internal("raise_stmt");
      node->AddLeaf(Take());
      if (!At(TokenType::kNewline) && !AtOp(";") && !At(TokenType::kEnd)) {
        node->Add(ParseTest());
        if (AtKw("from")) {
          node->AddLeaf(Take());
          node->Add(ParseTest());
        }
      }
      return node;
    }
    if (AtKw("assert")) {
      auto node = Node::Internal("assert_stmt");
      node->AddLeaf(Take());
      node->Add(ParseTest());
      if (AtOp(",")) {
        node->AddLeaf(Take());
        node->Add(ParseTest());
      }
      return node;
    }
    if (AtKw("global") || AtKw("nonlocal")) {
      auto node = Node::Internal(Peek().text + "_stmt");
      node->AddLeaf(Take());
      node->AddLeaf(ExpectName());
      while (AtOp(",")) {
        node->AddLeaf(Take());
        node->AddLeaf(ExpectName());
      }
      return node;
    }
    if (AtKw("del")) {
      auto node = Node::Internal("del_stmt");
      node->AddLeaf(Take());
      node->Add(ParseTargetList());
      return node;
    }
    if (AtKw("yield")) {
      auto node = Node::Internal("yield_stmt");
      node->Add(ParseYieldExpr());
      return node;
    }
    return ParseExprStatement();
  }

  NodePtr ParseImport() {
    auto node = Node::Internal("import_stmt");
    node->AddLeaf(ExpectKw("import"));
    while (true) {
      node->Add(ParseDottedName());
      if (AtKw("as")) {
        node->AddLeaf(Take());
        node->AddLeaf(ExpectName());
      }
      if (AtOp(",")) {
        node->AddLeaf(Take());
        continue;
      }
      break;
    }
    return node;
  }

  NodePtr ParseFromImport() {
    auto node = Node::Internal("from_import_stmt");
    node->AddLeaf(ExpectKw("from"));
    while (AtOp(".")) node->AddLeaf(Take());  // relative import dots
    if (At(TokenType::kName)) node->Add(ParseDottedName());
    node->AddLeaf(ExpectKw("import"));
    if (AtOp("*")) {
      node->AddLeaf(Take());
      return node;
    }
    bool paren = AtOp("(");
    if (paren) node->AddLeaf(Take());
    while (true) {
      node->AddLeaf(ExpectName());
      if (AtKw("as")) {
        node->AddLeaf(Take());
        node->AddLeaf(ExpectName());
      }
      if (AtOp(",")) {
        node->AddLeaf(Take());
        if (paren && AtOp(")")) break;
        continue;
      }
      break;
    }
    if (paren) node->AddLeaf(ExpectOp(")"));
    return node;
  }

  NodePtr ParseDottedName() {
    auto node = Node::Internal("dotted_name");
    node->AddLeaf(ExpectName());
    while (AtOp(".") && Peek(1).Is(TokenType::kName)) {
      node->AddLeaf(Take());
      node->AddLeaf(Take());
    }
    if (node->children.size() == 1) return std::move(node->children[0]);
    return node;
  }

  NodePtr ParseExprStatement() {
    NodePtr first = ParseTestListStar();
    // Annotated assignment: target ':' type ['=' value]
    if (AtOp(":")) {
      auto node = Node::Internal("ann_assign");
      node->Add(std::move(first));
      node->AddLeaf(Take());
      node->Add(ParseTest());
      if (AtOp("=")) {
        node->AddLeaf(Take());
        node->Add(ParseTestListStar());
      }
      return node;
    }
    static constexpr std::string_view kAug[] = {
        "+=", "-=", "*=", "/=", "//=", "%=", "**=",
        ">>=", "<<=", "&=", "|=", "^=", "@="};
    for (std::string_view op : kAug) {
      if (AtOp(op)) {
        auto node = Node::Internal("aug_assign");
        node->Add(std::move(first));
        node->AddLeaf(Take());
        node->Add(ParseTestListStar());
        return node;
      }
    }
    if (AtOp("=")) {
      auto node = Node::Internal("assign");
      node->Add(std::move(first));
      while (AtOp("=")) {
        node->AddLeaf(Take());
        node->Add(ParseTestListStar());
      }
      return node;
    }
    auto node = Node::Internal("expr_stmt");
    node->Add(std::move(first));
    return node;
  }

  // ---- targets ----
  NodePtr ParseTarget() { return ParseAtomExpr(); }

  NodePtr ParseTargetList() {
    auto list = Node::Internal("target_list");
    if (AtOp("(")) {  // tuple-target in parens
      Nested nested(*this);
      list->AddLeaf(Take());
      list->Add(ParseTargetList());
      list->AddLeaf(ExpectOp(")"));
      return list;
    }
    list->Add(ParseTarget());
    while (AtOp(",")) {
      list->AddLeaf(Take());
      if (AtKw("in") || AtOp("=") || At(TokenType::kNewline)) break;
      list->Add(ParseTarget());
    }
    if (list->children.size() == 1) return std::move(list->children[0]);
    return list;
  }

  // ---- expressions ----
  NodePtr ParseTestList() {
    NodePtr first = ParseTest();
    if (!AtOp(",")) return first;
    auto tuple = Node::Internal("tuple");
    tuple->Add(std::move(first));
    while (AtOp(",")) {
      tuple->AddLeaf(Take());
      if (EndsExpression()) break;
      tuple->Add(ParseTest());
    }
    return tuple;
  }

  /// Like ParseTestList but allows leading '*' items (assignment RHS).
  NodePtr ParseTestListStar() {
    NodePtr first = ParseTestStar();
    if (!AtOp(",")) return first;
    auto tuple = Node::Internal("tuple");
    tuple->Add(std::move(first));
    while (AtOp(",")) {
      tuple->AddLeaf(Take());
      if (EndsExpression()) break;
      tuple->Add(ParseTestStar());
    }
    return tuple;
  }

  NodePtr ParseTestStar() {
    if (AtOp("*")) {
      auto node = Node::Internal("star_expr");
      node->AddLeaf(Take());
      node->Add(ParseTest());
      return node;
    }
    return ParseTest();
  }

  bool EndsExpression() const {
    return At(TokenType::kNewline) || At(TokenType::kEnd) || AtOp(")") ||
           AtOp("]") || AtOp("}") || AtOp("=") || AtOp(":") || AtOp(";");
  }

  NodePtr ParseTest() {
    Nested nested(*this);
    if (AtKw("lambda")) return ParseLambda();
    NodePtr expr = ParseOrTest();
    if (AtKw("if")) {
      auto node = Node::Internal("ternary");
      node->Add(std::move(expr));
      node->AddLeaf(Take());
      node->Add(ParseOrTest());
      node->AddLeaf(ExpectKw("else"));
      node->Add(ParseTest());
      return node;
    }
    return expr;
  }

  NodePtr ParseLambda() {
    auto node = Node::Internal("lambda");
    node->AddLeaf(ExpectKw("lambda"));
    auto params = Node::Internal("params");
    bool first = true;
    while (!AtOp(":")) {
      if (!first) params->AddLeaf(ExpectOp(","));
      first = false;
      auto param = Node::Internal("param");
      if (AtOp("*") || AtOp("**")) param->AddLeaf(Take());
      param->AddLeaf(ExpectName());
      if (AtOp("=")) {
        param->AddLeaf(Take());
        param->Add(ParseTest());
      }
      params->Add(std::move(param));
    }
    node->Add(std::move(params));
    node->AddLeaf(ExpectOp(":"));
    node->Add(ParseTest());
    return node;
  }

  NodePtr ParseYieldExpr() {
    auto node = Node::Internal("yield_expr");
    node->AddLeaf(ExpectKw("yield"));
    if (AtKw("from")) {
      node->AddLeaf(Take());
      node->Add(ParseTest());
    } else if (!EndsExpression() && !AtOp(",")) {
      node->Add(ParseTestList());
    }
    return node;
  }

  NodePtr ParseOrTest() {
    NodePtr left = ParseAndTest();
    Nested chain(*this, /*deepen=*/false);
    while (AtKw("or")) {
      chain.Deepen();
      auto node = Node::Internal("or_expr");
      node->Add(std::move(left));
      node->AddLeaf(Take());
      node->Add(ParseAndTest());
      left = std::move(node);
    }
    return left;
  }

  NodePtr ParseAndTest() {
    NodePtr left = ParseNotTest();
    Nested chain(*this, /*deepen=*/false);
    while (AtKw("and")) {
      chain.Deepen();
      auto node = Node::Internal("and_expr");
      node->Add(std::move(left));
      node->AddLeaf(Take());
      node->Add(ParseNotTest());
      left = std::move(node);
    }
    return left;
  }

  NodePtr ParseNotTest() {
    if (AtKw("not")) {
      Nested nested(*this);
      auto node = Node::Internal("not_expr");
      node->AddLeaf(Take());
      node->Add(ParseNotTest());
      return node;
    }
    return ParseComparison();
  }

  bool AtCompOp() const {
    return AtOp("<") || AtOp(">") || AtOp("==") || AtOp("!=") || AtOp("<=") ||
           AtOp(">=") || AtKw("in") || AtKw("is") ||
           (AtKw("not") && Peek(1).IsKeyword("in"));
  }

  NodePtr ParseComparison() {
    NodePtr left = ParseBitOr();
    if (!AtCompOp()) return left;
    auto node = Node::Internal("comparison");
    node->Add(std::move(left));
    while (AtCompOp()) {
      if (AtKw("not")) {  // not in
        node->AddLeaf(Take());
        node->AddLeaf(ExpectKw("in"));
      } else if (AtKw("is")) {
        node->AddLeaf(Take());
        if (AtKw("not")) node->AddLeaf(Take());
      } else {
        node->AddLeaf(Take());
      }
      node->Add(ParseBitOr());
    }
    return node;
  }

  NodePtr ParseBinaryLevel(const std::vector<std::string_view>& ops,
                           NodePtr (Parser::*next)()) {
    NodePtr left = (this->*next)();
    Nested chain(*this, /*deepen=*/false);
    while (true) {
      bool matched = false;
      for (std::string_view op : ops) {
        if (AtOp(op)) {
          chain.Deepen();
          auto node = Node::Internal("bin_op");
          node->Add(std::move(left));
          node->AddLeaf(Take());
          node->Add((this->*next)());
          left = std::move(node);
          matched = true;
          break;
        }
      }
      if (!matched) return left;
    }
  }

  NodePtr ParseBitOr() { return ParseBinaryLevel({"|"}, &Parser::ParseBitXor); }
  NodePtr ParseBitXor() { return ParseBinaryLevel({"^"}, &Parser::ParseBitAnd); }
  NodePtr ParseBitAnd() { return ParseBinaryLevel({"&"}, &Parser::ParseShift); }
  NodePtr ParseShift() {
    return ParseBinaryLevel({"<<", ">>"}, &Parser::ParseArith);
  }
  NodePtr ParseArith() {
    return ParseBinaryLevel({"+", "-"}, &Parser::ParseTerm);
  }
  NodePtr ParseTerm() {
    return ParseBinaryLevel({"*", "/", "//", "%", "@"}, &Parser::ParseFactor);
  }

  NodePtr ParseFactor() {
    if (AtOp("+") || AtOp("-") || AtOp("~")) {
      Nested nested(*this);
      auto node = Node::Internal("unary_op");
      node->AddLeaf(Take());
      node->Add(ParseFactor());
      return node;
    }
    return ParsePower();
  }

  NodePtr ParsePower() {
    NodePtr base = ParseAwait();
    if (AtOp("**")) {
      Nested nested(*this);
      auto node = Node::Internal("power");
      node->Add(std::move(base));
      node->AddLeaf(Take());
      node->Add(ParseFactor());
      return node;
    }
    return base;
  }

  NodePtr ParseAwait() {
    if (AtKw("await")) {
      auto node = Node::Internal("await_expr");
      node->AddLeaf(Take());
      node->Add(ParseAtomExpr());
      return node;
    }
    return ParseAtomExpr();
  }

  NodePtr ParseAtomExpr() {
    NodePtr atom = ParseAtom();
    Nested chain(*this, /*deepen=*/false);
    while (AtOp("(") || AtOp("[") ||
           (AtOp(".") && Peek(1).Is(TokenType::kName))) {
      chain.Deepen();
      if (AtOp("(")) {
        auto call = Node::Internal("call");
        call->Add(std::move(atom));
        call->Add(ParseCallArgs());
        atom = std::move(call);
      } else if (AtOp("[")) {
        auto sub = Node::Internal("subscript");
        sub->Add(std::move(atom));
        sub->AddLeaf(Take());
        sub->Add(ParseSubscriptList());
        sub->AddLeaf(ExpectOp("]"));
        atom = std::move(sub);
      } else {
        auto attr = Node::Internal("attribute");
        attr->Add(std::move(atom));
        attr->AddLeaf(Take());
        attr->AddLeaf(Take());
        atom = std::move(attr);
      }
    }
    return atom;
  }

  NodePtr ParseCallArgs() {
    auto args = Node::Internal("args");
    args->AddLeaf(ExpectOp("("));
    bool first = true;
    while (!AtOp(")")) {
      if (!first) args->AddLeaf(ExpectOp(","));
      first = false;
      if (AtOp(")")) break;  // trailing comma
      if (AtOp("*") || AtOp("**")) {
        auto star = Node::Internal("star_arg");
        star->AddLeaf(Take());
        star->Add(ParseTest());
        args->Add(std::move(star));
        continue;
      }
      if (At(TokenType::kName) && Peek(1).IsOp("=")) {
        auto kw = Node::Internal("kwarg");
        kw->AddLeaf(Take());
        kw->AddLeaf(Take());
        kw->Add(ParseTest());
        args->Add(std::move(kw));
        continue;
      }
      NodePtr value = ParseTest();
      if (AtKw("for")) {  // generator expression argument
        auto comp = Node::Internal("comprehension");
        comp->Add(std::move(value));
        ParseCompClauses(*comp);
        args->Add(std::move(comp));
        continue;
      }
      args->Add(std::move(value));
    }
    args->AddLeaf(ExpectOp(")"));
    return args;
  }

  NodePtr ParseSubscriptList() {
    auto first = ParseSubscriptItem();
    if (!AtOp(",")) return first;
    auto tuple = Node::Internal("tuple");
    tuple->Add(std::move(first));
    while (AtOp(",")) {
      tuple->AddLeaf(Take());
      if (AtOp("]")) break;
      tuple->Add(ParseSubscriptItem());
    }
    return tuple;
  }

  NodePtr ParseSubscriptItem() {
    auto slice = Node::Internal("slice");
    bool is_slice = false;
    if (!AtOp(":")) {
      slice->Add(ParseTest());
    }
    if (AtOp(":")) {
      is_slice = true;
      slice->AddLeaf(Take());
      if (!AtOp(":") && !AtOp("]") && !AtOp(",")) slice->Add(ParseTest());
      if (AtOp(":")) {
        slice->AddLeaf(Take());
        if (!AtOp("]") && !AtOp(",")) slice->Add(ParseTest());
      }
    }
    if (!is_slice) return std::move(slice->children[0]);
    return slice;
  }

  void ParseCompClauses(Node& comp) {
    while (AtKw("for") || AtKw("if") || AtKw("async")) {
      if (AtKw("async")) {
        comp.AddLeaf(Take());
        continue;
      }
      if (AtKw("for")) {
        auto clause = Node::Internal("comp_for");
        clause->AddLeaf(Take());
        clause->Add(ParseTargetList());
        clause->AddLeaf(ExpectKw("in"));
        clause->Add(ParseOrTest());
        comp.Add(std::move(clause));
      } else {
        auto clause = Node::Internal("comp_if");
        clause->AddLeaf(Take());
        clause->Add(ParseOrTest());
        comp.Add(std::move(clause));
      }
    }
  }

  NodePtr ParseAtom() {
    if (At(TokenType::kName)) return Node::Leaf(Take());
    if (At(TokenType::kNumber)) return Node::Leaf(Take());
    if (At(TokenType::kString)) {
      // Adjacent string literals concatenate.
      NodePtr first = Node::Leaf(Take());
      if (!At(TokenType::kString)) return first;
      auto group = Node::Internal("string_group");
      group->Add(std::move(first));
      while (At(TokenType::kString)) group->AddLeaf(Take());
      return group;
    }
    if (AtKw("True") || AtKw("False") || AtKw("None")) {
      return Node::Leaf(Take());
    }
    if (AtKw("yield")) return ParseYieldExpr();
    if (AtKw("lambda")) return ParseLambda();
    if (AtOp("(")) return ParseParenAtom();
    if (AtOp("[")) return ParseListAtom();
    if (AtOp("{")) return ParseBraceAtom();
    if (AtOp("...")) return Node::Leaf(Take());
    Fail("expected expression");
  }

  NodePtr ParseParenAtom() {
    Token open = Take();
    if (AtOp(")")) {  // empty tuple
      auto tup = Node::Internal("tuple");
      tup->AddLeaf(std::move(open));
      tup->AddLeaf(Take());
      return tup;
    }
    NodePtr first = ParseTestStar();
    if (AtKw("for")) {  // generator expression
      auto comp = Node::Internal("comprehension");
      comp->AddLeaf(std::move(open));
      comp->Add(std::move(first));
      ParseCompClauses(*comp);
      comp->AddLeaf(ExpectOp(")"));
      return comp;
    }
    if (AtOp(",")) {  // tuple
      auto tup = Node::Internal("tuple");
      tup->AddLeaf(std::move(open));
      tup->Add(std::move(first));
      while (AtOp(",")) {
        tup->AddLeaf(Take());
        if (AtOp(")")) break;
        tup->Add(ParseTestStar());
      }
      tup->AddLeaf(ExpectOp(")"));
      return tup;
    }
    auto paren = Node::Internal("paren_expr");
    paren->AddLeaf(std::move(open));
    paren->Add(std::move(first));
    paren->AddLeaf(ExpectOp(")"));
    return paren;
  }

  NodePtr ParseListAtom() {
    auto list = Node::Internal("list");
    list->AddLeaf(ExpectOp("["));
    if (AtOp("]")) {
      list->AddLeaf(Take());
      return list;
    }
    NodePtr first = ParseTestStar();
    if (AtKw("for")) {
      auto comp = Node::Internal("list_comprehension");
      comp->AddLeaf(std::move(list->children[0]->token));
      comp->Add(std::move(first));
      ParseCompClauses(*comp);
      comp->AddLeaf(ExpectOp("]"));
      return comp;
    }
    list->Add(std::move(first));
    while (AtOp(",")) {
      list->AddLeaf(Take());
      if (AtOp("]")) break;
      list->Add(ParseTestStar());
    }
    list->AddLeaf(ExpectOp("]"));
    return list;
  }

  NodePtr ParseBraceAtom() {
    Token open = ExpectOp("{");
    if (AtOp("}")) {  // empty dict
      auto dict = Node::Internal("dict");
      dict->AddLeaf(std::move(open));
      dict->AddLeaf(Take());
      return dict;
    }
    if (AtOp("**")) return ParseDictRest(std::move(open), nullptr);
    NodePtr first = ParseTestStar();
    if (AtOp(":")) return ParseDictRest(std::move(open), std::move(first));
    // Set literal or set comprehension.
    if (AtKw("for")) {
      auto comp = Node::Internal("set_comprehension");
      comp->AddLeaf(std::move(open));
      comp->Add(std::move(first));
      ParseCompClauses(*comp);
      comp->AddLeaf(ExpectOp("}"));
      return comp;
    }
    auto set = Node::Internal("set");
    set->AddLeaf(std::move(open));
    set->Add(std::move(first));
    while (AtOp(",")) {
      set->AddLeaf(Take());
      if (AtOp("}")) break;
      set->Add(ParseTestStar());
    }
    set->AddLeaf(ExpectOp("}"));
    return set;
  }

  NodePtr ParseDictRest(Token open, NodePtr first_key) {
    auto dict = Node::Internal("dict");
    dict->AddLeaf(std::move(open));
    bool first = true;
    NodePtr pending_key = std::move(first_key);
    while (true) {
      if (!first && !pending_key) {
        if (!AtOp(",")) break;
        dict->AddLeaf(Take());
        if (AtOp("}")) break;
      }
      if (AtOp("**")) {
        auto star = Node::Internal("star_arg");
        star->AddLeaf(Take());
        star->Add(ParseTest());
        dict->Add(std::move(star));
        first = false;
        continue;
      }
      auto item = Node::Internal("dict_item");
      item->Add(pending_key ? std::move(pending_key) : ParseTest());
      pending_key = nullptr;
      item->AddLeaf(ExpectOp(":"));
      item->Add(ParseTest());
      if (first && AtKw("for")) {  // dict comprehension
        auto comp = Node::Internal("dict_comprehension");
        comp->Add(std::move(item));
        ParseCompClauses(*comp);
        comp->AddLeaf(ExpectOp("}"));
        // dict-> only held the open brace; move it in front.
        comp->children.insert(comp->children.begin(),
                              std::move(dict->children[0]));
        return comp;
      }
      dict->Add(std::move(item));
      first = false;
    }
    dict->AddLeaf(ExpectOp("}"));
    return dict;
  }

  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< current nesting, bounded by kMaxNesting
  bool lenient_;
};

Result<NodePtr> ParseTokens(std::string_view source,
                            const Result<std::vector<Token>>& tokens,
                            bool lenient) {
  if (!tokens.ok()) {
    if (!lenient) return tokens.status();
    // Lenient fallback for unlexable snippets: lex line by line, skipping
    // lines that still fail, and build flat fragment trees.
    auto module = Node::Internal("module");
    int line_no = 0;
    size_t start = 0;
    std::string_view rest = source;
    while (start <= rest.size()) {
      size_t nl = rest.find('\n', start);
      std::string_view line = rest.substr(
          start, nl == std::string_view::npos ? std::string_view::npos
                                              : nl - start);
      ++line_no;
      Result<std::vector<Token>> line_tokens = Lex(line);
      if (line_tokens.ok()) {
        auto frag = Node::Internal("fragment");
        for (Token& t : line_tokens.value()) {
          if (t.type == TokenType::kName || t.type == TokenType::kKeyword ||
              t.type == TokenType::kNumber || t.type == TokenType::kString ||
              t.type == TokenType::kOp) {
            t.line = line_no;
            frag->AddLeaf(std::move(t));
          }
        }
        if (!frag->children.empty()) module->Add(std::move(frag));
      }
      if (nl == std::string_view::npos) break;
      start = nl + 1;
    }
    if (module->children.empty()) {
      return Status::ParseError("snippet produced no tokens");
    }
    return Result<NodePtr>(std::move(module));
  }
  try {
    Parser parser(tokens.value(), lenient);
    NodePtr module = parser.ParseModule();
    if (lenient && module->children.empty()) {
      return Status::ParseError("snippet produced no statements");
    }
    return Result<NodePtr>(std::move(module));
  } catch (const ParseErrorEx& e) {
    return Status::ParseError(e.what());
  }
}

}  // namespace

Result<NodePtr> Parse(std::string_view source) {
  return ParseTokens(source, Lex(source), /*lenient=*/false);
}

Result<NodePtr> ParseLenient(std::string_view source) {
  return ParseLenient(source, Lex(source));
}

Result<NodePtr> ParseLenient(std::string_view source,
                             const Result<std::vector<Token>>& tokens) {
  return ParseTokens(source, tokens, /*lenient=*/true);
}

ParsedSnippet ParseSnippet(std::string_view source) {
  Result<std::vector<Token>> tokens = Lex(source);
  Result<NodePtr> tree = ParseLenient(source, tokens);
  return ParsedSnippet{std::move(tokens), std::move(tree)};
}

}  // namespace laminar::pycode
