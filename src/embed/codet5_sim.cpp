#include "embed/codet5_sim.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <unordered_set>

#include "common/strings.hpp"
#include "pycode/parser.hpp"

namespace laminar::embed {
namespace {

using pycode::Node;
using pycode::TokenType;

struct VerbRule {
  std::string_view api;
  std::string_view phrase;
};

// Ordered so that more specific phrases win the (stable) first-seen order.
constexpr std::array<VerbRule, 38> kVerbRules = {{
    {"append", "accumulates items into a list"},
    {"sum", "computes a sum"},
    {"mean", "computes an average"},
    {"average", "computes an average"},
    {"median", "computes a median"},
    {"max", "finds the maximum"},
    {"min", "finds the minimum"},
    {"sorted", "sorts data"},
    {"sort", "sorts data"},
    {"open", "opens a file"},
    {"read", "reads data"},
    {"readline", "reads lines"},
    {"write", "emits output records"},
    {"split", "splits text into parts"},
    {"join", "joins strings together"},
    {"lower", "normalizes text case"},
    {"upper", "normalizes text case"},
    {"strip", "trims whitespace"},
    {"replace", "replaces substrings"},
    {"randint", "generates random numbers"},
    {"random", "generates random numbers"},
    {"uniform", "draws random samples"},
    {"range", "iterates over a numeric range"},
    {"print", "prints results"},
    {"len", "measures lengths"},
    {"sqrt", "computes square roots"},
    {"log", "computes logarithms"},
    {"exp", "computes exponentials"},
    {"filter", "filters items"},
    {"map", "transforms items"},
    {"zip", "pairs sequences"},
    {"enumerate", "enumerates items"},
    {"abs", "takes absolute values"},
    {"round", "rounds values"},
    {"count", "counts occurrences"},
    {"get", "looks up dictionary values"},
    {"items", "iterates over a dictionary"},
    {"isdigit", "validates digits"},
}};

bool IsGenericIdentifier(const std::string& word) {
  static const std::unordered_set<std::string> kGeneric = {
      "self",  "cls",   "init",  "process", "args", "kwargs", "data",
      "input", "inputs", "output", "outputs", "value", "item", "result",
      "pe",    "def",   "none",  "true",   "false", "return", "num",
      "val",   "tmp",   "obj",   "arg",    "res",   "elem",   "name"};
  return kGeneric.contains(word) || word.size() <= 1;
}

std::string StripQuotes(const std::string& literal) {
  std::string s = literal;
  // Drop prefix letters (r/b/f/u).
  size_t i = 0;
  while (i < s.size() && s[i] != '"' && s[i] != '\'') ++i;
  s = s.substr(i);
  for (std::string_view q : {"\"\"\"", "'''", "\"", "'"}) {
    if (strings::StartsWith(s, q) && strings::EndsWith(s, q) &&
        s.size() >= 2 * q.size()) {
      return std::string(strings::Trim(s.substr(q.size(), s.size() - 2 * q.size())));
    }
  }
  return s;
}

std::string FirstSentence(const std::string& text) {
  size_t dot = text.find('.');
  std::string first =
      dot == std::string::npos ? text : text.substr(0, dot + 1);
  // Collapse internal newlines from triple-quoted docstrings.
  return strings::ReplaceAll(strings::ReplaceAll(first, "\n", " "), "  ", " ");
}

/// Finds the first descendant with the given rule kind.
const Node* FindKind(const Node& node, std::string_view kind) {
  if (!node.leaf && node.kind == kind) return &node;
  for (const auto& c : node.children) {
    if (const Node* found = FindKind(*c, kind)) return found;
  }
  return nullptr;
}

/// The NAME leaf following the 'def'/'class' keyword.
std::string DeclaredName(const Node& def_node) {
  bool saw_kw = false;
  for (const auto& c : def_node.children) {
    if (c->leaf && c->token.type == TokenType::kKeyword &&
        (c->token.text == "def" || c->token.text == "class")) {
      saw_kw = true;
      continue;
    }
    if (saw_kw && c->leaf && c->token.type == TokenType::kName) {
      return c->token.text;
    }
  }
  return {};
}

/// First docstring in a def/class suite: leading string expression.
std::string Docstring(const Node& def_node) {
  const Node* suite = nullptr;
  for (const auto& c : def_node.children) {
    if (!c->leaf && c->kind == "suite") {
      suite = c.get();
      break;
    }
  }
  if (suite == nullptr || suite->children.empty()) return {};
  const Node* first = suite->children.front().get();
  if (first->leaf && first->token.type == TokenType::kString) {
    return StripQuotes(first->token.text);
  }
  if (!first->leaf && first->kind == "expr_stmt" && !first->children.empty()) {
    const Node* inner = first->children.front().get();
    if (inner->leaf && inner->token.type == TokenType::kString) {
      return StripQuotes(inner->token.text);
    }
  }
  return {};
}

/// Direct func_def children of a class suite (not nested functions).
std::vector<const Node*> ClassMethods(const Node& class_def) {
  std::vector<const Node*> methods;
  for (const auto& c : class_def.children) {
    if (c->leaf || c->kind != "suite") continue;
    for (const auto& stmt : c->children) {
      if (!stmt->leaf && stmt->kind == "func_def") {
        methods.push_back(stmt.get());
      } else if (!stmt->leaf && stmt->kind == "decorated") {
        for (const auto& inner : stmt->children) {
          if (!inner->leaf && inner->kind == "func_def") {
            methods.push_back(inner.get());
          }
        }
      }
    }
  }
  return methods;
}

/// Names invoked as calls anywhere in the subtree, in first-seen order.
void CollectCalls(const Node& node, std::vector<std::string>& out,
                  std::set<std::string>& seen) {
  if (!node.leaf && node.kind == "call" && !node.children.empty()) {
    const Node* callee = node.children.front().get();
    std::string name;
    if (callee->leaf && callee->token.type == TokenType::kName) {
      name = callee->token.text;
    } else if (!callee->leaf && callee->kind == "attribute" &&
               !callee->children.empty()) {
      const Node* last = callee->children.back().get();
      if (last->leaf && last->token.type == TokenType::kName) {
        name = last->token.text;
      }
    }
    if (!name.empty() && seen.insert(name).second) out.push_back(name);
  }
  for (const auto& c : node.children) CollectCalls(*c, out, seen);
}

/// Local variable names of the scope: parameters, assignment/loop targets.
/// A summarizer must not surface these — they are arbitrary spellings, not
/// topic words.
void CollectLocalNames(const Node& node, std::set<std::string>& out) {
  if (!node.leaf) {
    if (node.kind == "param") {
      for (const auto& c : node.children) {
        if (c->leaf && c->token.type == TokenType::kName) {
          out.insert(c->token.text);
          break;
        }
      }
    } else if (node.kind == "assign" || node.kind == "aug_assign" ||
               node.kind == "ann_assign") {
      // Leading target expression: collect its plain names.
      if (!node.children.empty()) {
        node.children[0]->Visit([&](const Node& n) {
          if (n.leaf && n.token.type == TokenType::kName) {
            out.insert(n.token.text);
          }
        });
      }
    } else if (node.kind == "for_stmt" || node.kind == "comp_for") {
      // Names between 'for' and 'in'.
      bool in_target = false;
      for (const auto& c : node.children) {
        if (c->leaf && c->token.IsKeyword("for")) {
          in_target = true;
          continue;
        }
        if (c->leaf && c->token.IsKeyword("in")) break;
        if (!in_target) continue;
        c->Visit([&](const Node& n) {
          if (n.leaf && n.token.type == TokenType::kName) {
            out.insert(n.token.text);
          }
        });
      }
    }
  }
  for (const auto& c : node.children) CollectLocalNames(*c, out);
}

/// Identifier words (split camel/snake) ranked by frequency; generic words
/// and local-variable spellings removed. Gives the summary its topical
/// vocabulary (API names, class/method words, field names).
std::vector<std::string> SalientWords(const Node& node, size_t limit) {
  std::set<std::string> locals;
  CollectLocalNames(node, locals);
  std::map<std::string, int> freq;
  std::vector<std::string> order;
  node.Visit([&](const Node& n) {
    if (!n.leaf || n.token.type != TokenType::kName) return;
    if (locals.contains(n.token.text)) return;
    for (const std::string& w : strings::SplitIdentifier(n.token.text)) {
      if (IsGenericIdentifier(w)) continue;
      if (freq[w]++ == 0) order.push_back(w);
    }
  });
  std::stable_sort(order.begin(), order.end(),
                   [&](const std::string& a, const std::string& b) {
                     return freq[a] > freq[b];
                   });
  if (order.size() > limit) order.resize(limit);
  return order;
}

std::vector<std::string> VerbPhrases(const Node& scope, size_t limit) {
  std::vector<std::string> calls;
  std::set<std::string> seen;
  CollectCalls(scope, calls, seen);
  std::vector<std::string> phrases;
  std::set<std::string_view> used;
  for (const std::string& call : calls) {
    for (const VerbRule& rule : kVerbRules) {
      if (call == rule.api && used.insert(rule.phrase).second) {
        phrases.emplace_back(rule.phrase);
        break;
      }
    }
    if (phrases.size() >= limit) break;
  }
  // Structural verbs when nothing API-specific surfaced.
  if (phrases.empty()) {
    if (FindKind(scope, "for_stmt") || FindKind(scope, "while_stmt")) {
      phrases.emplace_back("iterates over its input stream");
    }
    if (FindKind(scope, "if_stmt")) {
      phrases.emplace_back("applies a conditional rule");
    }
  }
  return phrases;
}

std::string JoinPhrases(const std::vector<std::string>& phrases) {
  if (phrases.empty()) return {};
  if (phrases.size() == 1) return phrases[0];
  std::string out;
  for (size_t i = 0; i < phrases.size(); ++i) {
    if (i) out += i + 1 == phrases.size() ? " and " : ", ";
    out += phrases[i];
  }
  return out;
}

const Node* FindProcessMethod(const Node& root) {
  const Node* cls = FindKind(root, "class_def");
  std::vector<const Node*> methods;
  if (cls != nullptr) {
    methods = ClassMethods(*cls);
  } else if (const Node* fn = FindKind(root, "func_def")) {
    methods.push_back(fn);
  }
  const Node* fallback = nullptr;
  for (const Node* m : methods) {
    std::string name = DeclaredName(*m);
    if (name == "_process" || name == "process") return m;
    if (name != "__init__" && fallback == nullptr) fallback = m;
  }
  return fallback != nullptr ? fallback
                             : (methods.empty() ? nullptr : methods.front());
}

std::string TitleWords(const std::string& identifier) {
  return strings::Join(strings::SplitIdentifier(identifier), " ");
}

}  // namespace

std::string CodeT5Sim::Summarize(std::string_view code,
                                 DescriptionContext context) const {
  return Summarize(pycode::ParseLenient(code), context);
}

std::string CodeT5Sim::Summarize(const Result<pycode::NodePtr>& parsed,
                                 DescriptionContext context) const {
  if (!parsed.ok()) return "A processing element.";
  const Node& root = *parsed.value();

  if (context == DescriptionContext::kProcessMethodOnly) {
    // Laminar 1.0: only the body of _process() is visible to the model.
    const Node* method = FindProcessMethod(root);
    const Node& scope = method != nullptr ? *method : root;
    std::string doc = method != nullptr ? Docstring(*method) : std::string();
    std::vector<std::string> phrases = VerbPhrases(scope, 2);
    std::string out;
    if (!doc.empty()) {
      out = FirstSentence(doc);
    } else if (!phrases.empty()) {
      out = "A function that " + JoinPhrases(phrases) + ".";
    } else {
      out = "Processes an input and produces an output.";
    }
    return out;
  }

  // Laminar 2.0: full class context.
  const Node* cls = FindKind(root, "class_def");
  std::string out;
  if (cls != nullptr) {
    std::string name = DeclaredName(*cls);
    if (!name.empty()) out += TitleWords(name) + " processing element.";
    std::string doc = Docstring(*cls);
    if (!doc.empty()) {
      if (!out.empty()) out += ' ';
      out += FirstSentence(doc);
    }
    std::vector<std::string> method_docs;
    for (const Node* m : ClassMethods(*cls)) {
      std::string mdoc = Docstring(*m);
      if (!mdoc.empty()) method_docs.push_back(FirstSentence(mdoc));
    }
    for (const std::string& mdoc : method_docs) {
      out += ' ';
      out += mdoc;
    }
    std::vector<std::string> phrases = VerbPhrases(*cls, 4);
    if (!phrases.empty()) {
      out += " It " + JoinPhrases(phrases) + ".";
    }
    std::vector<std::string> topics = SalientWords(*cls, 5);
    if (!topics.empty()) {
      out += " Related to " + strings::Join(topics, ", ") + ".";
    }
  } else {
    // Bare function converted to a PE.
    const Node* fn = FindKind(root, "func_def");
    std::string name = fn != nullptr ? DeclaredName(*fn) : std::string();
    if (!name.empty()) out += TitleWords(name) + " function.";
    std::string doc = fn != nullptr ? Docstring(*fn) : std::string();
    if (!doc.empty()) out += ' ' + FirstSentence(doc);
    std::vector<std::string> phrases = VerbPhrases(root, 4);
    if (!phrases.empty()) out += " It " + JoinPhrases(phrases) + ".";
    std::vector<std::string> topics = SalientWords(root, 5);
    if (!topics.empty()) out += " Related to " + strings::Join(topics, ", ") + ".";
  }
  std::string_view trimmed = strings::Trim(out);
  return trimmed.empty() ? "A processing element." : std::string(trimmed);
}

std::string CodeT5Sim::SummarizeWorkflow(
    std::string_view workflow_name,
    const std::vector<std::string>& pe_descriptions) const {
  std::string out = TitleWords(std::string(workflow_name)) + " workflow.";
  if (!pe_descriptions.empty()) {
    out += " It connects " + std::to_string(pe_descriptions.size()) +
           " processing elements:";
    for (const std::string& d : pe_descriptions) {
      out += ' ';
      out += FirstSentence(d);
    }
  }
  return out;
}

}  // namespace laminar::embed
