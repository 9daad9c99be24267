// CodeT5Sim — offline stand-in for the CodeT5 description-generation model
// (paper §IV-C and §VII-B).
//
// Laminar uses CodeT5 to auto-generate a natural-language description of a
// PE when the user did not supply one; descriptions feed both literal and
// semantic search. The simulator is a rule-based summarizer over the parse
// tree: docstrings, the class/function name split into words, detected API
// calls mapped to verb phrases, and salient identifiers. It reproduces the
// paper's Fig. 10 contrast directly: with kProcessMethodOnly it sees none of
// the class-level context (name, docstring, init fields, other methods) and
// produces the vague descriptions Laminar 1.0 suffered from; kFullClass
// produces specific ones.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "pycode/ast.hpp"

namespace laminar::embed {

enum class DescriptionContext {
  kProcessMethodOnly,  ///< Laminar 1.0 behaviour: only the _process() body
  kFullClass,          ///< Laminar 2.0 behaviour: the entire class definition
};

class CodeT5Sim {
 public:
  /// Generates a one-paragraph description of a PE class (or bare function).
  /// Never fails: unparseable input degrades to a generic sentence.
  std::string Summarize(std::string_view code, DescriptionContext context) const;
  /// Summarize(code, context) from `parsed`, which must be
  /// pycode::ParseLenient(code): a caller that parsed the snippet for other
  /// readers hands the tree over.
  std::string Summarize(const Result<pycode::NodePtr>& parsed,
                        DescriptionContext context) const;

  /// Generates a workflow description given the workflow name and the
  /// already-generated PE descriptions (paper §IV-C: workflows are described
  /// by synthesizing a class containing every PE's functions).
  std::string SummarizeWorkflow(std::string_view workflow_name,
                                const std::vector<std::string>& pe_descriptions) const;
};

}  // namespace laminar::embed
