// Reference implementation for the feature-extraction parity checks: the
// Aroma extractor as it was before it streamed its hashes. It builds every
// feature's string and hashes it whole, rebuilds each ancestor's label for
// every token, and fills a FeatureBag that FlatFeatures::From then
// flattens. The local-variable walk, the extractor, ExtractFeatures,
// FeatureBag::Norm and FlatFeatures::From are kept as they were but for
// names (Norm and From are free functions here).
// tests/feature_stream_test.cpp requires the production extractor and flat
// builder to equal these bit for bit.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hashing.hpp"
#include "spt/features.hpp"
#include "spt/spt.hpp"

namespace laminar::spt::feature_reference {

inline bool IsStringLiteral(const std::string& text) {
  if (text.empty()) return false;
  char c = text[0];
  if (c == '"' || c == '\'') return true;
  // prefixed strings: r"...", f'...'
  size_t i = 0;
  while (i < text.size() &&
         std::isalpha(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  return i > 0 && i < text.size() && (text[i] == '"' || text[i] == '\'');
}

inline bool LooksLikeIdentifier(const std::string& text) {
  if (text.empty()) return false;
  unsigned char c = static_cast<unsigned char>(text[0]);
  return std::isalpha(c) || c == '_';
}

/// Collects identifier tokens from the leading elements of `node` up to (but
/// not including) the first keyword token matching `stop`.
inline void CollectIdentifiersUntil(const SptNode& node, const char* stop,
                                    std::unordered_set<std::string>& out) {
  for (const SptElem& e : node.elems) {
    if (e.is_token) {
      if (e.is_keyword) {
        if (e.text == stop) return;
        continue;  // ignore commas/parens within target lists
      }
      if (LooksLikeIdentifier(e.text)) out.insert(e.text);
    } else if (e.child) {
      // Nested target (tuple target, subscript...). Only plain names bind
      // new variables; attribute/subscript targets reference existing ones,
      // but for generalization purposes treating them as locals is harmless
      // and matches Aroma's conservative behaviour.
      CollectIdentifiersUntil(*e.child, stop, out);
    }
  }
}

inline void CollectLocalsWalk(const SptNode& node,
                              std::unordered_set<std::string>& out) {
  const std::string& rule = node.rule;
  if (rule == "ann_assign") {
    // Node shape: target ':' type ['=' value]; only elems[0] binds.
    if (!node.elems.empty()) {
      const SptElem& e = node.elems[0];
      if (e.is_token && !e.is_keyword && LooksLikeIdentifier(e.text)) {
        out.insert(e.text);
      }
    }
  } else if (rule == "assign" || rule == "aug_assign") {
    // Node shape: target ('=' value)+ / target op value. Everything before
    // the last '='-like keyword element is a binding target.
    size_t last_assign_op = 0;
    for (size_t i = 0; i < node.elems.size(); ++i) {
      const SptElem& e = node.elems[i];
      if (e.is_token && e.is_keyword &&
          (e.text == "=" || (e.text.size() >= 2 && e.text.back() == '='))) {
        last_assign_op = i;
      }
    }
    for (size_t i = 0; i < last_assign_op; ++i) {
      const SptElem& e = node.elems[i];
      if (e.is_token && !e.is_keyword && LooksLikeIdentifier(e.text)) {
        out.insert(e.text);
      } else if (e.child &&
                 (e.child->rule == "tuple" || e.child->rule == "target_list")) {
        CollectIdentifiersUntil(*e.child, "\0", out);
      }
    }
  } else if (rule == "for_stmt" || rule == "comp_for") {
    bool in_target = false;
    for (const SptElem& e : node.elems) {
      if (e.is_token && e.is_keyword) {
        if (e.text == "for") {
          in_target = true;
          continue;
        }
        if (e.text == "in") break;
        continue;
      }
      if (!in_target) continue;
      if (e.is_token && LooksLikeIdentifier(e.text)) {
        out.insert(e.text);
      } else if (e.child) {
        CollectIdentifiersUntil(*e.child, "in", out);
      }
    }
  } else if (rule == "param") {
    for (const SptElem& e : node.elems) {
      if (e.is_token && !e.is_keyword && LooksLikeIdentifier(e.text)) {
        out.insert(e.text);
        break;  // only the parameter name, not default/annotation names
      }
    }
  } else if (rule == "with_item" || rule == "except_clause") {
    bool after_as = false;
    for (const SptElem& e : node.elems) {
      if (e.is_token && e.is_keyword && e.text == "as") {
        after_as = true;
        continue;
      }
      if (after_as && e.is_token && !e.is_keyword &&
          LooksLikeIdentifier(e.text)) {
        out.insert(e.text);
        break;
      }
    }
  }
  for (const SptElem& e : node.elems) {
    if (e.child) CollectLocalsWalk(*e.child, out);
  }
}

struct Ancestor {
  const SptNode* node;
  size_t child_index;  // index of the element we descended through
};

class Extractor {
 public:
  Extractor(const FeatureOptions& opts,
            std::unordered_set<std::string> locals)
      : opts_(opts), locals_(std::move(locals)) {}

  FeatureBag Run(const SptNode& root) {
    Walk(root);
    EmitSiblingAndUsageFeatures();
    return std::move(bag_);
  }

 private:
  struct TokenSite {
    std::string generalized;
    std::string original;
    int line;
    std::string parent_label;
  };

  std::string Generalize(const std::string& text) const {
    if (IsStringLiteral(text)) return "#STR";
    if (opts_.generalize_variables && locals_.contains(text)) return "#VAR";
    return text;
  }

  void Emit(const std::string& feature, int line) {
    uint64_t h = hashing::Fnv1a64(feature);
    bag_.Add(h);
    if (opts_.with_occurrences) bag_.occurrences.emplace_back(h, line);
    if (opts_.record_strings) bag_.strings.push_back(feature);
  }

  void Walk(const SptNode& node) {
    ancestors_.push_back({&node, 0});
    std::string label = node.Label();
    for (size_t i = 0; i < node.elems.size(); ++i) {
      const SptElem& e = node.elems[i];
      ancestors_.back().child_index = i;
      if (e.is_token) {
        if (!e.is_keyword) HandleToken(e, label);
      } else if (e.child) {
        Walk(*e.child);
      }
    }
    ancestors_.pop_back();
  }

  void HandleToken(const SptElem& token, const std::string& parent_label) {
    std::string gen = Generalize(token.text);
    // 1. Token feature.
    Emit("T:" + gen, token.line);
    // 2. Parent features for up to parent_levels ancestors.
    int levels = 0;
    for (auto it = ancestors_.rbegin();
         it != ancestors_.rend() && levels < opts_.parent_levels;
         ++it, ++levels) {
      Emit("P" + std::to_string(levels + 1) + ":" + gen + "|" +
               std::to_string(it->child_index) + "|" + it->node->Label(),
           token.line);
    }
    // Defer sibling + usage features until all tokens are known.
    sites_.push_back(TokenSite{gen, token.text, token.line, parent_label});
  }

  void EmitSiblingAndUsageFeatures() {
    // 3. Sibling features over consecutive non-keyword tokens.
    for (size_t i = 0; i + 1 < sites_.size(); ++i) {
      Emit("S:" + sites_[i].generalized + ">" + sites_[i + 1].generalized,
           sites_[i].line);
    }
    // 4. Variable-usage features: consecutive usages of the same local.
    std::unordered_map<std::string, const TokenSite*> last_use;
    for (const TokenSite& site : sites_) {
      if (!locals_.contains(site.original)) continue;
      auto [it, inserted] = last_use.try_emplace(site.original, &site);
      if (!inserted) {
        Emit("V:" + it->second->parent_label + ">" + site.parent_label,
             site.line);
        it->second = &site;
      }
    }
  }

  FeatureOptions opts_;
  std::unordered_set<std::string> locals_;
  std::vector<Ancestor> ancestors_;
  std::vector<TokenSite> sites_;
  FeatureBag bag_;
};

inline double Norm(const FeatureBag& bag) {
  double sum = 0;
  for (const auto& [h, c] : bag.counts) {
    sum += static_cast<double>(c) * static_cast<double>(c);
  }
  return std::sqrt(sum);
}

inline std::unordered_set<std::string> CollectLocalVariables(
    const SptNode& root) {
  std::unordered_set<std::string> out;
  out.insert("self");
  out.insert("cls");
  CollectLocalsWalk(root, out);
  return out;
}

inline FeatureBag ExtractFeatures(const SptNode& root,
                                  const FeatureOptions& opts) {
  std::unordered_set<std::string> locals;
  if (opts.generalize_variables) {
    locals = feature_reference::CollectLocalVariables(root);
  }
  Extractor extractor(opts, std::move(locals));
  return extractor.Run(root);
}

inline FlatFeatures From(const FeatureBag& bag) {
  FlatFeatures flat;
  flat.features.reserve(bag.counts.size());
  for (const auto& [hash, count] : bag.counts) {
    flat.features.push_back(FlatFeatures::Feature{hash, count});
  }
  std::sort(flat.features.begin(), flat.features.end(),
            [](const FlatFeatures::Feature& a, const FlatFeatures::Feature& b) {
              return a.hash < b.hash;
            });
  flat.occurrences.reserve(bag.occurrences.size());
  for (const auto& [hash, line] : bag.occurrences) {
    auto it = std::lower_bound(
        flat.features.begin(), flat.features.end(), hash,
        [](const FlatFeatures::Feature& f, uint64_t h) { return f.hash < h; });
    if (it == flat.features.end() || it->hash != hash) continue;
    flat.occurrences.push_back(FlatFeatures::Occurrence{
        line, static_cast<uint32_t>(it - flat.features.begin())});
  }
  std::sort(flat.occurrences.begin(), flat.occurrences.end(),
            [](const FlatFeatures::Occurrence& a,
               const FlatFeatures::Occurrence& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.feature < b.feature;
            });
  flat.total = bag.total;
  flat.norm = Norm(bag);
  return flat;
}

}  // namespace laminar::spt::feature_reference
