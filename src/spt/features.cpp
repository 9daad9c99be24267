#include "spt/features.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <initializer_list>
#include <string_view>

#include "common/hashing.hpp"

namespace laminar::spt {
namespace {

bool IsStringLiteral(const std::string& text) {
  if (text.empty()) return false;
  char c = text[0];
  if (c == '"' || c == '\'') return true;
  // prefixed strings: r"...", f'...'
  size_t i = 0;
  while (i < text.size() && std::isalpha(static_cast<unsigned char>(text[i]))) ++i;
  return i > 0 && i < text.size() && (text[i] == '"' || text[i] == '\'');
}

bool LooksLikeIdentifier(const std::string& text) {
  if (text.empty()) return false;
  unsigned char c = static_cast<unsigned char>(text[0]);
  return std::isalpha(c) || c == '_';
}

/// Collects identifier tokens from the leading elements of `node` up to (but
/// not including) the first keyword token matching `stop`.
void CollectIdentifiersUntil(const SptNode& node, const char* stop,
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

void CollectLocalsWalk(const SptNode& node,
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

/// A feature's (hash, source line), in the order the extractor emits them.
using FeatureStream = std::vector<std::pair<uint64_t, int>>;

/// `value`'s decimal digits, written into `buf`: the digits std::to_string
/// gives, without a string.
std::string_view Digits(size_t value, std::array<char, 24>& buf) {
  char* end = std::to_chars(buf.data(), buf.data() + buf.size(), value).ptr;
  return {buf.data(), static_cast<size_t>(end - buf.data())};
}

/// Walks an SPT once and emits every feature as its FNV-1a hash and source
/// line. Each node's label is built once, on entry, and kept by index for
/// the parent and variable-usage features that name it. A feature's hash
/// is streamed over the pieces of its spelling, which equals hashing the
/// spelling (hashing::Fnv1a64), so no feature string is built unless
/// `strings` asks for the spellings.
class Extractor {
 public:
  Extractor(const FeatureOptions& opts, std::unordered_set<std::string> locals,
            std::vector<std::string>* strings)
      : opts_(opts), locals_(std::move(locals)), strings_(strings) {}

  FeatureStream Run(const SptNode& root) {
    Walk(root);
    EmitSiblingAndUsageFeatures();
    return std::move(stream_);
  }

 private:
  struct Ancestor {
    uint32_t label;      // index into labels_
    size_t child_index;  // index of the element we descended through
  };
  struct TokenSite {
    std::string_view generalized;
    const std::string* original;
    int line;
    uint32_t parent_label;  // index into labels_
  };

  std::string_view Generalize(const std::string& text) const {
    if (IsStringLiteral(text)) return "#STR";
    if (opts_.generalize_variables && locals_.contains(text)) return "#VAR";
    return text;
  }

  /// Emits the feature spelled by the concatenation of `pieces`.
  void Emit(std::initializer_list<std::string_view> pieces, int line) {
    uint64_t h = hashing::kFnv1a64Offset;
    for (std::string_view piece : pieces) h = hashing::Fnv1a64(piece, h);
    stream_.emplace_back(h, line);
    if (strings_ != nullptr) {
      std::string& feature = strings_->emplace_back();
      for (std::string_view piece : pieces) feature += piece;
    }
  }

  void Walk(const SptNode& node) {
    const auto label = static_cast<uint32_t>(labels_.size());
    labels_.push_back(node.Label());
    ancestors_.push_back({label, 0});
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

  void HandleToken(const SptElem& token, uint32_t parent_label) {
    const std::string_view gen = Generalize(token.text);
    // 1. Token feature.
    Emit({"T:", gen}, token.line);
    // 2. Parent features for up to parent_levels ancestors.
    std::array<char, 24> level_digits{};
    std::array<char, 24> index_digits{};
    int levels = 0;
    for (auto it = ancestors_.rbegin();
         it != ancestors_.rend() && levels < opts_.parent_levels;
         ++it, ++levels) {
      Emit({"P", Digits(static_cast<size_t>(levels) + 1, level_digits), ":",
            gen, "|", Digits(it->child_index, index_digits), "|",
            labels_[it->label]},
           token.line);
    }
    // Defer sibling + usage features until all tokens are known.
    sites_.push_back(TokenSite{gen, &token.text, token.line, parent_label});
  }

  void EmitSiblingAndUsageFeatures() {
    // 3. Sibling features over consecutive non-keyword tokens.
    for (size_t i = 0; i + 1 < sites_.size(); ++i) {
      Emit({"S:", sites_[i].generalized, ">", sites_[i + 1].generalized},
           sites_[i].line);
    }
    // 4. Variable-usage features: consecutive usages of the same local.
    std::unordered_map<std::string_view, const TokenSite*> last_use;
    for (const TokenSite& site : sites_) {
      if (!locals_.contains(*site.original)) continue;
      auto [it, inserted] = last_use.try_emplace(*site.original, &site);
      if (!inserted) {
        Emit({"V:", labels_[it->second->parent_label], ">",
              labels_[site.parent_label]},
             site.line);
        it->second = &site;
      }
    }
  }

  FeatureOptions opts_;
  std::unordered_set<std::string> locals_;
  std::vector<std::string>* strings_;
  std::vector<std::string> labels_;  ///< every walked node's, in walk order
  std::vector<Ancestor> ancestors_;
  std::vector<TokenSite> sites_;
  FeatureStream stream_;
};

FeatureStream Extract(const SptNode& root, const FeatureOptions& opts,
                      std::vector<std::string>* strings) {
  std::unordered_set<std::string> locals;
  if (opts.generalize_variables) locals = CollectLocalVariables(root);
  return Extractor(opts, std::move(locals), strings).Run(root);
}

}  // namespace

double FeatureBag::Norm() const {
  double sum = 0;
  for (const auto& [h, c] : counts) {
    sum += static_cast<double>(c) * static_cast<double>(c);
  }
  return std::sqrt(sum);
}

std::unordered_set<std::string> CollectLocalVariables(const SptNode& root) {
  std::unordered_set<std::string> out;
  out.insert("self");
  out.insert("cls");
  CollectLocalsWalk(root, out);
  return out;
}

FeatureBag ExtractFeatures(const SptNode& root, const FeatureOptions& opts) {
  FeatureBag bag;
  FeatureStream stream =
      Extract(root, opts, opts.record_strings ? &bag.strings : nullptr);
  for (const auto& [hash, line] : stream) bag.Add(hash);
  if (opts.with_occurrences) bag.occurrences = std::move(stream);
  return bag;
}

FlatFeatures ExtractFlatFeatures(const SptNode& root,
                                 const FeatureOptions& opts) {
  FeatureStream stream = Extract(root, opts, nullptr);
  FlatFeatures flat;
  flat.total = stream.size();
  // Occurrences are placed in (line, feature) order by a counting sort on
  // the line: next[l] is where the next occurrence on line `first + l`
  // goes. Lines lie within the source's line span, so this is linear in
  // the input.
  std::vector<uint32_t> next;
  int first = 0;
  if (opts.with_occurrences && !stream.empty()) {
    const auto [lo, hi] = std::minmax_element(
        stream.begin(), stream.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    first = lo->second;
    next.assign(static_cast<size_t>(int64_t{hi->second} - first) + 1, 0);
    for (const auto& [hash, line] : stream) ++next[line - first];
    uint32_t offset = 0;
    for (uint32_t& slot : next) {
      const uint32_t on_line = slot;
      slot = offset;
      offset += on_line;
    }
    flat.occurrences.resize(stream.size());
  }
  // Sorted by hash, the stream lists each feature's occurrences as one
  // run: the runs are `features`, in ascending hash order. Visiting them in
  // that order fills each line's occurrences in feature order. Both vectors
  // hold exactly their size, since the index keeps them for the document's
  // lifetime.
  std::sort(stream.begin(), stream.end());
  size_t distinct = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == 0 || stream[i].first != stream[i - 1].first) ++distinct;
  }
  flat.features.reserve(distinct);
  for (size_t i = 0; i < stream.size(); ++i) {
    const auto& [hash, line] = stream[i];
    if (i == 0 || hash != stream[i - 1].first) {
      flat.features.push_back(FlatFeatures::Feature{hash, 0});
    }
    ++flat.features.back().count;
    if (opts.with_occurrences) {
      flat.occurrences[next[line - first]++] = FlatFeatures::Occurrence{
          line, static_cast<uint32_t>(flat.features.size() - 1)};
    }
  }
  // Integer squares summed in double are exact in any order, so this is
  // FeatureBag::Norm() of the same counts.
  double sum = 0;
  for (const FlatFeatures::Feature& f : flat.features) {
    sum += static_cast<double>(f.count) * static_cast<double>(f.count);
  }
  flat.norm = std::sqrt(sum);
  return flat;
}

double OverlapScore(const FeatureBag& a, const FeatureBag& b) {
  const FeatureBag& small = a.counts.size() <= b.counts.size() ? a : b;
  const FeatureBag& large = a.counts.size() <= b.counts.size() ? b : a;
  double score = 0;
  for (const auto& [h, c] : small.counts) {
    auto it = large.counts.find(h);
    if (it != large.counts.end()) {
      score += static_cast<double>(std::min(c, it->second));
    }
  }
  return score;
}

double CosineSimilarity(const FeatureBag& a, const FeatureBag& b) {
  if (a.counts.empty() || b.counts.empty()) return 0.0;
  const FeatureBag& small = a.counts.size() <= b.counts.size() ? a : b;
  const FeatureBag& large = a.counts.size() <= b.counts.size() ? b : a;
  double dot = 0;
  for (const auto& [h, c] : small.counts) {
    auto it = large.counts.find(h);
    if (it != large.counts.end()) {
      dot += static_cast<double>(c) * static_cast<double>(it->second);
    }
  }
  double denom = a.Norm() * b.Norm();
  return denom > 0 ? dot / denom : 0.0;
}

double ContainmentScore(const FeatureBag& query, const FeatureBag& candidate) {
  if (query.total == 0) return 0.0;
  return OverlapScore(query, candidate) / static_cast<double>(query.total);
}

double JaccardSimilarity(const FeatureBag& a, const FeatureBag& b) {
  double inter = OverlapScore(a, b);
  double uni = static_cast<double>(a.total + b.total) - inter;
  return uni > 0 ? inter / uni : 0.0;
}

FlatFeatures FlatFeatures::From(const FeatureBag& bag) {
  FlatFeatures flat;
  flat.features.reserve(bag.counts.size());
  for (const auto& [hash, count] : bag.counts) {
    flat.features.push_back(Feature{hash, count});
  }
  std::sort(flat.features.begin(), flat.features.end(),
            [](const Feature& a, const Feature& b) { return a.hash < b.hash; });
  flat.occurrences.reserve(bag.occurrences.size());
  for (const auto& [hash, line] : bag.occurrences) {
    auto it = std::lower_bound(
        flat.features.begin(), flat.features.end(), hash,
        [](const Feature& f, uint64_t h) { return f.hash < h; });
    if (it == flat.features.end() || it->hash != hash) continue;
    flat.occurrences.push_back(Occurrence{
        line, static_cast<uint32_t>(it - flat.features.begin())});
  }
  std::sort(flat.occurrences.begin(), flat.occurrences.end(),
            [](const Occurrence& a, const Occurrence& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.feature < b.feature;
            });
  flat.total = bag.total;
  flat.norm = bag.Norm();
  return flat;
}

uint64_t OverlapCount(const FlatFeatures& a, const FlatFeatures& b) {
  uint64_t sum = 0;
  auto x = a.features.begin();
  auto y = b.features.begin();
  while (x != a.features.end() && y != b.features.end()) {
    if (x->hash < y->hash) {
      ++x;
    } else if (y->hash < x->hash) {
      ++y;
    } else {
      sum += std::min(x->count, y->count);
      ++x;
      ++y;
    }
  }
  return sum;
}

double JaccardSimilarity(const FlatFeatures& a, const FlatFeatures& b) {
  const double inter = static_cast<double>(OverlapCount(a, b));
  const double uni = static_cast<double>(a.total + b.total) - inter;
  return uni > 0 ? inter / uni : 0.0;
}

}  // namespace laminar::spt
