// Reference implementations for the sparse-embedding parity checks: the
// dense pipeline the server ran before every path carried an
// embed::SparseVector. The hashed encoders accumulating into a dense
// 4,096-float array, L2Normalize over every dimension, UnixcoderSim and
// ReaccSim's term generation, ToJson/FromJson over the dense vector, and
// PostingsIndex normalizing rows and queries into dense copies — each kept
// as it was but for names and the /stats and telemetry parts the parity
// checks do not read. tests/sparse_embedding_test.cpp requires the
// production paths to equal these bit for bit, with no tolerance.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hashing.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/value.hpp"
#include "embed/embedding.hpp"
#include "embed/reacc_sim.hpp"
#include "embed/unixcoder_sim.hpp"
#include "pycode/lexer.hpp"

namespace laminar::embed::reference {

inline float Norm(std::span<const float> a) {
  float sum = 0.0f;
  for (float x : a) sum += x * x;
  return std::sqrt(sum);
}

inline void L2Normalize(Vector& v) {
  float n = Norm(v);
  if (n <= 0.0f) return;
  for (float& x : v) x /= n;
}

class DenseHashedEncoder {
 public:
  DenseHashedEncoder(size_t dims, uint64_t seed)
      : dims_(dims), seed_(seed), acc_(dims, 0.0f) {}

  void Add(std::string_view term, float weight) {
    uint64_t h = hashing::Fnv1a64(term, seed_);
    uint64_t mixed = hashing::SplitMix64(h);
    size_t dim = static_cast<size_t>(mixed % dims_);
    float sign = (mixed >> 63) != 0 ? 1.0f : -1.0f;
    acc_[dim] += sign * weight;
  }

  Vector Finish() {
    Vector out(dims_, 0.0f);
    out.swap(acc_);
    L2Normalize(out);
    return out;
  }

 private:
  size_t dims_;
  uint64_t seed_;
  Vector acc_;
};

namespace detail {

constexpr uint64_t kTextSpaceSeed = 0x756e6978636f6465ULL;  // "unixcode"
constexpr uint64_t kCodeSpaceSeed = 0x7265616363707932ULL;  // "reaccpy2"

inline bool IsStopword(std::string_view w) {
  static constexpr std::array<std::string_view, 32> kStop = {
      "a",   "an",  "the", "of",  "to",  "in",   "on",   "for",
      "and", "or",  "is",  "are", "be",  "that", "this", "it",
      "with", "as", "by",  "from", "at", "its",  "into", "if",
      "pe",  "pes", "processing", "element", "elements", "class",
      "function", "related"};
  return std::find(kStop.begin(), kStop.end(), w) != kStop.end();
}

inline std::string StemLite(const std::string& w) {
  auto ends = [&](std::string_view suffix) {
    return w.size() > suffix.size() + 2 &&
           w.compare(w.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends("ies")) return w.substr(0, w.size() - 3) + "y";
  if (ends("ions")) return w.substr(0, w.size() - 4);
  if (ends("ion")) return w.substr(0, w.size() - 3);
  if (ends("ing")) return w.substr(0, w.size() - 3);
  if (ends("ed")) return w.substr(0, w.size() - 2);
  if (ends("es")) return w.substr(0, w.size() - 2);
  if (ends("s")) return w.substr(0, w.size() - 1);
  return w;
}

inline std::vector<std::string> CodeTokens(std::string_view code) {
  Result<std::vector<pycode::Token>> lexed = pycode::Lex(code);
  std::vector<std::string> tokens;
  if (lexed.ok()) {
    for (const pycode::Token& t : lexed.value()) {
      switch (t.type) {
        case pycode::TokenType::kName:
        case pycode::TokenType::kKeyword:
        case pycode::TokenType::kNumber:
        case pycode::TokenType::kString:
        case pycode::TokenType::kOp:
          tokens.push_back(t.text);
          break;
        default:
          break;
      }
    }
    return tokens;
  }
  return strings::SplitWhitespace(code);
}

}  // namespace detail

/// UnixcoderSim::EncodeText as a dense accumulation.
inline Vector EncodeText(std::string_view text,
                         const UnixcoderConfig& config = {}) {
  using detail::IsStopword;
  DenseHashedEncoder enc(config.dims, detail::kTextSpaceSeed);
  std::vector<std::string> words = strings::WordTokens(text);
  for (size_t i = 0; i < words.size(); ++i) {
    const std::string& w = words[i];
    float weight =
        IsStopword(w) ? config.word_weight * config.stopword_weight
                      : config.word_weight;
    enc.Add("w:" + w, weight);
    if (!IsStopword(w)) {
      enc.Add("s:" + detail::StemLite(w), 0.8f * weight);
    }
    if (i + 1 < words.size()) {
      enc.Add("b:" + w + "_" + words[i + 1], config.bigram_weight);
    }
    if (w.size() >= 3 && !IsStopword(w)) {
      for (size_t j = 0; j + 3 <= w.size(); ++j) {
        enc.Add("t:" + w.substr(j, 3), config.trigram_weight);
      }
    }
  }
  return enc.Finish();
}

/// ReaccSim::EncodeCode as a dense accumulation.
inline Vector EncodeCode(std::string_view code,
                         const ReaccConfig& config = {}) {
  DenseHashedEncoder enc(config.dims, detail::kCodeSpaceSeed);
  std::vector<std::string> tokens = detail::CodeTokens(code);
  for (const std::string& t : tokens) {
    enc.Add("u:" + t, config.unigram_weight);
  }
  int n = config.ngram;
  if (n > 1) {
    for (size_t i = 0; i + static_cast<size_t>(n) <= tokens.size(); ++i) {
      std::string gram = "g:";
      for (int j = 0; j < n; ++j) {
        gram += tokens[i + static_cast<size_t>(j)];
        gram += '\x1f';
      }
      enc.Add(gram, config.ngram_weight);
    }
  }
  return enc.Finish();
}

inline std::string ToJson(const Vector& v) {
  size_t nonzero = 0;
  for (float x : v) nonzero += std::bit_cast<uint32_t>(x) != 0;
  std::string out;
  out.reserve(24 + nonzero * 24);
  char digits[24];
  out += "{\"dims\":";
  out.append(digits,
             std::to_chars(digits, digits + sizeof digits, v.size()).ptr);
  out += ",\"nz\":[";
  bool first = true;
  for (size_t i = 0; i < v.size(); ++i) {
    if (std::bit_cast<uint32_t>(v[i]) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    out.append(digits, std::to_chars(digits, digits + sizeof digits, i).ptr);
    out += ',';
    NumberInto(out, static_cast<double>(v[i]));
    out += ']';
  }
  out += "]}";
  return out;
}

namespace detail {

constexpr int64_t kMaxSparseDims = int64_t{1} << 20;

inline Vector FromDense(const Value::Array& values) {
  Vector out;
  out.reserve(values.size());
  for (const Value& x : values) {
    if (!x.is_number()) return {};
    out.push_back(static_cast<float>(x.as_double()));
  }
  return out;
}

inline Vector FromSparse(const Value::Object& object) {
  const Value* dims = object.Find("dims");
  const Value* nz = object.Find("nz");
  if (object.size() != 2 || dims == nullptr || nz == nullptr) return {};
  if (!dims->is_int() || dims->as_int() < 0 ||
      dims->as_int() > kMaxSparseDims || !nz->is_array()) {
    return {};
  }
  Vector out(static_cast<size_t>(dims->as_int()), 0.0f);
  int64_t previous = -1;
  for (const Value& pair : nz->as_array()) {
    if (!pair.is_array() || pair.size() != 2) return {};
    const Value& index = pair.as_array()[0];
    const Value& weight = pair.as_array()[1];
    if (!index.is_int() || index.as_int() <= previous ||
        index.as_int() >= dims->as_int() || !weight.is_number()) {
      return {};
    }
    previous = index.as_int();
    out[static_cast<size_t>(previous)] = static_cast<float>(weight.as_double());
  }
  return out;
}

}  // namespace detail

inline Vector FromJson(std::string_view json_text) {
  Result<Value> parsed = json::Parse(json_text);
  if (!parsed.ok()) return {};
  if (parsed->is_object()) return detail::FromSparse(parsed->as_object());
  if (parsed->is_array()) return detail::FromDense(parsed->as_array());
  return {};
}

/// search::PostingsIndex over dense rows and queries.
class DensePostingsIndex {
 public:
  struct Hit {
    int64_t id = 0;
    double score = 0.0;
  };

  explicit DensePostingsIndex(size_t dims) : dims_(dims) {}

  void Upsert(int64_t id, std::span<const float> embedding) {
    Remove(id);
    uint32_t slot = 0;
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(slot_ids_.size());
      slot_ids_.push_back(id);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slot_ids_[slot] = id;
    }
    Row row{slot, {}};
    std::vector<float> normalized;
    const std::span<const float> w = Normalized(embedding, normalized);
    for (size_t d = 0; d < w.size(); ++d) {
      if (w[d] == 0.0f) continue;
      postings_[static_cast<uint32_t>(d)].push_back(Posting{slot, w[d]});
      row.dims.push_back(static_cast<uint32_t>(d));
    }
    rows_.emplace(id, std::move(row));
  }

  bool Remove(int64_t id) {
    auto it = rows_.find(id);
    if (it == rows_.end()) return false;
    const uint32_t slot = it->second.slot;
    for (uint32_t d : it->second.dims) {
      auto pit = postings_.find(d);
      if (pit == postings_.end()) continue;
      std::vector<Posting>& list = pit->second;
      auto pos =
          std::find_if(list.begin(), list.end(),
                       [slot](const Posting& p) { return p.slot == slot; });
      if (pos == list.end()) continue;
      *pos = list.back();
      list.pop_back();
      if (list.empty()) postings_.erase(pit);
    }
    free_slots_.push_back(slot);
    rows_.erase(it);
    return true;
  }

  size_t size() const { return rows_.size(); }

  std::vector<Hit> TopK(std::span<const float> query, size_t k) const {
    if (k == 0 || rows_.empty()) return {};
    std::vector<double> score(slot_ids_.size(), 0.0);
    std::vector<uint8_t> seen(slot_ids_.size(), 0);
    std::vector<uint32_t> touched;
    std::vector<float> normalized;
    const std::span<const float> q = Normalized(query, normalized);
    for (size_t d = 0; d < q.size(); ++d) {
      const double qd = q[d];
      if (qd == 0.0) continue;
      auto pit = postings_.find(static_cast<uint32_t>(d));
      if (pit == postings_.end()) continue;
      for (const Posting& p : pit->second) {
        if (seen[p.slot] == 0) {
          seen[p.slot] = 1;
          touched.push_back(p.slot);
        }
        score[p.slot] += qd * static_cast<double>(p.weight);
      }
    }
    std::vector<Hit> top;
    top.reserve(std::min(k, rows_.size()));
    for (uint32_t slot : touched) {
      if (!(score[slot] > 0.0)) continue;
      const Hit hit{slot_ids_[slot], score[slot]};
      if (top.size() < k) {
        top.push_back(hit);
        std::push_heap(top.begin(), top.end(), Better);
      } else if (Better(hit, top.front())) {
        std::pop_heap(top.begin(), top.end(), Better);
        top.back() = hit;
        std::push_heap(top.begin(), top.end(), Better);
      }
    }
    std::sort_heap(top.begin(), top.end(), Better);
    for (auto it = rows_.begin(); it != rows_.end() && top.size() < k; ++it) {
      const uint32_t slot = it->second.slot;
      if (seen[slot] == 0 || score[slot] == 0.0) {
        top.push_back(Hit{it->first, 0.0});
      }
    }
    if (top.size() == k) return top;
    std::vector<Hit> negative;
    for (uint32_t slot : touched) {
      if (score[slot] < 0.0) {
        negative.push_back(Hit{slot_ids_[slot], score[slot]});
      }
    }
    std::sort(negative.begin(), negative.end(), Better);
    negative.resize(std::min(negative.size(), k - top.size()));
    top.insert(top.end(), negative.begin(), negative.end());
    return top;
  }

 private:
  struct Posting {
    uint32_t slot = 0;
    float weight = 0.0f;
  };
  struct Row {
    uint32_t slot = 0;
    std::vector<uint32_t> dims;
  };

  static bool Better(const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  }

  std::span<const float> Normalized(std::span<const float> embedding,
                                    std::vector<float>& out) const {
    if (embedding.size() != dims_) return {};
    const float norm = reference::Norm(embedding);
    if (!(norm > 0.0f) || !std::isfinite(norm)) return {};
    out.resize(dims_);
    for (size_t i = 0; i < dims_; ++i) out[i] = embedding[i] / norm;
    return out;
  }

  size_t dims_;
  std::map<int64_t, Row> rows_;
  std::vector<int64_t> slot_ids_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<uint32_t, std::vector<Posting>> postings_;
};

}  // namespace laminar::embed::reference
