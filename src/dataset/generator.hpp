// Synthetic CodeSearchNet-PE dataset generator (paper §VII-A).
//
// Renders each semantic family V times with independently chosen identifier
// names, constants and structure noise (optional docstring, optional debug
// counter, optional type-free guard), producing PEs that are semantically
// equivalent within a family but textually distinct — the controllable
// analogue of CodeSearchNet's grouped functions. Every PE gets a unique id
// (the paper: "to avoid ambiguity ... where functions might have duplicate
// names").
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "dataset/families.hpp"

namespace laminar::dataset {

struct DatasetConfig {
  /// How many families to use (clamped to the table size; 0 = all).
  size_t families = 0;
  size_t variants_per_family = 8;
  uint64_t seed = 0x1a3f5c7e9b2d4f60ULL;
  /// Probability that a rendered PE carries a docstring.
  double docstring_probability = 0.5;
  /// Probability of an extra noise statement in the body.
  double noise_probability = 0.35;
};

struct PeExample {
  int64_t id = 0;
  int group = 0;                ///< family index (the relevance ground truth)
  std::string family_key;
  std::string name;             ///< unique PE class name
  std::string description;      ///< ground-truth description
  std::string query;            ///< natural-language query paraphrase
  std::string pe_code;          ///< full PE class source
};

/// Streaming variant renderer: yields the exact example sequence
/// CodeSearchNetPeDataset::Generate materializes (same seed derivation,
/// same ids), one PeExample at a time in O(1) memory, so a caller can
/// render 1M+ PEs without ever holding the corpus: families iterate
/// outermost, each forking its own rng stream, so the f-th family's
/// variants are identical whether or not the earlier families were
/// consumed.
class PeStream {
 public:
  explicit PeStream(const DatasetConfig& config = {});

  /// Renders the next example into `*out`; false when exhausted.
  bool Next(PeExample* out);

  /// Total examples the stream will yield (families * variants_per_family).
  size_t total() const { return families_ * config_.variants_per_family; }
  size_t family_count() const { return families_; }

 private:
  DatasetConfig config_;
  size_t families_ = 0;
  Rng rng_;
  Rng family_rng_;
  size_t family_ = 0;   ///< current family index
  size_t variant_ = 0;  ///< next variant within the current family
  int64_t next_id_ = 1;
};

class CodeSearchNetPeDataset {
 public:
  static CodeSearchNetPeDataset Generate(const DatasetConfig& config = {});

  const std::vector<PeExample>& examples() const { return examples_; }
  const PeExample& example(size_t i) const { return examples_[i]; }
  size_t size() const { return examples_.size(); }
  size_t family_count() const { return family_count_; }

  /// Ids of all examples in a group (the relevant set for any member).
  const std::vector<int64_t>& GroupMembers(int group) const;

 private:
  std::vector<PeExample> examples_;
  std::unordered_map<int, std::vector<int64_t>> groups_;
  size_t family_count_ = 0;
};

/// How DropCode removes content.
enum class DropMode {
  kTail,    ///< drop the trailing fraction of body lines (paper protocol)
  kRandom,  ///< drop a random fraction of body lines (extension)
};

/// Removes `fraction` (0..1) of a PE's *body* lines, keeping the class/def
/// header so the snippet still reads as partial code. fraction 0 returns the
/// input unchanged.
std::string DropCode(const std::string& pe_code, double fraction,
                     DropMode mode = DropMode::kTail, uint64_t seed = 99);

}  // namespace laminar::dataset
