#include "embed/unixcoder_sim.hpp"

#include <array>
#include <algorithm>

#include "common/strings.hpp"

namespace laminar::embed {
namespace {

constexpr uint64_t kTextSpaceSeed = 0x756e6978636f6465ULL;  // "unixcode"

bool IsStopword(std::string_view w) {
  // English glue words plus Laminar-domain boilerplate: every registry
  // entry is a "PE"/"processing element", so those words carry no signal —
  // the equivalent of the corpus-frequency discount a trained encoder
  // internalizes from its pre-training distribution.
  static constexpr std::array<std::string_view, 32> kStop = {
      "a",   "an",  "the", "of",  "to",  "in",   "on",   "for",
      "and", "or",  "is",  "are", "be",  "that", "this", "it",
      "with", "as", "by",  "from", "at", "its",  "into", "if",
      "pe",  "pes", "processing", "element", "elements", "class",
      "function", "related"};
  return std::find(kStop.begin(), kStop.end(), w) != kStop.end();
}

/// A stem spelled as a prefix of its word plus an ending ("" or "y").
struct Stem {
  std::string_view head;
  std::string_view ending;
};

/// Light suffix stemming so that morphological variants land on shared
/// terms ("anomalies"/"anomaly", "detection"/"detect") — the cheapest
/// analogue of the subword semantics a trained encoder provides.
Stem StemLite(std::string_view w) {
  auto ends = [&](std::string_view suffix) {
    return w.size() > suffix.size() + 2 && w.ends_with(suffix);
  };
  if (ends("ies")) return {w.substr(0, w.size() - 3), "y"};
  if (ends("ions")) return {w.substr(0, w.size() - 4), ""};
  if (ends("ion")) return {w.substr(0, w.size() - 3), ""};
  if (ends("ing")) return {w.substr(0, w.size() - 3), ""};
  if (ends("ed")) return {w.substr(0, w.size() - 2), ""};
  if (ends("es")) return {w.substr(0, w.size() - 2), ""};
  if (ends("s")) return {w.substr(0, w.size() - 1), ""};
  return {w, ""};
}

}  // namespace

UnixcoderSim::UnixcoderSim(UnixcoderConfig config) : config_(config) {}

SparseVector UnixcoderSim::Encode(std::string_view text) const {
  HashedEncoder enc(config_.dims, kTextSpaceSeed);
  std::vector<std::string> words = strings::WordTokens(text);
  for (size_t i = 0; i < words.size(); ++i) {
    const std::string_view w = words[i];
    const bool stopword = IsStopword(w);
    float weight = stopword ? config_.word_weight * config_.stopword_weight
                            : config_.word_weight;
    enc.Add({"w:", w}, weight);
    if (!stopword) {
      const Stem stem = StemLite(w);
      enc.Add({"s:", stem.head, stem.ending}, 0.8f * weight);
    }
    if (i + 1 < words.size()) {
      enc.Add({"b:", w, "_", words[i + 1]}, config_.bigram_weight);
    }
    if (w.size() >= 3 && !stopword) {
      for (size_t j = 0; j + 3 <= w.size(); ++j) {
        enc.Add({"t:", w.substr(j, 3)}, config_.trigram_weight);
      }
    }
  }
  return enc.Finish();
}

}  // namespace laminar::embed
