// The single-pass, string-free code-analysis front end against what it
// replaced, bit for bit over seeded inputs:
//   * ExtractFeatures equals the string-building extractor
//     (tests/feature_reference.hpp) in counts, occurrence order, strings and
//     total; ExtractFlatFeatures and AromaEngine::FeaturizeFlat equal
//     FlatFeatures::From of the reference bag in hashes, counts,
//     occurrences, total and norm bits. The inputs are two seeded corpora
//     cut by DropCode at 0, 25, 50, 75 and 90% (tail and random) and edge
//     snippets (empty, comment-only, an unterminated string the parser
//     relexes line by line, nesting at kMaxNesting, one feature repeated
//     more than 255 times), under every FeatureOptions combination with
//     parent_levels 0-5;
//   * one lex and one parse equal the separate calls: ParseLenient over
//     Lex's tokens builds the same tree as ParseLenient(code), and
//     ReaccSim::Encode over those tokens and CodeT5Sim::Summarize over that
//     tree equal the string-taking forms and the dense reference encoder;
//   * HashedEncoder::Add over pieces equals Add of their concatenation, for
//     random pieces including empty ones and bytes >= 0x80.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dataset/generator.hpp"
#include "embed/codet5_sim.hpp"
#include "embed/embedding.hpp"
#include "embed/hashed_encoder.hpp"
#include "embed/reacc_sim.hpp"
#include "embedding_reference.hpp"
#include "feature_reference.hpp"
#include "pycode/lexer.hpp"
#include "pycode/parser.hpp"
#include "spt/features.hpp"
#include "spt/recommend.hpp"
#include "spt/spt.hpp"

namespace laminar::spt {
namespace {

namespace ref = feature_reference;

std::string Repeat(std::string_view piece, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) out += piece;
  return out;
}

std::vector<std::string> EdgeSnippets() {
  const int n = pycode::kMaxNesting;
  std::vector<std::string> out = {
      "",
      "# a comment and nothing else\n# and another\n",
      "x = 'unterminated\ny = x + 1\nfor v in y:\n    print(v)\n",
      "s = 'caf\xc3\xa9'\nna\xc3\xafve = s\n",
      "def f(:\n    return )",
  };
  for (int depth : {n - 3, n - 2, n - 1, n, n + 5}) {
    out.push_back("x = " + Repeat("(", depth) + "1" + Repeat(")", depth) +
                  "\n");
  }
  std::string ifs;
  for (int i = 0; i < n; ++i) {
    ifs += Repeat("    ", i) + "if x" + std::to_string(i) + ":\n";
  }
  out.push_back(ifs + Repeat("    ", n) + "pass\n");
  // "T:#VAR" and the sibling feature of self/data repeat 300 times.
  out.push_back("class Many(IterativePE):\n"
                "    def _process(self, data):\n" +
                Repeat("        self.write(data)\n", 300));
  return out;
}

/// Edge snippets, then two seeded corpora, each PE cut by DropCode at every
/// fraction in both modes.
std::vector<std::string> Snippets() {
  std::vector<std::string> out = EdgeSnippets();
  for (uint64_t seed : {0x5eed0001ULL, 0xfea70002ULL}) {
    dataset::DatasetConfig config;
    config.variants_per_family = 3;  // 30 families -> 90 PEs
    config.seed = seed;
    const auto ds = dataset::CodeSearchNetPeDataset::Generate(config);
    for (size_t i = 0; i < ds.size(); ++i) {
      const std::string& code = ds.example(i).pe_code;
      for (double fraction : {0.0, 0.25, 0.5, 0.75, 0.9}) {
        for (dataset::DropMode mode :
             {dataset::DropMode::kTail, dataset::DropMode::kRandom}) {
          out.push_back(dataset::DropCode(code, fraction, mode, seed + i));
        }
      }
    }
  }
  return out;
}

/// Every FeatureOptions combination, parent_levels 0-5.
std::vector<FeatureOptions> AllOptions() {
  std::vector<FeatureOptions> out;
  for (int levels = 0; levels <= 5; ++levels) {
    for (bool generalize : {false, true}) {
      for (bool occurrences : {false, true}) {
        for (bool strings : {false, true}) {
          FeatureOptions opts;
          opts.parent_levels = levels;
          opts.generalize_variables = generalize;
          opts.with_occurrences = occurrences;
          opts.record_strings = strings;
          out.push_back(opts);
        }
      }
    }
  }
  return out;
}

std::string Describe(const FeatureOptions& opts) {
  return "levels " + std::to_string(opts.parent_levels) + ", generalize " +
         std::to_string(opts.generalize_variables) + ", occurrences " +
         std::to_string(opts.with_occurrences) + ", strings " +
         std::to_string(opts.record_strings);
}

/// Empty when equal, else what differs.
std::string BagMismatch(const FeatureBag& got, const FeatureBag& want) {
  if (got.counts != want.counts) return "counts";
  if (got.occurrences != want.occurrences) return "occurrences";
  if (got.strings != want.strings) return "strings";
  if (got.total != want.total) return "total";
  return {};
}

std::string FlatMismatch(const FlatFeatures& got, const FlatFeatures& want) {
  if (got.features.size() != want.features.size()) return "feature count";
  for (size_t i = 0; i < got.features.size(); ++i) {
    if (got.features[i].hash != want.features[i].hash ||
        got.features[i].count != want.features[i].count) {
      return "feature " + std::to_string(i);
    }
  }
  if (got.occurrences.size() != want.occurrences.size()) {
    return "occurrence count";
  }
  for (size_t i = 0; i < got.occurrences.size(); ++i) {
    if (got.occurrences[i].line != want.occurrences[i].line ||
        got.occurrences[i].feature != want.occurrences[i].feature) {
      return "occurrence " + std::to_string(i);
    }
  }
  if (got.total != want.total) return "total";
  if (std::bit_cast<uint64_t>(got.norm) != std::bit_cast<uint64_t>(want.norm)) {
    return "norm bits";
  }
  return {};
}

/// Stored flat vectors hold exactly their size, as FlatFeatures::From's.
std::string CapacityMismatch(const FlatFeatures& got) {
  if (got.features.capacity() != got.features.size()) return "features";
  if (got.occurrences.capacity() != got.occurrences.size()) {
    return "occurrences";
  }
  return {};
}

/// Fails the test with `what` when `mismatch` is set; true while the
/// failures stay few enough to keep reading.
bool Check(const std::string& mismatch, const std::string& what,
           int& failures) {
  if (mismatch.empty()) return true;
  ADD_FAILURE() << what << ": " << mismatch;
  return ++failures < 10;
}

TEST(FeatureStream, ExtractorEqualsTheStringBuildingReference) {
  const std::vector<std::string> snippets = Snippets();
  const std::vector<FeatureOptions> all_options = AllOptions();
  const size_t edges = EdgeSnippets().size();
  int failures = 0;
  size_t compared = 0;
  for (size_t i = 0; i < snippets.size(); ++i) {
    Result<SptNodePtr> spt = SptFromSource(snippets[i]);
    if (!spt.ok()) continue;
    // Every combination on the edges and on every 15th corpus snippet; the
    // engine's options (occurrences on) with and without strings on all.
    std::vector<FeatureOptions> options = {FeatureOptions{},
                                           FeatureOptions{}};
    options[0].with_occurrences = true;
    options[1].with_occurrences = true;
    options[1].record_strings = true;
    if (i < edges || i % 15 == 0) options = all_options;
    for (const FeatureOptions& opts : options) {
      const std::string what =
          "snippet " + std::to_string(i) + " (" + Describe(opts) + ")";
      const FeatureBag want = ref::ExtractFeatures(*spt.value(), opts);
      const FlatFeatures got_flat = ExtractFlatFeatures(*spt.value(), opts);
      if (!Check(BagMismatch(ExtractFeatures(*spt.value(), opts), want),
                 what + " bag", failures) ||
          !Check(FlatMismatch(got_flat, ref::From(want)), what + " flat",
                 failures) ||
          !Check(CapacityMismatch(got_flat), what + " capacity", failures)) {
        return;
      }
      ++compared;
    }
  }
  EXPECT_GT(compared, 3000u);
}

TEST(FeatureStream, EngineFlatFormEqualsTheReferenceFromCodeAndTree) {
  const AromaEngine engine;
  FeatureOptions opts = engine.config().features;
  ASSERT_TRUE(opts.with_occurrences);
  int failures = 0;
  size_t featurized = 0;
  for (const std::string& code : Snippets()) {
    const std::string what = "\"" + code.substr(0, 40) + "\"";
    Result<SptNodePtr> spt = SptFromSource(code);
    Result<FlatFeatures> from_code = engine.FeaturizeFlat(code);
    const pycode::ParsedSnippet parsed = pycode::ParseSnippet(code);
    ASSERT_EQ(from_code.ok(), spt.ok()) << what;
    ASSERT_EQ(parsed.tree.ok(), spt.ok()) << what;
    if (!spt.ok()) continue;
    const FlatFeatures want =
        ref::From(ref::ExtractFeatures(*spt.value(), opts));
    if (!Check(FlatMismatch(from_code.value(), want), what + " from code",
               failures) ||
        !Check(FlatMismatch(engine.FeaturizeFlat(*parsed.tree.value()), want),
               what + " from tree", failures)) {
      return;
    }
    Result<FeatureBag> bag = engine.Featurize(code);
    ASSERT_TRUE(bag.ok()) << what;
    if (!Check(FlatMismatch(FlatFeatures::From(bag.value()), want),
               what + " Featurize", failures)) {
      return;
    }
    ++featurized;
  }
  EXPECT_GT(featurized, 1800u);
}

/// The tree with every leaf's type, spelling, line and column.
void Dump(const pycode::Node& node, std::string& out) {
  if (node.leaf) {
    out += std::string(pycode::TokenTypeName(node.token.type)) + ":" +
           node.token.text + "@" + std::to_string(node.token.line) + ":" +
           std::to_string(node.token.col) + " ";
    return;
  }
  out += "(" + node.kind + " ";
  for (const auto& child : node.children) Dump(*child, out);
  out += ") ";
}

std::string Dump(const Result<pycode::NodePtr>& tree) {
  if (!tree.ok()) return "error: " + tree.status().ToString();
  std::string out;
  Dump(*tree.value(), out);
  return out;
}

TEST(FeatureStream, OneLexAndParseEqualTheSeparateCalls) {
  const embed::ReaccSim reacc;
  const embed::CodeT5Sim codet5;
  for (const std::string& code : Snippets()) {
    const std::string what = "\"" + code.substr(0, 40) + "\"";
    const pycode::ParsedSnippet parsed = pycode::ParseSnippet(code);
    Result<std::vector<pycode::Token>> lexed = pycode::Lex(code);
    ASSERT_EQ(parsed.tokens.ok(), lexed.ok()) << what;
    ASSERT_EQ(Dump(parsed.tree), Dump(pycode::ParseLenient(code))) << what;

    const embed::SparseVector from_tokens = reacc.Encode(code, parsed.tokens);
    const embed::Vector want = embed::reference::EncodeCode(code);
    const embed::Vector got = embed::ToDense(from_tokens);
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t d = 0; d < got.size(); ++d) {
      ASSERT_EQ(std::bit_cast<uint32_t>(got[d]),
                std::bit_cast<uint32_t>(want[d]))
          << what << ", dimension " << d;
    }
    ASSERT_EQ(embed::ToJson(from_tokens), embed::ToJson(reacc.Encode(code)))
        << what;

    for (embed::DescriptionContext context :
         {embed::DescriptionContext::kFullClass,
          embed::DescriptionContext::kProcessMethodOnly}) {
      ASSERT_EQ(codet5.Summarize(parsed.tree, context),
                codet5.Summarize(code, context))
          << what;
    }
  }
}

TEST(StreamedTerms, PiecesHashLikeTheirConcatenation) {
  Rng rng(0x7e57);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t dims = trial % 3 == 0 ? 4096 : 64;
    const uint64_t seed = rng.NextU64();
    embed::HashedEncoder whole(dims, seed);
    embed::HashedEncoder streamed(dims, seed);
    const int terms = static_cast<int>(rng.NextInt(0, 24));
    for (int t = 0; t < terms; ++t) {
      std::vector<std::string> pieces(static_cast<size_t>(rng.NextInt(0, 6)));
      std::string joined;
      for (std::string& piece : pieces) {
        piece.resize(static_cast<size_t>(rng.NextInt(0, 5)));
        for (char& c : piece) c = static_cast<char>(rng.NextInt(0, 255));
        joined += piece;
      }
      const float weight = static_cast<float>(rng.NextDouble() * 4.0 - 2.0);
      whole.Add(joined, weight);
      const std::vector<std::string_view> views(pieces.begin(), pieces.end());
      streamed.Add(views, weight);
    }
    // The initializer-list form the encoders use, with an empty piece.
    whole.Add("w:caf\xc3\xa9", 1.0f);
    streamed.Add({"w:", "", "caf\xc3\xa9"}, 1.0f);

    const embed::SparseVector a = whole.Finish();
    const embed::SparseVector b = streamed.Finish();
    ASSERT_EQ(a.dims, b.dims);
    ASSERT_EQ(a.entries.size(), b.entries.size()) << "trial " << trial;
    for (size_t i = 0; i < a.entries.size(); ++i) {
      ASSERT_EQ(a.entries[i].index, b.entries[i].index) << "trial " << trial;
      ASSERT_EQ(std::bit_cast<uint32_t>(a.entries[i].value),
                std::bit_cast<uint32_t>(b.entries[i].value))
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace laminar::spt
