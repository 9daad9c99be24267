#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "spt/features.hpp"
#include "spt/recommend.hpp"

namespace laminar::spt {
namespace {

FeatureBag Extract(const std::string& source, FeatureOptions opts = {}) {
  Result<SptNodePtr> spt = SptFromSource(source);
  EXPECT_TRUE(spt.ok()) << spt.status().ToString();
  return ExtractFeatures(*spt.value(), opts);
}

bool HasFeature(const FeatureBag& bag, const std::string& feature) {
  return std::find(bag.strings.begin(), bag.strings.end(), feature) !=
         bag.strings.end();
}

TEST(Locals, AssignmentTargets) {
  Result<SptNodePtr> spt = SptFromSource("total = 0\ntotal += x\n");
  ASSERT_TRUE(spt.ok());
  auto locals = CollectLocalVariables(*spt.value());
  EXPECT_TRUE(locals.contains("total"));
  EXPECT_FALSE(locals.contains("x"));  // only read, never bound
}

TEST(Locals, LoopAndComprehensionTargets) {
  Result<SptNodePtr> spt = SptFromSource(
      "for item in items:\n"
      "    pass\n"
      "ys = [v * v for v in xs]\n");
  ASSERT_TRUE(spt.ok());
  auto locals = CollectLocalVariables(*spt.value());
  EXPECT_TRUE(locals.contains("item"));
  EXPECT_TRUE(locals.contains("v"));
  EXPECT_TRUE(locals.contains("ys"));
  EXPECT_FALSE(locals.contains("items"));
  EXPECT_FALSE(locals.contains("xs"));
}

TEST(Locals, ParamsWithAndExcept) {
  Result<SptNodePtr> spt = SptFromSource(
      "def f(alpha, beta=2):\n"
      "    with open('x') as fh:\n"
      "        try:\n"
      "            pass\n"
      "        except ValueError as err:\n"
      "            pass\n");
  ASSERT_TRUE(spt.ok());
  auto locals = CollectLocalVariables(*spt.value());
  EXPECT_TRUE(locals.contains("alpha"));
  EXPECT_TRUE(locals.contains("beta"));
  EXPECT_TRUE(locals.contains("fh"));
  EXPECT_TRUE(locals.contains("err"));
  EXPECT_FALSE(locals.contains("ValueError"));
  EXPECT_FALSE(locals.contains("f"));  // function names are API, not vars
}

TEST(Locals, SelfAndClsAlwaysLocal) {
  Result<SptNodePtr> spt = SptFromSource("pass\n");
  ASSERT_TRUE(spt.ok());
  auto locals = CollectLocalVariables(*spt.value());
  EXPECT_TRUE(locals.contains("self"));
  EXPECT_TRUE(locals.contains("cls"));
}

TEST(Features, TokenFeatureGeneralizesVariables) {
  FeatureOptions opts;
  opts.record_strings = true;
  FeatureBag bag = Extract("count = 0\ncount += 1\n", opts);
  EXPECT_TRUE(HasFeature(bag, "T:#VAR"));
  EXPECT_FALSE(HasFeature(bag, "T:count"));
}

TEST(Features, GlobalNamesKeptVerbatim) {
  FeatureOptions opts;
  opts.record_strings = true;
  FeatureBag bag = Extract("x = range(10)\n", opts);
  EXPECT_TRUE(HasFeature(bag, "T:range"));  // API name survives
}

TEST(Features, StringLiteralsBecomeStr) {
  FeatureOptions opts;
  opts.record_strings = true;
  FeatureBag bag = Extract("s = 'hello world'\n", opts);
  EXPECT_TRUE(HasFeature(bag, "T:#STR"));
  for (const std::string& f : bag.strings) {
    EXPECT_EQ(f.find("hello"), std::string::npos) << f;
  }
}

TEST(Features, GeneralizationCanBeDisabled) {
  FeatureOptions opts;
  opts.generalize_variables = false;
  opts.record_strings = true;
  FeatureBag bag = Extract("count = 0\n", opts);
  EXPECT_TRUE(HasFeature(bag, "T:count"));
  EXPECT_FALSE(HasFeature(bag, "T:#VAR"));
}

TEST(Features, ParentFeaturesCarryContext) {
  FeatureOptions opts;
  opts.record_strings = true;
  FeatureBag bag = Extract("if x > 1:\n    pass\n", opts);
  // The literal 1 should have a parent feature inside the "#>#" comparison.
  bool found = false;
  for (const std::string& f : bag.strings) {
    if (f.rfind("P1:1|", 0) == 0 && f.find("#>#") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Features, SiblingFeaturesLinkConsecutiveTokens) {
  FeatureOptions opts;
  opts.record_strings = true;
  FeatureBag bag = Extract("y = f(x)\n", opts);
  EXPECT_TRUE(HasFeature(bag, "S:#VAR>f"));
}

TEST(Features, VariableUsageFeatures) {
  FeatureOptions opts;
  opts.record_strings = true;
  FeatureBag bag = Extract(
      "acc = 0\n"
      "acc = acc + 1\n",
      opts);
  bool has_usage = false;
  for (const std::string& f : bag.strings) {
    if (f.rfind("V:", 0) == 0) has_usage = true;
  }
  EXPECT_TRUE(has_usage);
}

TEST(Features, RenameInvariance) {
  // The defining property: renaming locals must not change the feature set.
  std::string a =
      "def check(num):\n"
      "    for i in range(2, num):\n"
      "        if num % i == 0:\n"
      "            return None\n"
      "    return num\n";
  std::string b =
      "def check(candidate):\n"
      "    for divisor in range(2, candidate):\n"
      "        if candidate % divisor == 0:\n"
      "            return None\n"
      "    return candidate\n";
  FeatureBag fa = Extract(a);
  FeatureBag fb = Extract(b);
  EXPECT_EQ(fa.counts, fb.counts);
  EXPECT_DOUBLE_EQ(CosineSimilarity(fa, fb), 1.0);
}

TEST(Features, DifferentStructureDiffers) {
  FeatureBag a = Extract("for i in range(10):\n    total += i\n");
  FeatureBag b = Extract("if ready:\n    send(payload)\n");
  EXPECT_LT(CosineSimilarity(a, b), 0.5);
}

TEST(Features, OccurrencesTagLines) {
  FeatureOptions opts;
  opts.with_occurrences = true;
  FeatureBag bag = Extract("a = 1\nb = 2\n", opts);
  ASSERT_FALSE(bag.occurrences.empty());
  bool line1 = false, line2 = false;
  for (const auto& [h, line] : bag.occurrences) {
    line1 |= line == 1;
    line2 |= line == 2;
  }
  EXPECT_TRUE(line1);
  EXPECT_TRUE(line2);
}

/// Seconds AromaEngine::FeaturizeFlat takes on `code`, which must yield
/// features.
double FeaturizeSeconds(const std::string& code) {
  const auto start = std::chrono::steady_clock::now();
  Result<FlatFeatures> flat = AromaEngine().FeaturizeFlat(code);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(flat.ok()) << flat.status().ToString();
  if (flat.ok()) {
    EXPECT_GT(flat->total, 0u);
  }
  return took.count();
}

// Every token hashes its parent's label, so featurization is linear in a
// node's width only while labels stay bounded: spelled in full, each of
// these 100k-element nodes takes ~16 s in an unoptimized build.
TEST(Features, HundredThousandTermSumFeaturizesInLinearTime) {
  std::string code = "y = x";
  for (int i = 1; i < 100'000; ++i) code += " + x";
  EXPECT_LT(FeaturizeSeconds(code + "\n"), 5.0);
}

TEST(Features, HundredThousandArgumentCallFeaturizesInLinearTime) {
  std::string code = "f(a0";
  for (int i = 1; i < 100'000; ++i) code += ", a" + std::to_string(i);
  EXPECT_LT(FeaturizeSeconds(code + ")\n"), 5.0);
}

// ---- scoring ----

TEST(Scoring, OverlapIsMinCountSum) {
  FeatureBag a, b;
  a.counts = {{1, 2}, {2, 1}};
  a.total = 3;
  b.counts = {{1, 1}, {3, 5}};
  b.total = 6;
  EXPECT_DOUBLE_EQ(OverlapScore(a, b), 1.0);
  EXPECT_DOUBLE_EQ(OverlapScore(b, a), 1.0);  // symmetric
}

TEST(Scoring, CosineBoundsAndIdentity) {
  FeatureBag a = Extract("x = a + b\n");
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, a), 1.0);
  FeatureBag empty;
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, empty), 0.0);
}

TEST(Scoring, ContainmentAsymmetric) {
  FeatureBag small = Extract("result = sorted(xs)\n");
  FeatureBag big = Extract(
      "result = sorted(xs)\n"
      "for v in result:\n"
      "    print(v)\n");
  EXPECT_GT(ContainmentScore(small, big), 0.95);
  EXPECT_LT(ContainmentScore(big, small), 0.9);
}

TEST(Scoring, JaccardBounds) {
  FeatureBag a = Extract("x = 1\n");
  EXPECT_NEAR(JaccardSimilarity(a, a), 1.0, 1e-9);
  FeatureBag b = Extract("while running:\n    tick()\n");
  double j = JaccardSimilarity(a, b);
  EXPECT_GE(j, 0.0);
  EXPECT_LE(j, 1.0);
}

}  // namespace
}  // namespace laminar::spt
