#include <cmath>
#include <gtest/gtest.h>

#include "embed/codet5_sim.hpp"
#include "embed/hashed_encoder.hpp"
#include "embed/reacc_sim.hpp"
#include "embed/unixcoder_sim.hpp"
#include "simd/simd.hpp"

namespace laminar::embed {
namespace {

TEST(VectorMath, DotAndNorm) {
  Vector a = {1, 0, 2};
  EXPECT_FLOAT_EQ(Norm(a), std::sqrt(5.0f));
}

TEST(VectorMath, CosineProperties) {
  Vector a = {1, 2, 3};
  EXPECT_FLOAT_EQ(Cosine(a, a), 1.0f);
  Vector neg = {-1, -2, -3};
  EXPECT_FLOAT_EQ(Cosine(a, neg), -1.0f);
  Vector zero = {0, 0, 0};
  EXPECT_FLOAT_EQ(Cosine(a, zero), 0.0f);
  Vector mismatched = {1, 2};
  EXPECT_FLOAT_EQ(Cosine(a, mismatched), 0.0f);
}

TEST(VectorMath, DotScalarHandlesRemainders) {
  // Lengths around the 4-lane unroll boundary.
  for (size_t n : {1u, 3u, 4u, 5u, 7u, 8u, 9u}) {
    Vector a(n), b(n);
    float want = 0.0f;
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(i + 1);
      b[i] = static_cast<float>(2 * i) - 3.0f;
      want += a[i] * b[i];
    }
    EXPECT_FLOAT_EQ(simd::DotScalar(a.data(), b.data(), n), want)
        << "n=" << n;
  }
}

TEST(VectorMath, L2NormalizeUnitLength) {
  Vector v = {3, 4};
  L2Normalize(v);
  EXPECT_NEAR(Norm(v), 1.0f, 1e-6);
  Vector zero = {0, 0};
  L2Normalize(zero);  // must not produce NaN
  EXPECT_FLOAT_EQ(zero[0], 0.0f);
}

TEST(VectorJson, RoundTrips) {
  Vector v = {0.5f, -1.25f, 3.0f};
  Vector back = FromJson(ToJson(v));
  ASSERT_EQ(back.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) EXPECT_FLOAT_EQ(back[i], v[i]);
}

TEST(VectorJson, MalformedYieldsEmpty) {
  EXPECT_TRUE(FromJson("not json").empty());
  EXPECT_TRUE(FromJson("{\"a\":1}").empty());
  EXPECT_TRUE(FromJson("[1, \"x\"]").empty());
}

TEST(HashedEncoder, DeterministicAndNormalized) {
  HashedEncoder e1(64, 1), e2(64, 1);
  e1.Add("alpha", 1.0f);
  e1.Add("beta", 0.5f);
  e2.Add("alpha", 1.0f);
  e2.Add("beta", 0.5f);
  Vector v1 = e1.Finish();
  Vector v2 = e2.Finish();
  EXPECT_EQ(v1, v2);
  EXPECT_NEAR(Norm(v1), 1.0f, 1e-5);
}

TEST(HashedEncoder, SeedSeparatesSpaces) {
  HashedEncoder text(64, 1), code(64, 2);
  text.Add("prime", 1.0f);
  code.Add("prime", 1.0f);
  EXPECT_LT(std::abs(Cosine(text.Finish(), code.Finish())), 0.99f);
}

TEST(HashedEncoder, FinishResets) {
  HashedEncoder e(64, 1);
  e.Add("x", 1.0f);
  Vector first = e.Finish();
  Vector second = e.Finish();  // nothing accumulated
  EXPECT_NEAR(Norm(second), 0.0f, 1e-6);
  EXPECT_NEAR(Norm(first), 1.0f, 1e-5);
}

// ---- UnixcoderSim ----

TEST(UnixcoderSim, SimilarTextsScoreHigherThanUnrelated) {
  UnixcoderSim model;
  Vector q = model.EncodeText("a pe that detects anomalies in sensor data");
  Vector similar = model.EncodeText("detects anomalies in a stream of sensor readings");
  Vector unrelated = model.EncodeText("parse comma separated csv rows into fields");
  EXPECT_GT(Cosine(q, similar), Cosine(q, unrelated));
  EXPECT_GT(Cosine(q, similar), 0.2f);
}

TEST(UnixcoderSim, IdenticalTextIsPerfectMatch) {
  UnixcoderSim model;
  Vector a = model.EncodeText("Checks whether a number is prime.");
  Vector b = model.EncodeText("Checks whether a number is prime.");
  EXPECT_NEAR(Cosine(a, b), 1.0f, 1e-6);
}

TEST(UnixcoderSim, StopwordsCarryLittleWeight) {
  UnixcoderSim model;
  Vector just_stop = model.EncodeText("the of a to in and");
  Vector content = model.EncodeText("anomaly detection threshold");
  Vector content_plus_stop =
      model.EncodeText("the anomaly detection of a threshold");
  EXPECT_GT(Cosine(content, content_plus_stop), 0.8f);
  EXPECT_LT(Cosine(just_stop, content), 0.3f);
}

TEST(UnixcoderSim, EmptyTextYieldsZeroVector) {
  UnixcoderSim model;
  Vector v = model.EncodeText("");
  EXPECT_NEAR(Norm(v), 0.0f, 1e-6);
}

// ---- ReaccSim ----

TEST(ReaccSim, ExactCloneIsPerfect) {
  ReaccSim model;
  std::string code = "def f(x):\n    return x + 1\n";
  EXPECT_NEAR(Cosine(model.EncodeCode(code), model.EncodeCode(code)), 1.0f,
              1e-6);
}

TEST(ReaccSim, IdentifierRenameHurtsSimilarity) {
  // The property the paper's Fig. 13 turns on: ReACC embeds the literal
  // token sequence, so renames cost similarity.
  ReaccSim model;
  Vector original = model.EncodeCode(
      "result = 0\nfor item in data:\n    result = result + item\n");
  Vector renamed = model.EncodeCode(
      "acc = 0\nfor x in values:\n    acc = acc + x\n");
  Vector clone = model.EncodeCode(
      "result = 0\nfor item in data:\n    result = result + item\n");
  EXPECT_GT(Cosine(original, clone), 0.99f);
  EXPECT_LT(Cosine(original, renamed), 0.8f);
}

TEST(ReaccSim, TruncationHurtsSimilarity) {
  ReaccSim model;
  std::string full =
      "low = 0\nhigh = len(xs) - 1\nwhile low <= high:\n"
      "    mid = (low + high) // 2\n    if xs[mid] == t:\n        return mid\n";
  std::string truncated = "low = 0\nhigh = len(xs) - 1\n";
  float self = Cosine(model.EncodeCode(full), model.EncodeCode(full));
  float cut = Cosine(model.EncodeCode(full), model.EncodeCode(truncated));
  EXPECT_GT(self, cut);
  EXPECT_LT(cut, 0.9f);
}

TEST(ReaccSim, UnlexableInputStillEmbeds) {
  ReaccSim model;
  Vector v = model.EncodeCode("broken 'string without end");
  EXPECT_GT(Norm(v), 0.0f);
}

// ---- CodeT5Sim ----

constexpr const char* kPeCode =
    "class AnomalyDetectionPE(IterativePE):\n"
    "    \"\"\"Anomaly detection PE. Flags outlier readings.\"\"\"\n"
    "    def __init__(self):\n"
    "        IterativePE.__init__(self)\n"
    "        self.window = []\n"
    "    def _process(self, reading):\n"
    "        value = reading['temperature']\n"
    "        self.window.append(value)\n"
    "        mean = sum(self.window) / len(self.window)\n"
    "        if abs(value - mean) > 3.0:\n"
    "            return reading\n";

TEST(CodeT5Sim, FullClassSeesNameAndDocstring) {
  CodeT5Sim sim;
  std::string desc = sim.Summarize(kPeCode, DescriptionContext::kFullClass);
  EXPECT_NE(desc.find("anomaly"), std::string::npos) << desc;
  // The docstring's first sentence is folded in.
  EXPECT_NE(desc.find("Anomaly detection PE."), std::string::npos) << desc;
}

TEST(CodeT5Sim, ProcessOnlyIsVaguer) {
  // The Fig. 10 contrast: method-only context cannot mention the class name
  // or class docstring.
  CodeT5Sim sim;
  std::string desc =
      sim.Summarize(kPeCode, DescriptionContext::kProcessMethodOnly);
  EXPECT_EQ(desc.find("Anomaly detection PE"), std::string::npos) << desc;
  EXPECT_EQ(desc.find("anomaly"), std::string::npos) << desc;
  EXPECT_FALSE(desc.empty());
}

TEST(CodeT5Sim, FullClassIsLongerAndRicher) {
  CodeT5Sim sim;
  std::string full = sim.Summarize(kPeCode, DescriptionContext::kFullClass);
  std::string proc =
      sim.Summarize(kPeCode, DescriptionContext::kProcessMethodOnly);
  EXPECT_GT(full.size(), proc.size());
}

TEST(CodeT5Sim, DetectsApiVerbs) {
  CodeT5Sim sim;
  std::string desc = sim.Summarize(
      "class S(IterativePE):\n"
      "    def _process(self, xs):\n"
      "        return sorted(xs)\n",
      DescriptionContext::kFullClass);
  EXPECT_NE(desc.find("sorts data"), std::string::npos) << desc;
}

TEST(CodeT5Sim, BareFunctionSummarized) {
  CodeT5Sim sim;
  std::string desc = sim.Summarize(
      "def reverse_string(text):\n"
      "    \"\"\"Reverses the characters of a string.\"\"\"\n"
      "    return text[::-1]\n",
      DescriptionContext::kFullClass);
  EXPECT_NE(desc.find("reverse string"), std::string::npos) << desc;
  EXPECT_NE(desc.find("Reverses the characters"), std::string::npos) << desc;
}

TEST(CodeT5Sim, GarbageInputDegradesGracefully) {
  CodeT5Sim sim;
  std::string desc = sim.Summarize("$$$ not python at all (((",
                                   DescriptionContext::kFullClass);
  EXPECT_FALSE(desc.empty());
}

TEST(CodeT5Sim, WorkflowSummaryNamesPeCount) {
  CodeT5Sim sim;
  std::string desc = sim.SummarizeWorkflow(
      "isprime_wf", {"Generates random numbers.", "Checks primality."});
  EXPECT_NE(desc.find("isprime"), std::string::npos);
  EXPECT_NE(desc.find("2 processing elements"), std::string::npos);
  EXPECT_NE(desc.find("Checks primality."), std::string::npos);
}

}  // namespace
}  // namespace laminar::embed
