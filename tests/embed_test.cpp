#include <cmath>
#include <initializer_list>

#include <gtest/gtest.h>

#include "embed/codet5_sim.hpp"
#include "embed/hashed_encoder.hpp"
#include "embed/reacc_sim.hpp"
#include "embed/unixcoder_sim.hpp"
#include "simd/simd.hpp"
#include "dense_embedding.hpp"

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
  SparseVector v = Sparse({3, 4});
  L2Normalize(v);
  EXPECT_NEAR(Norm(v), 1.0f, 1e-6);
  SparseVector zero = Sparse({0, 0});
  L2Normalize(zero);  // must not produce NaN
  EXPECT_FLOAT_EQ(ToDense(zero)[0], 0.0f);
}

TEST(VectorJson, RoundTrips) {
  Vector v = {0.5f, -1.25f, 3.0f};
  Vector back = ToDense(FromJson(ToJson(Sparse(v))));
  ASSERT_EQ(back.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) EXPECT_FLOAT_EQ(back[i], v[i]);
}

// The stored column is outside input: snapshot files, WAL lines and leader
// fetches all reach FromJson, and every malformed row must decode to dims 0
// (the search service then re-encodes the description).

void ExpectRejected(std::initializer_list<const char*> texts) {
  for (const char* text : texts) EXPECT_EQ(FromJson(text).dims, 0u) << text;
}

TEST(VectorJson, MalformedYieldsEmpty) {
  // Only the dense array and the two-key sparse object are accepted.
  ExpectRejected({"not json", "{\"a\":1}", "[1, \"x\"]", "", "42", "null",
                  "\"[]\"", "true", R"({"dims":4,"nz":[)",
                  R"({"dims":4,"nz":[],"extra":1})"});
}

TEST(VectorJson, SparseDimsMustBeAnIntegerUpTo2Pow20) {
  // Allocating 2^40 or 2^63 - 1 floats before the bound check would throw
  // std::bad_alloc (or abort under ASan) instead of returning empty.
  ExpectRejected({R"({"nz":[]})", R"({"dims":null,"nz":[]})",
                  R"({"dims":"4","nz":[]})", R"({"dims":4.0,"nz":[]})",
                  R"({"dims":-1,"nz":[]})", R"({"dims":1048577,"nz":[]})",
                  R"({"dims":1e12,"nz":[]})",
                  R"({"dims":99999999999999999999,"nz":[]})",
                  R"({"dims":1099511627776,"nz":[]})",
                  R"({"dims":9223372036854775807,"nz":[[0,1.0]]})"});
  EXPECT_EQ(FromJson(R"({"dims":1048576,"nz":[]})").dims, size_t{1} << 20);
  EXPECT_EQ(FromJson(R"({"dims":0,"nz":[]})").dims, 0u);
  EXPECT_EQ(ToDense(FromJson(R"({"nz":[[1,0.5]],"dims":3})")),
            (Vector{0.0f, 0.5f, 0.0f}));
}

TEST(VectorJson, WideSparseRowCostsItsEntriesNotItsDims) {
  // A hostile row may declare 2^20 dimensions and list one; decoding holds
  // that one entry rather than 2^20 floats.
  const SparseVector v = FromJson(R"({"dims":1048576,"nz":[[5,0.5]]})");
  EXPECT_EQ(v.dims, size_t{1} << 20);
  ASSERT_EQ(v.entries.size(), 1u);
  EXPECT_LE(v.entries.capacity(), 1u);
  EXPECT_EQ(v.entries[0], (SparseVector::Entry{5, 0.5f}));
  EXPECT_EQ(ToJson(v), R"({"dims":1048576,"nz":[[5,0.5]]})");
}

TEST(VectorJson, SparseNzMustBeAnArrayOfPairs) {
  ExpectRejected({R"({"dims":4})", R"({"dims":4,"nz":null})",
                  R"({"dims":4,"nz":{}})", R"({"dims":4,"nz":"[]"})",
                  R"({"dims":4,"nz":[1,0.5]})", R"({"dims":4,"nz":[[]]})",
                  R"({"dims":4,"nz":[[1]]})", R"({"dims":4,"nz":[[1,0.5,2]]})",
                  R"({"dims":4,"nz":[{"1":0.5}]})"});
}

TEST(VectorJson, SparseIndicesMustBeIntegersInRange) {
  ExpectRejected({R"({"dims":4,"nz":[[4,0.5]]})",
                  R"({"dims":4,"nz":[[-1,0.5]]})",
                  R"({"dims":4,"nz":[[1.0,0.5]]})",
                  R"({"dims":4,"nz":[["1",0.5]]})",
                  R"({"dims":4,"nz":[[null,0.5]]})",
                  R"({"dims":0,"nz":[[0,0.5]]})"});
  EXPECT_EQ(ToDense(FromJson(R"({"dims":4,"nz":[[3,0.5]]})")),
            (Vector{0.0f, 0.0f, 0.0f, 0.5f}));
}

TEST(VectorJson, SparseIndicesMustStrictlyAscend) {
  ExpectRejected({R"({"dims":4,"nz":[[2,0.5],[1,0.25]]})",
                  R"({"dims":4,"nz":[[1,0.5],[1,0.25]]})",
                  R"({"dims":4,"nz":[[0,0.5],[2,0.25],[2,0.125]]})"});
  EXPECT_EQ(ToDense(FromJson(R"({"dims":4,"nz":[[0,0.5],[2,0.25]]})")),
            (Vector{0.5f, 0.0f, 0.25f, 0.0f}));
}

TEST(VectorJson, SparseWeightsMustBeNumbers) {
  ExpectRejected({R"({"dims":4,"nz":[[1,"0.5"]]})",
                  R"({"dims":4,"nz":[[1,null]]})",
                  R"({"dims":4,"nz":[[1,true]]})",
                  R"({"dims":4,"nz":[[1,[0.5]]]})"});
  EXPECT_EQ(ToDense(FromJson(R"({"dims":2,"nz":[[1,2]]})")),
            (Vector{0.0f, 2.0f}));
}

TEST(HashedEncoder, DeterministicAndNormalized) {
  HashedEncoder e1(64, 1), e2(64, 1);
  e1.Add("alpha", 1.0f);
  e1.Add("beta", 0.5f);
  e2.Add("alpha", 1.0f);
  e2.Add("beta", 0.5f);
  SparseVector v1 = e1.Finish();
  SparseVector v2 = e2.Finish();
  EXPECT_EQ(v1, v2);
  EXPECT_NEAR(Norm(v1), 1.0f, 1e-5);
}

TEST(HashedEncoder, SeedSeparatesSpaces) {
  HashedEncoder text(64, 1), code(64, 2);
  text.Add("prime", 1.0f);
  code.Add("prime", 1.0f);
  EXPECT_LT(std::abs(Cosine(ToDense(text.Finish()), ToDense(code.Finish()))),
            0.99f);
}

TEST(HashedEncoder, FinishResets) {
  HashedEncoder e(64, 1);
  e.Add("x", 1.0f);
  SparseVector first = e.Finish();
  SparseVector second = e.Finish();  // nothing accumulated
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
