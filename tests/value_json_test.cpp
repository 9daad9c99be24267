#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/value.hpp"
#include "embed/embedding.hpp"
#include "embed/unixcoder_sim.hpp"
#include "dense_embedding.hpp"

namespace laminar {
namespace {

TEST(Value, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToJson(), "null");
}

TEST(Value, ScalarAccessors) {
  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
}

TEST(Value, CrossTypeCoercions) {
  EXPECT_EQ(Value(2.9).as_int(), 2);       // double -> int truncates
  EXPECT_DOUBLE_EQ(Value(3).as_double(), 3.0);
  EXPECT_TRUE(Value(1).as_bool());
  EXPECT_EQ(Value("nope").as_int(7), 7);   // fallback on mismatch
  EXPECT_EQ(Value(5).as_string(), "");     // strings never coerce
}

// A double with no int64 value reads as the fallback instead of hitting an
// undefined cast; every GetInt on a request body goes through here.
TEST(Value, AsIntOfOutOfRangeDoubleIsTheFallback) {
  constexpr double kTwo63 = 9223372036854775808.0;
  for (double d : {1e300, -1e300, 9.3e18, kTwo63,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(Value(d).as_int(-7), -7) << d;
  }
  EXPECT_EQ(Value(-kTwo63).as_int(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Value(3.7).as_int(), 3);
  EXPECT_EQ(Value(-3.7).as_int(), -3);
  for (int64_t i : {int64_t{0}, int64_t{-1}, int64_t{1} << 62,
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(Value(i).as_int(-7), i);
  }
  Result<Value> body = json::Parse(R"({"limit":1e300,"id":9.3e18,"n":12})");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->GetInt("limit", 5), 5);
  EXPECT_EQ(body->GetInt("id", 0), 0);
  EXPECT_EQ(body->GetInt("n", 0), 12);
}

TEST(Value, ObjectInsertionOrderPreserved) {
  Value obj = Value::MakeObject();
  obj["zeta"] = 1;
  obj["alpha"] = 2;
  obj["mid"] = 3;
  EXPECT_EQ(obj.ToJson(), R"({"zeta":1,"alpha":2,"mid":3})");
}

TEST(Value, ObjectFieldHelpers) {
  Value obj = Value::MakeObject();
  obj["name"] = "laminar";
  obj["count"] = 5;
  obj["ratio"] = 0.5;
  obj["on"] = true;
  EXPECT_EQ(obj.GetString("name"), "laminar");
  EXPECT_EQ(obj.GetInt("count"), 5);
  EXPECT_DOUBLE_EQ(obj.GetDouble("ratio"), 0.5);
  EXPECT_TRUE(obj.GetBool("on"));
  EXPECT_EQ(obj.GetString("missing", "fb"), "fb");
  EXPECT_EQ(obj.GetInt("name", -1), -1);  // wrong type -> fallback
  EXPECT_TRUE(obj.at("missing").is_null());
}

TEST(Value, ArrayOps) {
  Value arr = Value::MakeArray();
  arr.push_back(1);
  arr.push_back("two");
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr.as_array()[0].as_int(), 1);
  EXPECT_EQ(arr.ToJson(), R"([1,"two"])");
}

TEST(Value, NestedBuildAndEquality) {
  Value a = Value::MakeObject();
  a["list"].push_back(Value(1));
  a["list"].push_back(Value(2));
  a["obj"]["inner"] = "x";
  Value b = Value::MakeObject();
  b["list"].push_back(Value(1));
  b["list"].push_back(Value(2));
  b["obj"]["inner"] = "x";
  EXPECT_EQ(a, b);
  b["obj"]["inner"] = "y";
  EXPECT_FALSE(a == b);
}

TEST(Value, EraseField) {
  Value obj = Value::MakeObject();
  obj["a"] = 1;
  obj["b"] = 2;
  obj.mutable_object().erase("a");
  EXPECT_FALSE(obj.contains("a"));
  EXPECT_TRUE(obj.contains("b"));
}

TEST(JsonSerialize, EscapesSpecialCharacters) {
  Value v("line\n\"quote\"\t\\end");
  EXPECT_EQ(v.ToJson(), R"("line\n\"quote\"\t\\end")");
}

TEST(JsonSerialize, ControlCharactersAsUnicode) {
  Value v(std::string("\x01", 1));
  EXPECT_EQ(v.ToJson(), "\"\\u0001\"");
}

TEST(JsonSerialize, DoublesRoundTrip) {
  for (double d : {0.1, 1e-9, 12345.6789, -2.5e17, 3.0}) {
    Value v(d);
    Result<Value> back = json::Parse(v.ToJson());
    ASSERT_TRUE(back.ok()) << v.ToJson();
    EXPECT_DOUBLE_EQ(back->as_double(), d);
  }
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// Serializes `d` and parses it back; the double must come back bit for bit.
void ExpectBitExactRoundTrip(double d) {
  const std::string text = Value(d).ToJson();
  Result<Value> back = json::Parse(text);
  ASSERT_TRUE(back.ok()) << text;
  ASSERT_TRUE(back->is_double()) << text;
  EXPECT_EQ(Bits(back->as_double()), Bits(d)) << text;
}

TEST(JsonSerialize, DoublesAndWidenedFloatsRoundTripBitExactly) {
  const double min_sub = std::numeric_limits<double>::denorm_min();
  const float float_sub = std::numeric_limits<float>::denorm_min();
  for (double d : {0.0, -0.0, 1.0, -1.0, 3.0, 1e15, 1e16, 123456789.0,
                   9007199254740993.0, 1e300, -1e300, 1e-300, -1e-300,
                   min_sub, -min_sub, 3 * min_sub,
                   std::numeric_limits<double>::min() / 2,
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::lowest(),
                   std::numeric_limits<double>::min(), 0.1, 1.0 / 3.0,
                   static_cast<double>(float_sub),
                   static_cast<double>(std::numeric_limits<float>::max()),
                   static_cast<double>(0.1f)}) {
    ExpectBitExactRoundTrip(d);
  }
  Rng rng(0xd0b1e5);
  for (int i = 0; i < 20000; ++i) {
    // Any finite bit pattern: normals of every exponent, subnormals, and
    // whole numbers among the large ones.
    const double any = std::bit_cast<double>(rng.NextU64());
    if (std::isfinite(any)) ExpectBitExactRoundTrip(any);
    const float f = std::bit_cast<float>(static_cast<uint32_t>(rng.NextU64()));
    if (std::isfinite(f)) ExpectBitExactRoundTrip(static_cast<double>(f));
    ExpectBitExactRoundTrip(
        static_cast<double>(rng.NextInt(-1000000, 1000000)));
    ExpectBitExactRoundTrip((rng.NextDouble() - 0.5) *
                            std::pow(10.0, rng.NextInt(-30, 30)));
  }
}

/// Both stored forms of `v` — ToJson's sparse object and the dense array of
/// older rows — decode back to `v` bit for bit.
void ExpectEmbeddingRoundTrip(const embed::Vector& v) {
  for (const std::string& text : {embed::ToJson(v), DenseEmbeddingJson(v)}) {
    const embed::Vector back = embed::FromJson(text);
    ASSERT_EQ(back.size(), v.size()) << text.substr(0, 80);
    for (size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint32_t>(back[i]), std::bit_cast<uint32_t>(v[i]))
          << "dimension " << i << " of " << text.substr(0, 80);
    }
  }
}

TEST(JsonSerialize, EmbeddingSurvivesToJsonFromJsonBitExactly) {
  const embed::UnixcoderSim encoder;
  const embed::Vector v = encoder.EncodeText(
      "Checks whether a number is prime and returns it if so.");
  ASSERT_EQ(v.size(), 4096u);
  const size_t nonzero = static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [](float x) {
        return std::bit_cast<uint32_t>(x) != 0;
      }));
  EXPECT_GT(nonzero, 0u);
  ExpectEmbeddingRoundTrip(v);
  // The stored text lists only the non-zero dimensions.
  const std::string text = embed::ToJson(v);
  EXPECT_EQ(text.rfind("{\"dims\":4096,\"nz\":[[", 0), 0u) << text;
  EXPECT_EQ(static_cast<size_t>(std::count(text.begin(), text.end(), '[')),
            nonzero + 1);
  EXPECT_LT(text.size(), DenseEmbeddingJson(v).size() / 4);
}

TEST(JsonSerialize, SparseEmbeddingKeepsEveryNonZeroBitPattern) {
  const float flt_max = std::numeric_limits<float>::max();
  const float sub = std::numeric_limits<float>::denorm_min();
  const float big_sub = std::numeric_limits<float>::min() / 3.0f;
  // -0.0 has a sign bit, so it is stored and comes back as -0.0.
  ExpectEmbeddingRoundTrip({0.0f, -0.0f, sub, -sub, big_sub, flt_max,
                            -flt_max, 1.0f, 0.0f, -3.0f, 0.1f, 0.0f});
  EXPECT_EQ(embed::ToJson({0.0f, -0.0f, 1.5f, 0.0f, 2.0f}),
            R"({"dims":5,"nz":[[1,-0.0],[2,1.5],[4,2.0]]})");
  // An all-zero vector keeps its size with an empty list.
  ExpectEmbeddingRoundTrip(embed::Vector(4096, 0.0f));
  EXPECT_EQ(embed::ToJson(embed::Vector(4096, 0.0f)),
            R"({"dims":4096,"nz":[]})");
  ExpectEmbeddingRoundTrip({0.5f, -0.25f, 1.0f});
  Rng rng(0x5ba75e);
  embed::Vector random(4096, 0.0f);
  for (int i = 0; i < 200; ++i) {
    random[rng.NextBelow(random.size())] =
        std::bit_cast<float>(static_cast<uint32_t>(rng.NextU64()));
  }
  for (float& x : random) {
    if (!std::isfinite(x)) x = 1.0f;
  }
  ExpectEmbeddingRoundTrip(random);
}

TEST(JsonSerialize, NonFiniteBecomesNull) {
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).ToJson(), "null");
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).ToJson(), "null");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json::Parse("null")->is_null());
  EXPECT_EQ(json::Parse("true")->as_bool(), true);
  EXPECT_EQ(json::Parse("-17")->as_int(), -17);
  EXPECT_DOUBLE_EQ(json::Parse("2.5e2")->as_double(), 250.0);
  EXPECT_EQ(json::Parse(R"("s")")->as_string(), "s");
}

TEST(JsonParse, BigIntegerFallsBackToDouble) {
  Result<Value> v = json::Parse("99999999999999999999999999");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_double());
}

TEST(JsonParse, NestedDocument) {
  Result<Value> v = json::Parse(R"({"a":[1,{"b":null},"x"],"c":{"d":false}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->at("a").as_array()[2].as_string(), "x");
  EXPECT_TRUE(v->at("a").as_array()[1].at("b").is_null());
  EXPECT_FALSE(v->at("c").GetBool("d", true));
}

TEST(JsonParse, UnicodeEscapes) {
  Result<Value> v = json::Parse(R"("Aé")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "A\xc3\xa9");
}

TEST(JsonParse, SurrogatePairs) {
  Result<Value> v = json::Parse(R"("😀")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformed) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "01x", "\"unterminated",
        "[1] trailing", "{\"a\":1,}", "\"\\q\"", "nan", "[1 2]"}) {
    EXPECT_FALSE(json::Parse(bad).ok()) << bad;
  }
}

TEST(JsonParse, RejectsLoneSurrogate) {
  EXPECT_FALSE(json::Parse(R"("\ud800")").ok());
  EXPECT_FALSE(json::Parse(R"("\udc00")").ok());
}

TEST(JsonParse, RejectsRawControlInString) {
  std::string bad = "\"a\x01b\"";
  EXPECT_FALSE(json::Parse(bad).ok());
}

TEST(JsonParse, DeepNestingBounded) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(json::Parse(deep).ok());
}

TEST(JsonParse, DuplicateKeyKeepsFirstPositionAndLastValue) {
  Result<Value> small = json::Parse(R"({"a":1,"b":2,"a":3})");
  ASSERT_TRUE(small.ok());
  ASSERT_EQ(small->as_object().size(), 2u);
  EXPECT_EQ(small->as_object().begin()->first, "a");
  EXPECT_EQ((small->as_object().begin() + 1)->first, "b");
  EXPECT_EQ(small->GetInt("a"), 3);
  EXPECT_EQ(small->ToJson(), R"({"a":3,"b":2})");

  // Past the scanned size, duplicates are found through the key index,
  // including keys seen before the index was built.
  std::string text = "{";
  for (int i = 0; i < 40; ++i) {
    text += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
  }
  text += R"("k3":-3,"k39":-39,"k3":-33,"new":1})";
  Result<Value> large = json::Parse(text);
  ASSERT_TRUE(large.ok());
  ASSERT_EQ(large->as_object().size(), 41u);
  EXPECT_EQ((large->as_object().begin() + 3)->first, "k3");
  EXPECT_EQ(large->GetInt("k3"), -33);
  EXPECT_EQ((large->as_object().begin() + 39)->first, "k39");
  EXPECT_EQ(large->GetInt("k39"), -39);
  EXPECT_EQ((large->as_object().begin() + 40)->first, "new");
  EXPECT_EQ(large->GetInt("k20"), 20);
}

TEST(JsonParse, ObjectWithManyKeysParsesInLinearTime) {
  // A key-by-key scan makes this quadratic: minutes for 200k keys.
  constexpr int kKeys = 200'000;
  std::string text = "{";
  for (int i = 0; i < kKeys; ++i) {
    if (i > 0) text += ',';
    text += "\"" + std::to_string(i) + "\":" + std::to_string(i);
  }
  text += '}';
  const auto start = std::chrono::steady_clock::now();
  Result<Value> v = json::Parse(text);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_object().size(), static_cast<size_t>(kKeys));
  EXPECT_EQ(v->GetInt("123456"), 123456);
  EXPECT_LT(seconds, 20.0);
}

TEST(JsonRoundTrip, ComplexDocument) {
  Value doc = Value::MakeObject();
  doc["pes"] = Value::MakeArray();
  Value pe = Value::MakeObject();
  pe["name"] = "IsPrime";
  pe["params"]["seed"] = 42;
  doc["pes"].push_back(std::move(pe));
  doc["nested"]["arr"].push_back(Value(1.5));
  Result<Value> back = json::Parse(doc.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), doc);
  // Pretty form parses back to the same value too.
  Result<Value> pretty = json::Parse(doc.ToJsonPretty());
  ASSERT_TRUE(pretty.ok());
  EXPECT_EQ(pretty.value(), doc);
}

}  // namespace
}  // namespace laminar
