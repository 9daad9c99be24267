#include <gtest/gtest.h>

#include <set>

#include "common/byte_buffer.hpp"
#include "common/hashing.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace laminar {
namespace {

// ---- Status / Result ----

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = Status::NotFound("no such PE");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NOT_FOUND: no such PE");
}

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(r.value_or(0), 7);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---- Hashing ----

TEST(Hashing, Fnv1aIsStable) {
  // Known-stable values: these must never change across platforms/builds,
  // since stored descriptionEmbedding dimensions depend on them.
  EXPECT_EQ(hashing::Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(hashing::Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(hashing::Fnv1a64("T:x"), hashing::Fnv1a64("T:y"));
}

TEST(Hashing, SeedNamespacesHashSpace) {
  EXPECT_NE(hashing::Fnv1a64("same", 1), hashing::Fnv1a64("same", 2));
}

TEST(Hashing, SplitMixDecorrelates) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) outputs.insert(hashing::SplitMix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

// ---- Rng ----

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(1), b(1);
  Rng fa = a.Fork(10), fb = b.Fork(10);
  EXPECT_EQ(fa.NextU64(), fb.NextU64());
}

// ---- ByteBuffer ----

TEST(ByteBuffer, RoundTripsAllTypes) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutString("hello\0world");  // embedded NUL truncated by string_view ctor
  ByteReader r(w.data());
  EXPECT_EQ(r.GetU8().value(), 0xAB);
  EXPECT_EQ(r.GetU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.GetString().value(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteBuffer, BinarySafeStrings) {
  ByteWriter w;
  std::string binary("\x00\x01\xFF\x7F", 4);
  w.PutString(binary);
  ByteReader r(w.data());
  EXPECT_EQ(r.GetString().value(), binary);
}

TEST(ByteBuffer, LittleEndianLayout) {
  ByteWriter w;
  w.PutU32(0x01020304);
  const std::string& bytes = w.data();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(bytes[3]), 0x01);
}

TEST(ByteBuffer, TruncationDetected) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(std::string_view(w.data()).substr(0, 2));
  EXPECT_FALSE(r.GetU32().ok());
}

TEST(ByteBuffer, StringLengthBeyondBufferDetected) {
  ByteWriter w;
  w.PutU32(1000);  // claims 1000 bytes follow
  w.PutRaw("short");
  ByteReader r(w.data());
  EXPECT_FALSE(r.GetString().ok());
}

}  // namespace
}  // namespace laminar
