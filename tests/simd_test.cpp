// Kernel-parity suite for the SIMD layer.
//
// The contract under test: every tier's AddMinU8 equals its scalar
// reference exactly, and the float dot is one loop whatever the tier —
// Dot and each DotBatch row give the same bits under every tier the host
// allows.
//
// The whole binary is registered three times with ctest: as `kernels_suite`
// (native dispatch), as `kernels_force_scalar` with LAMINAR_SIMD=scalar in
// the environment, which pins ActiveTier to the portable loop and re-proves
// the same contracts on the fallback path, and as
// `kernels_retired_tier_name` with LAMINAR_SIMD=avx512, a name that is not
// a tier and so means auto.
#include "simd/simd.hpp"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gtest/gtest.h"

namespace laminar {
namespace {

// Shapes chosen to cross every kernel boundary: sub-vector-width (1),
// odd with scalar tail (17, 63, 255), and exact unroll multiples (256).
const size_t kDims[] = {1, 17, 63, 255, 256};
// Start offsets into an over-allocated buffer: the kernels promise no
// alignment requirement, so unaligned bases must work and agree too.
const size_t kOffsets[] = {0, 1, 3};

std::vector<float> RandomFloats(Rng& rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
  return v;
}

/// Tiers the host can actually run, discovered through SetTier's clamping.
std::vector<simd::Tier> AvailableTiers() {
  const simd::Tier before = simd::ActiveTier();
  std::vector<simd::Tier> tiers;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (simd::SetTier(t) == t) tiers.push_back(t);
  }
  simd::SetTier(before);
  return tiers;
}

TEST(SimdDispatch, TierRoundTripsAndClampToScalarAlwaysWorks) {
  const simd::Tier before = simd::ActiveTier();
  EXPECT_EQ(simd::SetTier(simd::Tier::kScalar), simd::Tier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  EXPECT_STREQ(simd::TierName(simd::Tier::kScalar), "scalar");
  simd::SetTier(before);
  EXPECT_EQ(simd::ActiveTier(), before);
  // DetectedTier is a host property; whatever it is, it must be settable.
  EXPECT_EQ(simd::SetTier(simd::DetectedTier()), simd::DetectedTier());
  simd::SetTier(before);
}

TEST(SimdDispatch, EnvOverridePinsScalar) {
  // Under the kernels_force_scalar ctest entry LAMINAR_SIMD=scalar is set
  // before the process starts; dispatch must have resolved to the portable
  // loop. (Without the env var this test is a no-op.)
  const char* env = std::getenv("LAMINAR_SIMD");
  if (env != nullptr && std::string(env) == "scalar") {
    EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  }
}

TEST(SimdDispatch, NameThatIsNotATierMeansAuto) {
  // Under the kernels_retired_tier_name ctest entry LAMINAR_SIMD=avx512 is
  // set before the process starts; only scalar and avx2 name a tier, so
  // dispatch must have resolved to the host's own. (Without such a value
  // this test is a no-op.)
  const char* env = std::getenv("LAMINAR_SIMD");
  if (env != nullptr && std::string(env) != "scalar" &&
      std::string(env) != "avx2") {
    EXPECT_EQ(simd::ActiveTier(), simd::DetectedTier());
  }
}

TEST(SimdKernels, FloatDotSameBitsOnEveryTier) {
  Rng rng(0x5eed0001ULL);
  const simd::Tier before = simd::ActiveTier();
  for (size_t dims : kDims) {
    for (size_t off : kOffsets) {
      std::vector<float> a = RandomFloats(rng, dims + off);
      std::vector<float> b = RandomFloats(rng, dims + off);
      const float want = simd::Dot(a.data() + off, b.data() + off, dims);
      for (simd::Tier tier : AvailableTiers()) {
        ASSERT_EQ(simd::SetTier(tier), tier);
        float row = 0.0f;
        simd::DotBatch(a.data() + off, b.data() + off, 1, dims, &row);
        const float one = simd::Dot(a.data() + off, b.data() + off, dims);
        EXPECT_EQ(std::memcmp(&row, &want, sizeof(float)), 0)
            << "tier=" << simd::TierName(tier) << " dims=" << dims
            << " off=" << off;
        EXPECT_EQ(std::memcmp(&one, &want, sizeof(float)), 0)
            << "tier=" << simd::TierName(tier) << " dims=" << dims
            << " off=" << off;
      }
    }
  }
  simd::SetTier(before);
}

TEST(SimdKernels, DotBatchBitIdenticalToPerRowDot) {
  Rng rng(0x5eed0003ULL);
  const simd::Tier before = simd::ActiveTier();
  const size_t rows = 37;
  for (size_t dims : kDims) {
    std::vector<float> query = RandomFloats(rng, dims);
    std::vector<float> block = RandomFloats(rng, rows * dims);
    std::vector<float> out(rows);
    for (simd::Tier tier : AvailableTiers()) {
      ASSERT_EQ(simd::SetTier(tier), tier);
      simd::DotBatch(query.data(), block.data(), rows, dims, out.data());
      for (size_t r = 0; r < rows; ++r) {
        const float one =
            simd::Dot(query.data(), block.data() + r * dims, dims);
        ASSERT_EQ(std::memcmp(&out[r], &one, sizeof(float)), 0)
            << "tier=" << simd::TierName(tier) << " dims=" << dims
            << " row=" << r;
      }
    }
  }
  simd::SetTier(before);
}

TEST(SimdKernels, AddMinU8ExactOnEveryTier) {
  // Every length 0..257 crosses the AVX2 tier's 16-byte blocks and its
  // scalar tail; the sums and counts start at independent unaligned
  // offsets, the counts are mostly 0 and 255 with random bytes between, and
  // the sums start large, so a lane that drops a carry or a high byte
  // differs.
  Rng rng(0x5eed0004ULL);
  const simd::Tier before = simd::ActiveTier();
  for (size_t n = 0; n <= 257; ++n) {
    for (size_t off : kOffsets) {
      std::vector<uint8_t> counts(n + off);
      for (uint8_t& c : counts) {
        const uint64_t r = rng.NextBelow(4);
        c = r == 0   ? 0
            : r == 1 ? 255
                     : static_cast<uint8_t>(rng.NextBelow(256));
      }
      std::vector<uint64_t> start(n + off);
      for (uint64_t& x : start) x = rng.NextU64() >> 1;
      for (uint8_t q : {uint8_t{0}, uint8_t{1}, uint8_t{7}, uint8_t{255}}) {
        std::vector<uint64_t> want = start;
        simd::AddMinU8Scalar(want.data() + off, counts.data() + off, n, q);
        for (simd::Tier tier : AvailableTiers()) {
          ASSERT_EQ(simd::SetTier(tier), tier);
          std::vector<uint64_t> got = start;
          simd::AddMinU8(got.data() + off, counts.data() + off, n, q);
          ASSERT_EQ(got, want) << "tier=" << simd::TierName(tier)
                               << " n=" << n << " off=" << off
                               << " q=" << int{q};
        }
      }
    }
  }
  simd::SetTier(before);
}

}  // namespace
}  // namespace laminar
