// Kernel-parity suite for the dispatched kernels.
//
// The dispatch contract under test: every tier's Dot agrees with the scalar
// reference within a documented FMA reassociation bound, the scalar tier is
// the reference bit for bit, DotBatch row i is bit-identical to Dot on
// that row, and every tier's AddMinU8 equals its scalar reference exactly.
//
// The whole binary is registered twice with ctest: once as `kernels_suite`
// (native dispatch) and once as `kernels_force_scalar` with
// LAMINAR_SIMD=scalar in the environment, which pins ActiveTier to the
// portable loop and re-proves the same contracts on the fallback path.
#include "simd/simd.hpp"

#include <cmath>
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
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kNeon,
                       simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::SetTier(t) == t) tiers.push_back(t);
  }
  simd::SetTier(before);
  return tiers;
}

/// FMA bound: wider tiers contract a*b+c into one rounding and reassociate
/// the reduction tree, so the scalar and SIMD sums can differ by a few ULPs
/// per accumulation step. |err| <= n * eps * sum(|a_i * b_i|) is a loose
/// but dimension-aware envelope (documented in simd.hpp: float results may
/// differ across tiers in the final ULPs; each tier is deterministic).
float FloatBound(const float* a, const float* b, size_t n) {
  float mag = 0.0f;
  for (size_t i = 0; i < n; ++i) mag += std::fabs(a[i] * b[i]);
  return static_cast<float>(n) * 1.19209290e-7f * mag + 1e-7f;
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

TEST(SimdKernels, FloatDotMatchesScalarWithinFmaBound) {
  Rng rng(0x5eed0001ULL);
  const simd::Tier before = simd::ActiveTier();
  for (size_t dims : kDims) {
    for (size_t off : kOffsets) {
      std::vector<float> a = RandomFloats(rng, dims + off);
      std::vector<float> b = RandomFloats(rng, dims + off);
      const float want = simd::DotScalar(a.data() + off, b.data() + off, dims);
      const float bound = FloatBound(a.data() + off, b.data() + off, dims);
      for (simd::Tier tier : AvailableTiers()) {
        ASSERT_EQ(simd::SetTier(tier), tier);
        const float got = simd::Dot(a.data() + off, b.data() + off, dims);
        EXPECT_NEAR(got, want, bound)
            << "tier=" << simd::TierName(tier) << " dims=" << dims
            << " off=" << off;
        if (tier == simd::Tier::kScalar) {
          // The scalar tier is not merely close — it IS the reference.
          EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0);
        }
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
  // Every length 0..257 crosses each tier's 32-, 16- and 8-byte blocks and
  // its scalar tail; the sums and counts start at independent unaligned
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
