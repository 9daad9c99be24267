// One runtime-dispatched kernel, AddMinU8, and the float dot product.
//
// Every Aroma recommendation and spt code search runs AddMinU8: SptIndex
// scores the postings of its common features from dense count columns
// (spt/index.hpp), one kernel call per column the query reads. The layer
// detects AVX2 once and routes the kernel to it:
//
//   AddMinU8  sums[i] += min(q, counts[i]) over uint64_t sums and byte
//             counts
//
// The portable fallback AddMinU8Scalar is also the reference the kernel
// tests compare the AVX2 tier against (laminar_simd has no dependencies).
// The kernel is integer arithmetic, so both tiers return the same sums.
//
// Dot and DotBatch are one plain loop, not dispatched, so a float dot gives
// the same bits whatever the host's vector unit. No server request runs
// them: embed::Cosine calls Dot, for tests, and perfbench's traced pass
// times DotBatch. Semantic search and Figs. 10-13 rank from postings
// (search/postings_index.hpp, bench/bench_quality.cpp). perfbench stamps
// every run with TierName(ActiveTier()), which the server also reports in
// /stats (search.simd.tier).
//
// Dispatch is process-wide, resolved once on the first kernel call (safe
// when several threads make it at once). The environment variable
// LAMINAR_SIMD (scalar|avx2|auto; any other name means auto) pins a tier at
// startup — the force-scalar override the kernel test suite runs under —
// and SetTier() does the same programmatically for benches. SetTier is not
// safe concurrently with in-flight kernels; call it at startup or from
// single-threaded test/bench code only.
#pragma once

#include <cstddef>
#include <cstdint>

namespace laminar::simd {

enum class Tier {
  kScalar,  ///< portable loop (always available)
  kAvx2,    ///< x86 AVX2 (256-bit)
};

/// "scalar" | "avx2".
const char* TierName(Tier tier);

/// AVX2 when this CPU supports it, else scalar.
Tier DetectedTier();

/// The tier the kernel currently dispatches to. Resolved on first use from
/// DetectedTier() clamped by the LAMINAR_SIMD environment override.
Tier ActiveTier();

/// Forces dispatch onto `tier`, clamped to what the CPU supports; returns
/// the tier actually selected. kScalar always succeeds. Not thread-safe
/// against concurrently running kernels.
Tier SetTier(Tier tier);

/// Float32 dot product over `n` elements (no alignment requirement): four
/// independent accumulators, then a scalar tail.
inline float Dot(const float* a, const float* b, size_t n) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  float s = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

/// One query against N contiguous rows: out[i] = Dot(query, rows + i*dims).
void DotBatch(const float* query, const float* rows, size_t n_rows,
              size_t dims, float* out);

/// Portable reference for AddMinU8, and its scalar tier.
inline void AddMinU8Scalar(uint64_t* sums, const uint8_t* counts, size_t n,
                           uint8_t q) {
  for (size_t i = 0; i < n; ++i) sums[i] += counts[i] < q ? counts[i] : q;
}

/// Dispatched sums[i] += min(q, counts[i]) for i < n (no alignment
/// requirement on either pointer). Exact on every tier.
void AddMinU8(uint64_t* sums, const uint8_t* counts, size_t n, uint8_t q);

}  // namespace laminar::simd
