// Runtime-dispatched kernels: float32 dot products and one integer
// min-accumulate.
//
// Every Aroma recommendation and spt code search runs AddMinU8: SptIndex
// scores the postings of its common features from dense count columns
// (spt/index.hpp), one kernel call per column the query reads. The float
// kernels serve no server request: embed::Cosine runs Dot, for tests, and
// perfbench's traced pass times DotBatch. Semantic search and Figs. 10-13
// rank from postings (search/postings_index.hpp, bench/bench_quality.cpp).
// perfbench stamps every run with TierName(ActiveTier()), which the server
// also reports in /stats (search.simd.tier).
//
// The layer detects the widest vector unit the host offers (AVX-512F/BW,
// AVX2+FMA, or NEON) once at startup and routes three kernels through it:
//
//   Dot       one float32 dot product
//   DotBatch  one query against N contiguous float32 rows
//   AddMinU8  sums[i] += min(q, counts[i]) over uint64_t sums and byte
//             counts (the AVX-512 tier runs the AVX2 loop, NEON the
//             scalar one)
//
// The portable fallbacks are the 4x-unrolled scalar loop DotScalar and the
// plain loop AddMinU8Scalar, which are also the references the kernel tests
// compare every tier against (laminar_simd has no dependencies). AddMinU8 is
// integer arithmetic, so every tier equals AddMinU8Scalar exactly. Float
// results may differ from the scalar tier in the final ULPs on AVX tiers
// (FMA contracts the multiply-add), but a given tier is deterministic: the
// same inputs always produce the same bits, and DotBatch row i is
// bit-identical to Dot on that row.
//
// Dispatch is process-wide, resolved once on the first kernel call (safe
// when several threads make it at once). The environment variable
// LAMINAR_SIMD (scalar|avx2|avx512|neon|auto) pins a tier at startup — the
// force-scalar override the kernel test suite runs under — and SetTier()
// does the same programmatically for benches. SetTier is not safe
// concurrently with in-flight kernels; call it at startup or from
// single-threaded test/bench code only.
#pragma once

#include <cstddef>
#include <cstdint>

namespace laminar::simd {

/// Instruction-set tiers, widest last. Ordering is meaningful: dispatch
/// picks the largest supported value.
enum class Tier {
  kScalar = 0,  ///< portable 4x-unrolled loop (always available)
  kNeon = 1,    ///< aarch64 NEON (128-bit)
  kAvx2 = 2,    ///< x86 AVX2 + FMA (256-bit)
  kAvx512 = 3,  ///< x86 AVX-512 F+BW (512-bit)
};

/// "scalar" | "neon" | "avx2" | "avx512".
const char* TierName(Tier tier);

/// Widest tier this CPU supports (scalar when nothing wider is available).
Tier DetectedTier();

/// The tier kernels currently dispatch to. Resolved on first use from
/// DetectedTier() clamped by the LAMINAR_SIMD environment override.
Tier ActiveTier();

/// Forces dispatch onto `tier`, clamped to what the CPU supports; returns
/// the tier actually selected. kScalar always succeeds. Not thread-safe
/// against concurrently running kernels.
Tier SetTier(Tier tier);

/// Portable scalar reference kernel (four independent accumulators, scalar
/// tail), kept inline here so the scalar tier and the parity tests share one
/// definition.
inline float DotScalar(const float* a, const float* b, size_t n) {
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

/// Dispatched float32 dot product over `n` elements (no alignment
/// requirement on either pointer).
float Dot(const float* a, const float* b, size_t n);

/// Dispatched one-query-vs-N-rows scan: out[i] = Dot(query, rows + i*dims)
/// bit-for-bit (each row runs through the same per-row kernel as Dot).
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
