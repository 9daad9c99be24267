#include "simd/simd.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define LAMINAR_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define LAMINAR_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace laminar::simd {
namespace {

// ---------------------------------------------------------------------------
// x86 tiers. Each kernel carries a target attribute instead of relying on
// global -mavx* flags, so one binary holds every tier and the dispatcher
// picks at runtime — non-AVX hosts never execute a VEX instruction.
// Tails stay scalar on purpose: masked loads would be faster by a cycle or
// two but read (hardware-suppressed) bytes past the buffer, which sanitizer
// builds flag; the kernel suite runs under address,undefined.
// ---------------------------------------------------------------------------
#if LAMINAR_SIMD_X86

__attribute__((target("avx2,fma"))) inline float DotAvx2Row(const float* a,
                                                            const float* b,
                                                            size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  __m256 acc =
      _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
  __m128 s =
      _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  float sum = _mm_cvtss_f32(s);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("avx2,fma"))) float DotAvx2(const float* a,
                                                  const float* b, size_t n) {
  return DotAvx2Row(a, b, n);
}

__attribute__((target("avx2,fma"))) void DotBatchAvx2(const float* query,
                                                      const float* rows,
                                                      size_t n_rows,
                                                      size_t dims,
                                                      float* out) {
  for (size_t r = 0; r < n_rows; ++r) {
    out[r] = DotAvx2Row(query, rows + r * dims, dims);
  }
}

__attribute__((target("avx512f"))) inline float DotAvx512Row(const float* a,
                                                             const float* b,
                                                             size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  float sum = _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

__attribute__((target("avx512f"))) float DotAvx512(const float* a,
                                                   const float* b, size_t n) {
  return DotAvx512Row(a, b, n);
}

__attribute__((target("avx512f"))) void DotBatchAvx512(const float* query,
                                                       const float* rows,
                                                       size_t n_rows,
                                                       size_t dims,
                                                       float* out) {
  for (size_t r = 0; r < n_rows; ++r) {
    out[r] = DotAvx512Row(query, rows + r * dims, dims);
  }
}

// AddMinU8: the min runs on bytes, then each group of bytes is widened to
// uint64_t lanes and added to the sums.
__attribute__((target("avx2"))) inline void AddWidened4(uint64_t* sums,
                                                       __m128i counts) {
  __m256i* at = reinterpret_cast<__m256i*>(sums);
  _mm256_storeu_si256(at, _mm256_add_epi64(_mm256_loadu_si256(at),
                                           _mm256_cvtepu8_epi64(counts)));
}

__attribute__((target("avx2"))) void AddMinU8Avx2(uint64_t* sums,
                                                  const uint8_t* counts,
                                                  size_t n, uint8_t q) {
  const __m128i qv = _mm_set1_epi8(static_cast<char>(q));
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i c = _mm_min_epu8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(counts + i)), qv);
    AddWidened4(sums + i, c);
    AddWidened4(sums + i + 4, _mm_srli_si128(c, 4));
    AddWidened4(sums + i + 8, _mm_srli_si128(c, 8));
    AddWidened4(sums + i + 12, _mm_srli_si128(c, 12));
  }
  AddMinU8Scalar(sums + i, counts + i, n - i, q);
}

#endif  // LAMINAR_SIMD_X86

// ---------------------------------------------------------------------------
// NEON tier (aarch64: the ISA is baseline, no runtime probe needed).
// ---------------------------------------------------------------------------
#if LAMINAR_SIMD_NEON

inline float DotNeonRow(const float* a, const float* b, size_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  float32x4_t acc2 = vdupq_n_f32(0.0f);
  float32x4_t acc3 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc2 = vfmaq_f32(acc2, vld1q_f32(a + i + 8), vld1q_f32(b + i + 8));
    acc3 = vfmaq_f32(acc3, vld1q_f32(a + i + 12), vld1q_f32(b + i + 12));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float sum =
      vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

float DotNeon(const float* a, const float* b, size_t n) {
  return DotNeonRow(a, b, n);
}

void DotBatchNeon(const float* query, const float* rows, size_t n_rows,
                  size_t dims, float* out) {
  for (size_t r = 0; r < n_rows; ++r) {
    out[r] = DotNeonRow(query, rows + r * dims, dims);
  }
}

#endif  // LAMINAR_SIMD_NEON

float DotScalarImpl(const float* a, const float* b, size_t n) {
  return DotScalar(a, b, n);
}

void DotBatchScalar(const float* query, const float* rows, size_t n_rows,
                    size_t dims, float* out) {
  for (size_t r = 0; r < n_rows; ++r) {
    out[r] = DotScalar(query, rows + r * dims, dims);
  }
}

using DotFn = float (*)(const float*, const float*, size_t);
using DotBatchFn = void (*)(const float*, const float*, size_t, size_t,
                            float*);
using AddMinU8Fn = void (*)(uint64_t*, const uint8_t*, size_t, uint8_t);

struct KernelTable {
  DotFn dot = &DotScalarImpl;
  DotBatchFn dot_batch = &DotBatchScalar;
  AddMinU8Fn add_min_u8 = &AddMinU8Scalar;
  Tier tier = Tier::kScalar;
};

KernelTable TableFor(Tier tier) {
  KernelTable t;
  switch (tier) {
#if LAMINAR_SIMD_X86
    case Tier::kAvx512:
      // One x86 AddMinU8: a 512-bit one gained too little end to end to
      // keep (DESIGN.md §3j).
      t = {&DotAvx512, &DotBatchAvx512, &AddMinU8Avx2, Tier::kAvx512};
      break;
    case Tier::kAvx2:
      t = {&DotAvx2, &DotBatchAvx2, &AddMinU8Avx2, Tier::kAvx2};
      break;
#endif
#if LAMINAR_SIMD_NEON
    case Tier::kNeon:
      t = {&DotNeon, &DotBatchNeon, &AddMinU8Scalar, Tier::kNeon};
      break;
#endif
    default:
      break;  // scalar defaults already in place
  }
  return t;
}

Tier Detect() {
#if LAMINAR_SIMD_X86
  __builtin_cpu_init();
  // No kernel uses BW; it stays required so no host changes tier or rounding.
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw")) {
    return Tier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Tier::kAvx2;
  }
  return Tier::kScalar;
#elif LAMINAR_SIMD_NEON
  return Tier::kNeon;
#else
  return Tier::kScalar;
#endif
}

Tier ParseTierName(const char* name) {
  if (std::strcmp(name, "scalar") == 0) return Tier::kScalar;
  if (std::strcmp(name, "neon") == 0) return Tier::kNeon;
  if (std::strcmp(name, "avx2") == 0) return Tier::kAvx2;
  if (std::strcmp(name, "avx512") == 0) return Tier::kAvx512;
  return Detect();  // "auto" or anything unrecognized
}

/// Clamp a requested tier to hardware support. Requests for a different
/// architecture's tier (e.g. neon on x86) fall back to scalar rather than
/// silently upgrading.
Tier Clamp(Tier requested) {
  const Tier detected = Detect();
  if (requested == Tier::kScalar) return Tier::kScalar;
  if (requested == detected) return requested;
#if LAMINAR_SIMD_X86
  if (requested == Tier::kAvx2 && detected == Tier::kAvx512) {
    return Tier::kAvx2;  // narrower x86 tier on a wider x86 host is fine
  }
#endif
  if (static_cast<int>(requested) > static_cast<int>(detected)) {
    return detected;  // asked for wider than the host has
  }
  return Tier::kScalar;
}

Tier InitialTier() {
  const char* env = std::getenv("LAMINAR_SIMD");
  return env != nullptr ? Clamp(ParseTierName(env)) : Detect();
}

/// The process-wide kernel table: built once, on first use, honoring
/// LAMINAR_SIMD (a function-local static, so concurrent first calls wait
/// for one initialization), and rewritten in place by SetTier.
KernelTable* Table() {
  static KernelTable table = TableFor(InitialTier());
  return &table;
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kNeon:
      return "neon";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

Tier DetectedTier() { return Detect(); }

Tier ActiveTier() { return Table()->tier; }

Tier SetTier(Tier tier) {
  const Tier chosen = Clamp(tier);
  // Rewrite the single process-wide table in place: not safe against
  // concurrently executing kernels (documented), but keeps every later
  // reader on one coherent table without allocation.
  *Table() = TableFor(chosen);
  return chosen;
}

float Dot(const float* a, const float* b, size_t n) {
  return Table()->dot(a, b, n);
}

void DotBatch(const float* query, const float* rows, size_t n_rows,
              size_t dims, float* out) {
  Table()->dot_batch(query, rows, n_rows, dims, out);
}

void AddMinU8(uint64_t* sums, const uint8_t* counts, size_t n, uint8_t q) {
  Table()->add_min_u8(sums, counts, n, q);
}

}  // namespace laminar::simd
