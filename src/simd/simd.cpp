#include "simd/simd.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define LAMINAR_SIMD_X86 1
#include <immintrin.h>
#endif

namespace laminar::simd {
namespace {

// ---------------------------------------------------------------------------
// The AVX2 tier. The kernel carries a target attribute instead of relying on
// a global -mavx2 flag, so one binary serves every x86 host and the
// dispatcher picks at runtime — non-AVX2 hosts never execute it. The tail
// stays scalar on purpose: a masked load would read (hardware-suppressed)
// bytes past the buffer, which sanitizer builds flag; the kernel suite runs
// under address,undefined.
// ---------------------------------------------------------------------------
#if LAMINAR_SIMD_X86

// The min runs on bytes, then each group of bytes is widened to uint64_t
// lanes and added to the sums.
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

using AddMinU8Fn = void (*)(uint64_t*, const uint8_t*, size_t, uint8_t);

struct KernelTable {
  AddMinU8Fn add_min_u8 = &AddMinU8Scalar;
  Tier tier = Tier::kScalar;
};

KernelTable TableFor([[maybe_unused]] Tier tier) {
#if LAMINAR_SIMD_X86
  if (tier == Tier::kAvx2) return {&AddMinU8Avx2, Tier::kAvx2};
#endif
  return {};
}

Tier Detect() {
#if LAMINAR_SIMD_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

Tier ParseTierName(const char* name) {
  if (std::strcmp(name, "scalar") == 0) return Tier::kScalar;
  if (std::strcmp(name, "avx2") == 0) return Tier::kAvx2;
  return Detect();  // "auto" or anything unrecognized
}

/// Clamps a requested tier to hardware support: an AVX2 request gets
/// whatever the host has.
Tier Clamp(Tier requested) {
  return requested == Tier::kAvx2 ? Detect() : Tier::kScalar;
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
  return tier == Tier::kAvx2 ? "avx2" : "scalar";
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

void DotBatch(const float* query, const float* rows, size_t n_rows,
              size_t dims, float* out) {
  for (size_t r = 0; r < n_rows; ++r) {
    out[r] = Dot(query, rows + r * dims, dims);
  }
}

void AddMinU8(uint64_t* sums, const uint8_t* counts, size_t n, uint8_t q) {
  Table()->add_min_u8(sums, counts, n, q);
}

}  // namespace laminar::simd
