// Deterministic, platform-independent hashing primitives.
//
// The embedding simulators (UnixcoderSim, ReaccSim) and the SPT feature index
// rely on *stable* hashes: two runs of any bench on any machine must produce
// identical feature vectors. std::hash gives no such guarantee, so everything
// hashes through FNV-1a / splitmix64 defined here.
#pragma once

#include <cstdint>
#include <string_view>

namespace laminar::hashing {

/// FNV-1a's 64-bit offset basis, the default seed of Fnv1a64.
inline constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over bytes. Stable across platforms and runs. The result
/// is the hash state after the last byte, so hashing can be streamed:
/// Fnv1a64(b, Fnv1a64(a, seed)) == Fnv1a64(a + b, seed), which lets a
/// caller hash a term piece by piece without concatenating it.
constexpr uint64_t Fnv1a64(std::string_view bytes,
                           uint64_t seed = kFnv1a64Offset) {
  uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// splitmix64 finalizer: decorrelates sequential/structured inputs. Used to
/// derive per-dimension signs and buckets from a single string hash.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-dependent combine (boost-style but 64-bit).
constexpr uint64_t Combine(uint64_t seed, uint64_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

}  // namespace laminar::hashing
