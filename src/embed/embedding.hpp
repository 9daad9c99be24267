// Embedding vectors and similarity math shared by the neural-model
// simulators (UnixcoderSim, ReaccSim) and the semantic search service.
//
// The hashed encoders fill ~1-3% of their 4,096 dimensions, so every server
// path — encode, query cache, registration, the stored column and the
// postings index — carries a SparseVector. The dense Vector remains for
// the encoders' EncodeText/EncodeCode wrappers and the SIMD kernels behind
// Cosine.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "simd/simd.hpp"

namespace laminar::embed {

using Vector = std::vector<float>;

/// A `dims`-dimensional vector as its entries whose bits are not all zero
/// (so -0.0 is kept), in strictly ascending index order. Every producer —
/// the hashed encoders, FromJson — keeps that invariant, and the float
/// operations below visit entries in index order, so each result is
/// bit-identical to the same operation over the dense vector: a zero entry
/// only ever adds +0.0 to a sum.
struct SparseVector {
  struct Entry {
    uint32_t index = 0;
    float value = 0.0f;
    bool operator==(const Entry&) const = default;
  };
  size_t dims = 0;
  std::vector<Entry> entries;

  bool operator==(const SparseVector&) const = default;
};

float Norm(std::span<const float> a);
/// The float sum of x * x over the entries in index order, square-rooted:
/// bit-identical to Norm of the dense vector.
float Norm(const SparseVector& v);

/// In-place L2 normalization: each entry is divided, in float, by Norm(v),
/// and quotients that underflow to +0.0 are dropped. A norm <= 0 leaves the
/// vector unchanged. For every norm but NaN this equals normalizing the
/// dense vector, where a NaN norm would also turn the zeros into NaN. The
/// encoders never produce one: a sum of finite weights can reach ±Inf but
/// not NaN.
void L2Normalize(SparseVector& v);

/// The dense vector: `dims` floats, zero where `v` has no entry. Every
/// entry's index must be below `dims`, as every producer keeps it.
Vector ToDense(const SparseVector& v);

/// Cosine similarity in [-1, 1]; 0 if either vector is zero or sizes differ.
/// The dot product runs on simd::Dot, which dispatches to AVX2/AVX-512/NEON
/// and falls back to the simd::DotScalar reference loop. Search ranks
/// through search::PostingsIndex instead; this is for tests.
float Cosine(std::span<const float> a, std::span<const float> b);

/// Serializes to the text Laminar stores in the registry's
/// 'descriptionEmbedding' CLOB column: {"dims":N,"nz":[[i,w],...]}, the
/// entries whose bits are not all zero in ascending index order.
std::string ToJson(const SparseVector& v);
/// Decodes ToJson's sparse object, or the dense JSON array that rows written
/// before it carry, bit-exactly, in time and memory proportional to the
/// text: a sparse row's `dims` is never allocated. The text comes from
/// snapshot files, WAL lines and leader fetches, so anything else — dims
/// outside [0, 2^20], an index out of range or not ascending, a pair that is
/// not [int, number] — returns dims 0, which callers treat as "re-encode".
SparseVector FromJson(std::string_view json_text);

}  // namespace laminar::embed
