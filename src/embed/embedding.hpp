// Dense embedding vectors and similarity math shared by the neural-model
// simulators (UnixcoderSim, ReaccSim) and the semantic search service.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "simd/simd.hpp"

namespace laminar::embed {

using Vector = std::vector<float>;

float Norm(std::span<const float> a);

/// In-place L2 normalization; zero vectors are left unchanged.
void L2Normalize(Vector& v);

/// Cosine similarity in [-1, 1]; 0 if either vector is zero or sizes differ.
/// The dot product runs on simd::Dot, which dispatches to AVX2/AVX-512/NEON
/// and falls back to the simd::DotScalar reference loop.
float Cosine(std::span<const float> a, std::span<const float> b);

/// Serializes to the text Laminar stores in the registry's
/// 'descriptionEmbedding' CLOB column: {"dims":N,"nz":[[i,w],...]}, the
/// entries whose bits are not all zero (so -0.0 is kept) in ascending index
/// order. The hashed encoders fill ~1-3% of their dimensions.
std::string ToJson(const Vector& v);
/// Decodes ToJson's sparse object, or the dense JSON array that rows written
/// before it carry, bit-exactly. The text comes from snapshot files, WAL
/// lines and leader fetches, so anything else — dims outside [0, 2^20], an
/// index out of range or not ascending, a pair that is not [int, number] —
/// returns an empty vector, which callers treat as "re-encode".
Vector FromJson(std::string_view json_text);

}  // namespace laminar::embed
