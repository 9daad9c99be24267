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

/// Serializes to the JSON array Laminar stores in the registry's
/// 'descriptionEmbedding' CLOB column.
std::string ToJson(const Vector& v);
/// Parses the JSON produced by ToJson; empty vector on malformed input.
Vector FromJson(std::string_view json_text);

}  // namespace laminar::embed
