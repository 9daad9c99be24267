#include "embed/embedding.hpp"

#include <cmath>

#include "common/json.hpp"

namespace laminar::embed {

float Dot(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return 0.0f;
  return simd::Dot(a.data(), b.data(), a.size());
}

float Norm(std::span<const float> a) {
  float sum = 0.0f;
  for (float x : a) sum += x * x;
  return std::sqrt(sum);
}

void L2Normalize(Vector& v) {
  float n = Norm(v);
  if (n <= 0.0f) return;
  for (float& x : v) x /= n;
}

float Cosine(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size() || a.empty()) return 0.0f;
  float na = Norm(a);
  float nb = Norm(b);
  if (na <= 0.0f || nb <= 0.0f) return 0.0f;
  return simd::Dot(a.data(), b.data(), a.size()) / (na * nb);
}

std::string ToJson(const Vector& v) {
  Value arr = Value::MakeArray();
  for (float x : v) arr.push_back(static_cast<double>(x));
  return arr.ToJson();
}

Vector FromJson(std::string_view json_text) {
  Result<Value> parsed = json::Parse(json_text);
  if (!parsed.ok() || !parsed->is_array()) return {};
  Vector out;
  out.reserve(parsed->size());
  for (const Value& x : parsed->as_array()) {
    if (!x.is_number()) return {};
    out.push_back(static_cast<float>(x.as_double()));
  }
  return out;
}

}  // namespace laminar::embed
