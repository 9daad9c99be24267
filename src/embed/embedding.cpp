#include "embed/embedding.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>

#include "common/json.hpp"

namespace laminar::embed {

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
  // Written straight into one string, without a Value tree.
  size_t nonzero = 0;
  for (float x : v) nonzero += std::bit_cast<uint32_t>(x) != 0;
  std::string out;
  out.reserve(24 + nonzero * 24);
  char digits[24];
  out += "{\"dims\":";
  out.append(digits,
             std::to_chars(digits, digits + sizeof digits, v.size()).ptr);
  out += ",\"nz\":[";
  bool first = true;
  for (size_t i = 0; i < v.size(); ++i) {
    if (std::bit_cast<uint32_t>(v[i]) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    out.append(digits, std::to_chars(digits, digits + sizeof digits, i).ptr);
    out += ',';
    NumberInto(out, static_cast<double>(v[i]));
    out += ']';
  }
  out += "]}";
  return out;
}

namespace {

/// The largest `dims` a sparse row may declare: 256x the encoders' 4,096, and
/// small enough (4 MB) that a hostile row cannot exhaust memory.
constexpr int64_t kMaxSparseDims = int64_t{1} << 20;

Vector FromDense(const Value::Array& values) {
  Vector out;
  out.reserve(values.size());
  for (const Value& x : values) {
    if (!x.is_number()) return {};
    out.push_back(static_cast<float>(x.as_double()));
  }
  return out;
}

Vector FromSparse(const Value::Object& object) {
  const Value* dims = object.Find("dims");
  const Value* nz = object.Find("nz");
  if (object.size() != 2 || dims == nullptr || nz == nullptr) return {};
  // Bound dims before allocating anything.
  if (!dims->is_int() || dims->as_int() < 0 ||
      dims->as_int() > kMaxSparseDims || !nz->is_array()) {
    return {};
  }
  Vector out(static_cast<size_t>(dims->as_int()), 0.0f);
  int64_t previous = -1;
  for (const Value& pair : nz->as_array()) {
    if (!pair.is_array() || pair.size() != 2) return {};
    const Value& index = pair.as_array()[0];
    const Value& weight = pair.as_array()[1];
    // Strictly ascending indices also rule out duplicates.
    if (!index.is_int() || index.as_int() <= previous ||
        index.as_int() >= dims->as_int() || !weight.is_number()) {
      return {};
    }
    previous = index.as_int();
    out[static_cast<size_t>(previous)] = static_cast<float>(weight.as_double());
  }
  return out;
}

}  // namespace

Vector FromJson(std::string_view json_text) {
  Result<Value> parsed = json::Parse(json_text);
  if (!parsed.ok()) return {};
  if (parsed->is_object()) return FromSparse(parsed->as_object());
  if (parsed->is_array()) return FromDense(parsed->as_array());
  return {};
}

}  // namespace laminar::embed
