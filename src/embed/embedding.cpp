#include "embed/embedding.hpp"

#include <bit>
#include <charconv>
#include <cmath>

#include "common/json.hpp"

namespace laminar::embed {
namespace {

bool NonZeroBits(float x) { return std::bit_cast<uint32_t>(x) != 0; }

}  // namespace

float Norm(std::span<const float> a) {
  float sum = 0.0f;
  for (float x : a) sum += x * x;
  return std::sqrt(sum);
}

float Norm(const SparseVector& v) {
  float sum = 0.0f;
  for (const SparseVector::Entry& e : v.entries) sum += e.value * e.value;
  return std::sqrt(sum);
}

void L2Normalize(SparseVector& v) {
  const float n = Norm(v);
  if (n <= 0.0f) return;
  for (SparseVector::Entry& e : v.entries) e.value /= n;
  std::erase_if(v.entries, [](const SparseVector::Entry& e) {
    return !NonZeroBits(e.value);
  });
}

Vector ToDense(const SparseVector& v) {
  Vector out(v.dims, 0.0f);
  for (const SparseVector::Entry& e : v.entries) out[e.index] = e.value;
  return out;
}

float Cosine(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size() || a.empty()) return 0.0f;
  float na = Norm(a);
  float nb = Norm(b);
  if (na <= 0.0f || nb <= 0.0f) return 0.0f;
  return simd::Dot(a.data(), b.data(), a.size()) / (na * nb);
}

std::string ToJson(const SparseVector& v) {
  // Written straight into one string, without a Value tree.
  std::string out;
  out.reserve(24 + v.entries.size() * 24);
  char digits[24];
  out += "{\"dims\":";
  out.append(digits,
             std::to_chars(digits, digits + sizeof digits, v.dims).ptr);
  out += ",\"nz\":[";
  bool first = true;
  for (const SparseVector::Entry& e : v.entries) {
    if (!NonZeroBits(e.value)) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    out.append(digits,
               std::to_chars(digits, digits + sizeof digits, e.index).ptr);
    out += ',';
    NumberInto(out, static_cast<double>(e.value));
    out += ']';
  }
  out += "]}";
  return out;
}

namespace {

/// The largest `dims` a sparse row may declare: 256x the encoders' 4,096.
/// Decoding never allocates it, but the bound keeps indices in uint32_t and
/// a hostile row from posing as a vector no encoder makes.
constexpr int64_t kMaxSparseDims = int64_t{1} << 20;

/// The legacy dense array. Its length is bounded by the text, so the index
/// of a parsed element fits uint32_t (2^32 elements would not fit memory).
SparseVector FromDense(const Value::Array& values) {
  SparseVector out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (!values[i].is_number()) return {};
    const float x = static_cast<float>(values[i].as_double());
    if (NonZeroBits(x)) {
      out.entries.push_back({static_cast<uint32_t>(i), x});
    }
  }
  out.dims = values.size();
  return out;
}

SparseVector FromSparse(const Value::Object& object) {
  const Value* dims = object.Find("dims");
  const Value* nz = object.Find("nz");
  if (object.size() != 2 || dims == nullptr || nz == nullptr) return {};
  if (!dims->is_int() || dims->as_int() < 0 ||
      dims->as_int() > kMaxSparseDims || !nz->is_array()) {
    return {};
  }
  SparseVector out;
  out.entries.reserve(nz->size());
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
    const float x = static_cast<float>(weight.as_double());
    // A listed +0.0 is the dense zero it stands for: no entry.
    if (NonZeroBits(x)) {
      out.entries.push_back({static_cast<uint32_t>(previous), x});
    }
  }
  out.dims = static_cast<size_t>(dims->as_int());
  return out;
}

}  // namespace

SparseVector FromJson(std::string_view json_text) {
  Result<Value> parsed = json::Parse(json_text);
  if (!parsed.ok()) return {};
  if (parsed->is_object()) return FromSparse(parsed->as_object());
  if (parsed->is_array()) return FromDense(parsed->as_array());
  return {};
}

}  // namespace laminar::embed
