#include "common/value.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace laminar {
namespace {

const Value& NullValue() {
  static const Value kNull;
  return kNull;
}
const std::string& EmptyString() {
  static const std::string kEmpty;
  return kEmpty;
}
const Value::Array& EmptyArray() {
  static const Value::Array kEmpty;
  return kEmpty;
}
const Value::Object& EmptyObject() {
  static const Value::Object kEmpty;
  return kEmpty;
}

void EscapeInto(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

}  // namespace

void NumberInto(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    out += "null";  // JSON has no NaN/Inf; match common serializer behaviour
    return;
  }
  // Without a precision, std::to_chars writes the shortest text that parses
  // back to exactly `d` (at most 24 characters for a double).
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof buf, d).ptr;
  const std::string_view text(buf, static_cast<size_t>(end - buf));
  out += text;
  // Whole values keep a ".0" so they re-parse as doubles, not ints —
  // type-preserving round trips matter for stored embeddings and specs.
  if (text.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

Value& ValueObject::operator[](const std::string& key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  entries_.emplace_back(key, Value());
  return entries_.back().second;
}

Value& ValueObject::Append(std::string key, Value value) {
  entries_.emplace_back(std::move(key), std::move(value));
  return entries_.back().second;
}

const Value* ValueObject::Find(std::string_view key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value* ValueObject::Find(std::string_view key) {
  for (auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void ValueObject::erase(std::string_view key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == key) {
      entries_.erase(it);
      return;
    }
  }
}

bool operator==(const ValueObject& a, const ValueObject& b) {
  return a.entries_ == b.entries_;
}

bool Value::as_bool(bool fallback) const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  if (const int64_t* i = std::get_if<int64_t>(&data_)) return *i != 0;
  return fallback;
}

int64_t Value::as_int(int64_t fallback) const {
  if (const int64_t* i = std::get_if<int64_t>(&data_)) return *i;
  if (const double* d = std::get_if<double>(&data_)) return static_cast<int64_t>(*d);
  if (const bool* b = std::get_if<bool>(&data_)) return *b ? 1 : 0;
  return fallback;
}

double Value::as_double(double fallback) const {
  if (const double* d = std::get_if<double>(&data_)) return *d;
  if (const int64_t* i = std::get_if<int64_t>(&data_)) return static_cast<double>(*i);
  return fallback;
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  return EmptyString();
}

const Value::Array& Value::as_array() const {
  if (const Array* a = std::get_if<Array>(&data_)) return *a;
  return EmptyArray();
}

Value::Array& Value::mutable_array() {
  if (!is_array()) data_ = Array{};
  return std::get<Array>(data_);
}

void Value::push_back(Value v) { mutable_array().push_back(std::move(v)); }

size_t Value::size() const {
  if (const Array* a = std::get_if<Array>(&data_)) return a->size();
  if (const Object* o = std::get_if<Object>(&data_)) return o->size();
  return 0;
}

const Value::Object& Value::as_object() const {
  if (const Object* o = std::get_if<Object>(&data_)) return *o;
  return EmptyObject();
}

Value::Object& Value::mutable_object() {
  if (!is_object()) data_ = Object{};
  return std::get<Object>(data_);
}

const Value& Value::at(std::string_view key) const {
  if (const Object* o = std::get_if<Object>(&data_)) {
    if (const Value* v = o->Find(key)) return *v;
  }
  return NullValue();
}

bool Value::contains(std::string_view key) const {
  const Object* o = std::get_if<Object>(&data_);
  return o != nullptr && o->contains(key);
}

std::string Value::GetString(std::string_view key, std::string fallback) const {
  const Value& v = at(key);
  return v.is_string() ? v.as_string() : std::move(fallback);
}

int64_t Value::GetInt(std::string_view key, int64_t fallback) const {
  const Value& v = at(key);
  return v.is_number() || v.is_bool() ? v.as_int(fallback) : fallback;
}

double Value::GetDouble(std::string_view key, double fallback) const {
  const Value& v = at(key);
  return v.is_number() ? v.as_double(fallback) : fallback;
}

bool Value::GetBool(std::string_view key, bool fallback) const {
  const Value& v = at(key);
  return v.is_bool() || v.is_int() ? v.as_bool(fallback) : fallback;
}

namespace {

void SerializeInto(std::string& out, const Value& v, int indent, int depth) {
  auto newline = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<size_t>(indent * d), ' ');
  };
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_int()) {
    out += std::to_string(v.as_int());
  } else if (v.is_double()) {
    NumberInto(out, v.as_double());
  } else if (v.is_string()) {
    EscapeInto(out, v.as_string());
  } else if (v.is_array()) {
    const auto& arr = v.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (size_t i = 0; i < arr.size(); ++i) {
      if (i) out += ',';
      newline(depth + 1);
      SerializeInto(out, arr[i], indent, depth + 1);
    }
    newline(depth);
    out += ']';
  } else {
    const auto& obj = v.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [k, val] : obj) {
      if (!first) out += ',';
      first = false;
      newline(depth + 1);
      EscapeInto(out, k);
      out += indent < 0 ? ":" : ": ";
      SerializeInto(out, val, indent, depth + 1);
    }
    newline(depth);
    out += '}';
  }
}

}  // namespace

std::string Value::ToJson() const {
  std::string out;
  SerializeInto(out, *this, /*indent=*/-1, 0);
  return out;
}

std::string Value::ToJsonPretty() const {
  std::string out;
  SerializeInto(out, *this, /*indent=*/2, 0);
  return out;
}

}  // namespace laminar
