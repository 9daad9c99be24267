// laminar::Value — the dynamic datum that flows through workflows and wire
// protocols.
//
// dispel4py PEs exchange arbitrary Python objects; the registry stores JSON
// metadata; the client/server protocol carries JSON bodies. Value is the
// single JSON-isomorphic variant all three share: null, bool, int64, double,
// string, array, object (string-keyed, insertion-ordered for deterministic
// serialization).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace laminar {

class Value;

/// Insertion-ordered string->Value map. Determinism matters: serialized
/// objects are hashed (resource cache keys) and diffed in tests.
class ValueObject {
 public:
  Value& operator[](const std::string& key);
  /// Appends `key` without looking for it first; the caller guarantees it
  /// is absent (the JSON parser, which indexes the keys of large objects).
  Value& Append(std::string key, Value value);
  const Value* Find(std::string_view key) const;
  Value* Find(std::string_view key);
  bool contains(std::string_view key) const { return Find(key) != nullptr; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void erase(std::string_view key);

  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

  friend bool operator==(const ValueObject& a, const ValueObject& b);

 private:
  std::vector<std::pair<std::string, Value>> entries_;
};

class Value {
 public:
  using Array = std::vector<Value>;
  using Object = ValueObject;

  Value() = default;  // null
  Value(std::nullptr_t) {}                                       // NOLINT
  Value(bool b) : data_(b) {}                                    // NOLINT
  Value(int i) : data_(static_cast<int64_t>(i)) {}               // NOLINT
  Value(int64_t i) : data_(i) {}                                 // NOLINT
  Value(size_t i) : data_(static_cast<int64_t>(i)) {}            // NOLINT
  Value(double d) : data_(d) {}                                  // NOLINT
  Value(const char* s) : data_(std::string(s)) {}                // NOLINT
  Value(std::string s) : data_(std::move(s)) {}                  // NOLINT
  Value(std::string_view s) : data_(std::string(s)) {}           // NOLINT
  Value(Array a) : data_(std::move(a)) {}                        // NOLINT
  Value(Object o) : data_(std::move(o)) {}                       // NOLINT

  static Value MakeArray() { return Value(Array{}); }
  static Value MakeObject() { return Value(Object{}); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }

  bool as_bool(bool fallback = false) const;
  int64_t as_int(int64_t fallback = 0) const;
  double as_double(double fallback = 0.0) const;
  const std::string& as_string() const;  // empty string if not a string

  /// Array access; all return empty/fallback values on type mismatch so
  /// protocol handlers can be written without pre-checking every field.
  const Array& as_array() const;
  Array& mutable_array();  ///< converts to array if not already one
  void push_back(Value v);
  size_t size() const;

  /// Object access.
  const Object& as_object() const;
  Object& mutable_object();  ///< converts to object if not already one
  Value& operator[](const std::string& key) { return mutable_object()[key]; }
  /// Null constant if missing or not an object.
  const Value& at(std::string_view key) const;
  bool contains(std::string_view key) const;

  /// Typed field getters used pervasively by the server layer.
  std::string GetString(std::string_view key, std::string fallback = "") const;
  int64_t GetInt(std::string_view key, int64_t fallback = 0) const;
  double GetDouble(std::string_view key, double fallback = 0.0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.data_ == b.data_;
  }

  /// Compact JSON encoding (no insignificant whitespace, keys in insertion
  /// order, UTF-8 passthrough, \uXXXX escapes for control characters).
  std::string ToJson() const;
  /// Pretty-printed JSON with 2-space indentation.
  std::string ToJsonPretty() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string, Array,
               Object>
      data_;
};

/// Appends the JSON text Value::ToJson writes for the double `d`, for
/// writers that emit JSON without building a Value tree.
void NumberInto(std::string& out, double d);

}  // namespace laminar
