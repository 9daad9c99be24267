#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

namespace laminar::json {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    SkipWs();
    Result<Value> v = ParseValue(0);
    if (!v.ok()) return v;
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;
  static constexpr size_t kScannedKeys = 16;

  Status FailStatus(std::string msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }
  Result<Value> Fail(std::string msg) const { return FailStatus(std::move(msg)); }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<Value> ParseValue(int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (Eof()) return Fail("unexpected end of input");
    char c = Peek();
    switch (c) {
      case '{': return ParseObject(depth);
      case '[': return ParseArray(depth);
      case '"': {
        Result<std::string> s = ParseString();
        if (!s.ok()) return s.status();
        return Value(std::move(s.value()));
      }
      case 't':
        if (Consume("true")) return Value(true);
        return Fail("invalid literal");
      case 'f':
        if (Consume("false")) return Value(false);
        return Fail("invalid literal");
      case 'n':
        if (Consume("null")) return Value(nullptr);
        return Fail("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Value> ParseObject(int depth) {
    ++pos_;  // '{'
    Value obj = Value::MakeObject();
    ValueObject& fields = obj.mutable_object();
    // A duplicate key keeps its first position and takes the last value.
    // Small objects find it with ValueObject's scan; past kScannedKeys keys
    // a hash index of key -> position does, so a body of n keys parses in
    // O(n) rather than O(n^2).
    std::unordered_map<std::string, size_t> positions;
    SkipWs();
    if (!Eof() && Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWs();
      if (Eof() || Peek() != '"') return Fail("expected object key");
      Result<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (Eof() || Peek() != ':') return Fail("expected ':'");
      ++pos_;
      SkipWs();
      Result<Value> val = ParseValue(depth + 1);
      if (!val.ok()) return val;
      if (fields.size() < kScannedKeys) {
        fields[key.value()] = std::move(val.value());
      } else {
        if (positions.empty()) {
          for (const auto& field : fields) {
            positions.emplace(field.first, positions.size());
          }
        }
        auto [at, inserted] = positions.try_emplace(key.value(), fields.size());
        if (inserted) {
          fields.Append(std::move(key.value()), std::move(val.value()));
        } else {
          (fields.begin() + static_cast<std::ptrdiff_t>(at->second))->second =
              std::move(val.value());
        }
      }
      SkipWs();
      if (Eof()) return Fail("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return obj;
      }
      return Fail("expected ',' or '}'");
    }
  }

  Result<Value> ParseArray(int depth) {
    ++pos_;  // '['
    Value arr = Value::MakeArray();
    SkipWs();
    if (!Eof() && Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      SkipWs();
      Result<Value> val = ParseValue(depth + 1);
      if (!val.ok()) return val;
      arr.push_back(std::move(val.value()));
      SkipWs();
      if (Eof()) return Fail("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return arr;
      }
      return Fail("expected ',' or ']'");
    }
  }

  static void AppendUtf8(std::string& out, uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return FailStatus("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
      else return FailStatus("invalid hex digit in \\u escape");
    }
    pos_ += 4;
    return value;
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (Eof()) return FailStatus("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return FailStatus("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (Eof()) return FailStatus("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          Result<uint32_t> cp = ParseHex4();
          if (!cp.ok()) return cp.status();
          uint32_t code = cp.value();
          if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              Result<uint32_t> lo = ParseHex4();
              if (!lo.ok()) return lo.status();
              if (lo.value() >= 0xDC00 && lo.value() <= 0xDFFF) {
                code = 0x10000 + ((code - 0xD800) << 10) + (lo.value() - 0xDC00);
              } else {
                return FailStatus("invalid low surrogate");
              }
            } else {
              return FailStatus("lone high surrogate");
            }
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return FailStatus("lone low surrogate");
          }
          AppendUtf8(out, code);
          break;
        }
        default:
          return FailStatus("invalid escape character");
      }
    }
  }

  Result<Value> ParseNumber() {
    size_t start = pos_;
    if (!Eof() && Peek() == '-') ++pos_;
    bool has_digits = false;
    while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      ++pos_;
      has_digits = true;
    }
    if (!has_digits) return Fail("invalid number");
    bool is_double = false;
    if (!Eof() && Peek() == '.') {
      is_double = true;
      ++pos_;
      bool frac = false;
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
        frac = true;
      }
      if (!frac) return Fail("digits required after decimal point");
    }
    if (!Eof() && (Peek() == 'e' || Peek() == 'E')) {
      is_double = true;
      ++pos_;
      if (!Eof() && (Peek() == '+' || Peek() == '-')) ++pos_;
      bool exp = false;
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
        exp = true;
      }
      if (!exp) return Fail("digits required in exponent");
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (!is_double) {
      int64_t i = 0;
      auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), i);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Value(i);
      }
      // fall through to double on overflow
    }
    double d = std::strtod(std::string(token).c_str(), nullptr);
    return Value(d);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace laminar::json
