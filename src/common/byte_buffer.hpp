// Endian-stable binary encoding helpers for the wire protocol (src/net).
//
// All integers are encoded little-endian regardless of host order so that
// captured frames compare byte-identical in tests on any platform.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace laminar {

/// Append-only encoder.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_ += static_cast<char>(v); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_ += static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_ += static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  /// Length-prefixed (u32) byte string.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void PutRaw(std::string_view s) { buf_.append(s.data(), s.size()); }
  void Reserve(size_t n) { buf_.reserve(n); }

  const std::string& data() const& { return buf_; }
  std::string Take() && { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked decoder over a borrowed view.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8() {
    if (pos_ + 1 > data_.size()) return Truncated();
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint32_t> GetU32() {
    if (pos_ + 4 > data_.size()) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)])) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  Result<uint64_t> GetU64() {
    if (pos_ + 8 > data_.size()) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + static_cast<size_t>(i)])) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  Result<std::string> GetString() {
    Result<uint32_t> len = GetU32();
    if (!len.ok()) return len.status();
    if (pos_ + len.value() > data_.size()) return Truncated();
    std::string out(data_.substr(pos_, len.value()));
    pos_ += len.value();
    return out;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Truncated() const {
    return Status::ParseError("truncated buffer at offset " + std::to_string(pos_));
  }
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace laminar
