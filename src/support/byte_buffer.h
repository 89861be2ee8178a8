// Bounds-checked byte reading/writing used by the Wasm binary decoder,
// the module builder, and the compiled-code cache serializer.
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "support/common.h"

namespace mpiwasm {

/// Error raised when a reader runs past the end of its input or decodes a
/// malformed variable-length integer. Decoding errors are recoverable; the
/// Wasm decoder converts them into Status values at the module boundary.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Sequential reader over a non-owning byte span.
class ByteReader {
 public:
  ByteReader() = default;
  explicit ByteReader(std::span<const u8> data) : data_(data) {}

  size_t pos() const { return pos_; }
  size_t size() const { return data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ >= data_.size(); }

  void seek(size_t pos);
  void skip(size_t n);

  // The byte and LEB128 readers are inline for the in-bounds, single-byte
  // case (most of a function body); the rest is out of line.
  u8 read_u8() {
    if (pos_ >= data_.size()) [[unlikely]] fail_end();
    return data_[pos_++];
  }
  u8 peek_u8() const {
    if (pos_ >= data_.size()) [[unlikely]] fail_end();
    return data_[pos_];
  }
  u32 read_u32_le();
  u64 read_u64_le();
  f32 read_f32_le();
  f64 read_f64_le();

  /// LEB128 readers (unsigned/signed, 32/64-bit), per the Wasm spec: an
  /// encoding longer than the type's ceil(bits / 7) bytes, or whose last
  /// byte has bits beyond the type's width that are not zero (unsigned) or
  /// copies of its sign bit (signed), throws DecodeError.
  u32 read_leb_u32() {
    if (pos_ < data_.size() && data_[pos_] < 0x80) [[likely]]
      return data_[pos_++];
    return read_leb_u32_slow();
  }
  u64 read_leb_u64() {
    if (pos_ < data_.size() && data_[pos_] < 0x80) [[likely]]
      return data_[pos_++];
    return read_leb_u64_slow();
  }
  i32 read_leb_i32() {
    // One byte holds 7 bits; bit 6 is the sign.
    if (pos_ < data_.size() && data_[pos_] < 0x80) [[likely]]
      return i32(u32(data_[pos_++]) << 25) >> 25;
    return read_leb_i32_slow();
  }
  i64 read_leb_i64() {
    if (pos_ < data_.size() && data_[pos_] < 0x80) [[likely]]
      return i64(u64(data_[pos_++]) << 57) >> 57;
    return read_leb_i64_slow();
  }

  std::span<const u8> read_bytes(size_t n);
  std::string read_name();  // LEB length-prefixed UTF-8 name

 private:
  [[noreturn]] static void fail_end();
  u32 read_leb_u32_slow();
  u64 read_leb_u64_slow();
  i32 read_leb_i32_slow();
  i64 read_leb_i64_slow();

  std::span<const u8> data_;
  size_t pos_ = 0;
};

/// Append-only byte writer; the inverse of ByteReader.
class ByteWriter {
 public:
  const std::vector<u8>& bytes() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

  void write_u8(u8 v) { buf_.push_back(v); }
  void write_u32_le(u32 v);
  void write_u64_le(u64 v);
  void write_f32_le(f32 v);
  void write_f64_le(f64 v);
  void write_leb_u32(u32 v);
  void write_leb_u64(u64 v);
  void write_leb_i32(i32 v);
  void write_leb_i64(i64 v);
  void write_bytes(std::span<const u8> b);
  void write_name(const std::string& s);

  /// Overwrites the 4 bytes at `at` (written earlier) with `v`.
  void patch_u32_le(size_t at, u32 v);
  /// Patches a previously reserved fixed-width 32-bit LEB at `at`.
  void patch_leb_u32_fixed5(size_t at, u32 v);
  /// Reserves 5 bytes for a later patch_leb_u32_fixed5 and returns offset.
  size_t reserve_leb_u32();

 private:
  std::vector<u8> buf_;
};

}  // namespace mpiwasm
