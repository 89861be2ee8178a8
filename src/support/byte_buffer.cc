#include "support/byte_buffer.h"

namespace mpiwasm {

void ByteReader::seek(size_t pos) {
  if (pos > data_.size()) throw DecodeError("seek past end");
  pos_ = pos;
}

void ByteReader::skip(size_t n) {
  if (n > remaining()) throw DecodeError("skip past end");
  pos_ += n;
}

void ByteReader::fail_end() { throw DecodeError("unexpected end of input"); }

u32 ByteReader::read_u32_le() {
  if (remaining() < 4) throw DecodeError("unexpected end of input (u32)");
  u32 v;
  std::memcpy(&v, data_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

u64 ByteReader::read_u64_le() {
  if (remaining() < 8) throw DecodeError("unexpected end of input (u64)");
  u64 v;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

f32 ByteReader::read_f32_le() { return std::bit_cast<f32>(read_u32_le()); }
f64 ByteReader::read_f64_le() { return std::bit_cast<f64>(read_u64_le()); }

u32 ByteReader::read_leb_u32_slow() {
  u32 result = 0;
  int shift = 0;
  for (int i = 0; i < 5; ++i) {
    u8 byte = read_u8();
    result |= u32(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (i == 4 && (byte & 0xf0) != 0) throw DecodeError("LEB u32 overflow");
      return result;
    }
    shift += 7;
  }
  throw DecodeError("LEB u32 too long");
}

u64 ByteReader::read_leb_u64_slow() {
  u64 result = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    u8 byte = read_u8();
    result |= u64(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (i == 9 && (byte & 0x7e) != 0) throw DecodeError("LEB u64 overflow");
      return result;
    }
    shift += 7;
  }
  throw DecodeError("LEB u64 too long");
}

i32 ByteReader::read_leb_i32_slow() {
  u32 result = 0;
  int shift = 0;
  for (int i = 0; i < 5; ++i) {
    u8 byte = read_u8();
    result |= u32(byte & 0x7f) << shift;
    shift += 7;
    if ((byte & 0x80) == 0) {
      // The 5th byte carries bits 28-31; its bits 4-6 must repeat bit 3,
      // the sign.
      if (i == 4 && (byte & 0x70) != ((byte & 0x08) ? 0x70 : 0))
        throw DecodeError("LEB i32 overflow");
      if (shift < 32 && (byte & 0x40)) result |= ~0u << shift;
      return i32(result);
    }
  }
  throw DecodeError("LEB i32 too long");
}

i64 ByteReader::read_leb_i64_slow() {
  u64 result = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    u8 byte = read_u8();
    result |= u64(byte & 0x7f) << shift;
    shift += 7;
    if ((byte & 0x80) == 0) {
      // The 10th byte carries bit 63 only; bits 1-6 must repeat it.
      if (i == 9 && byte != 0x00 && byte != 0x7f)
        throw DecodeError("LEB i64 overflow");
      if (shift < 64 && (byte & 0x40)) result |= ~0ull << shift;
      return i64(result);
    }
  }
  throw DecodeError("LEB i64 too long");
}

std::span<const u8> ByteReader::read_bytes(size_t n) {
  if (n > remaining()) throw DecodeError("unexpected end of input (bytes)");
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string ByteReader::read_name() {
  u32 len = read_leb_u32();
  auto b = read_bytes(len);
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

void ByteWriter::write_u32_le(u32 v) {
  size_t at = buf_.size();
  buf_.resize(at + 4);
  std::memcpy(buf_.data() + at, &v, 4);
}

void ByteWriter::write_u64_le(u64 v) {
  size_t at = buf_.size();
  buf_.resize(at + 8);
  std::memcpy(buf_.data() + at, &v, 8);
}

void ByteWriter::write_f32_le(f32 v) { write_u32_le(std::bit_cast<u32>(v)); }
void ByteWriter::write_f64_le(f64 v) { write_u64_le(std::bit_cast<u64>(v)); }

void ByteWriter::write_leb_u32(u32 v) {
  do {
    u8 byte = v & 0x7f;
    v >>= 7;
    if (v != 0) byte |= 0x80;
    buf_.push_back(byte);
  } while (v != 0);
}

void ByteWriter::write_leb_u64(u64 v) {
  do {
    u8 byte = v & 0x7f;
    v >>= 7;
    if (v != 0) byte |= 0x80;
    buf_.push_back(byte);
  } while (v != 0);
}

void ByteWriter::write_leb_i32(i32 v) {
  bool more = true;
  while (more) {
    u8 byte = v & 0x7f;
    v >>= 7;  // arithmetic shift
    if ((v == 0 && !(byte & 0x40)) || (v == -1 && (byte & 0x40))) {
      more = false;
    } else {
      byte |= 0x80;
    }
    buf_.push_back(byte);
  }
}

void ByteWriter::write_leb_i64(i64 v) {
  bool more = true;
  while (more) {
    u8 byte = v & 0x7f;
    v >>= 7;
    if ((v == 0 && !(byte & 0x40)) || (v == -1 && (byte & 0x40))) {
      more = false;
    } else {
      byte |= 0x80;
    }
    buf_.push_back(byte);
  }
}

void ByteWriter::write_bytes(std::span<const u8> b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void ByteWriter::write_name(const std::string& s) {
  write_leb_u32(u32(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

size_t ByteWriter::reserve_leb_u32() {
  size_t at = buf_.size();
  for (int i = 0; i < 5; ++i) buf_.push_back(0x80);
  buf_.back() = 0x00;
  return at;
}

void ByteWriter::patch_u32_le(size_t at, u32 v) {
  MW_CHECK(at + 4 <= buf_.size(), "patch out of range");
  std::memcpy(buf_.data() + at, &v, 4);
}

void ByteWriter::patch_leb_u32_fixed5(size_t at, u32 v) {
  MW_CHECK(at + 5 <= buf_.size(), "patch out of range");
  for (int i = 0; i < 4; ++i) {
    buf_[at + i] = u8((v & 0x7f) | 0x80);
    v >>= 7;
  }
  buf_[at + 4] = u8(v & 0x7f);
}

}  // namespace mpiwasm
