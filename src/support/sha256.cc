#include "support/sha256.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace mpiwasm {
namespace {

constexpr std::array<u32, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline u32 rotr(u32 x, int n) { return (x >> n) | (x << (32 - n)); }

void blocks_portable(u32* state, const u8* p, size_t n) {
  for (; n > 0; --n, p += 64) {
    u32 w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (u32(p[4 * i]) << 24) | (u32(p[4 * i + 1]) << 16) |
             (u32(p[4 * i + 2]) << 8) | u32(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      u32 s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      u32 s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    u32 a = state[0], b = state[1], c = state[2], d = state[3];
    u32 e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      u32 s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      u32 ch = (e & f) ^ (~e & g);
      u32 t1 = h + s1 + ch + kK[i] + w[i];
      u32 s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      u32 maj = (a & b) ^ (a & c) ^ (b & c);
      u32 t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if defined(__x86_64__)
/// The same compression with the SHA extensions. sha256rnds2 runs two
/// rounds on the state split as ABEF/CDGH; sha256msg1/msg2 extend the
/// message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void blocks_sha_ni(u32* state,
                                                         const u8* p,
                                                         size_t n) {
  // Big-endian words within each 16-byte lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);
  for (; n > 0; --n, p += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    // msg[g % 4] holds schedule words 4g..4g+3 of the current group g.
    __m128i msg[4];
    for (int i = 0; i < 4; ++i)
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * i)), bswap);
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g >= 4) {
        __m128i w = _mm_sha256msg1_epu32(msg[g & 3], msg[(g + 1) & 3]);
        w = _mm_add_epi32(w, _mm_alignr_epi8(msg[(g + 3) & 3],
                                             msg[(g + 2) & 3], 4));
        msg[g & 3] = _mm_sha256msg2_epu32(w, msg[(g + 3) & 3]);
      }
      const __m128i wk = _mm_add_epi32(
          msg[g & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

using BlockFn = void (*)(u32* state, const u8* blocks, size_t n);

/// The SHA-extension block function when the CPU has SHA (cpuid leaf 7
/// EBX bit 29) and SSE4.1 (leaf 1 ECX bit 19), the portable one otherwise;
/// cpuid runs once per process.
BlockFn selected_blocks() {
  static const BlockFn selected = [] {
#if defined(__x86_64__)
    unsigned a = 0, b = 0, c = 0, d = 0;
    const bool sse41 =
        __get_cpuid(1, &a, &b, &c, &d) && (c & (1u << 19)) != 0;
    const bool sha =
        __get_cpuid_count(7, 0, &a, &b, &c, &d) && (b & (1u << 29)) != 0;
    if (sse41 && sha) return BlockFn(&blocks_sha_ni);
#endif
    return BlockFn(&blocks_portable);
  }();
  return selected;
}

}  // namespace

Sha256::Sha256() : Sha256(selected_blocks()) {}

Sha256::Sha256(BlockFn blocks)
    : blocks_(blocks),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(std::span<const u8> data) {
  total_len_ += data.size();
  size_t i = 0;
  if (buf_len_ > 0) {
    size_t take = std::min(data.size(), size_t(64) - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    i += take;
    if (buf_len_ == 64) {
      blocks_(state_.data(), buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  const size_t whole = (data.size() - i) / 64;
  if (whole > 0) {
    blocks_(state_.data(), data.data() + i, whole);
    i += 64 * whole;
  }
  if (i < data.size()) {
    std::memcpy(buf_.data(), data.data() + i, data.size() - i);
    buf_len_ = data.size() - i;
  }
}

Sha256Digest Sha256::finish() {
  u64 bit_len = total_len_ * 8;
  u8 pad[72] = {0x80};
  size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  update({pad, pad_len});
  u8 len_be[8];
  for (int i = 0; i < 8; ++i) len_be[i] = u8(bit_len >> (56 - 8 * i));
  update({len_be, 8});
  MW_CHECK(buf_len_ == 0, "sha256 padding logic");
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = u8(state_[i] >> 24);
    out.bytes[4 * i + 1] = u8(state_[i] >> 16);
    out.bytes[4 * i + 2] = u8(state_[i] >> 8);
    out.bytes[4 * i + 3] = u8(state_[i]);
  }
  return out;
}

Sha256Digest sha256(std::span<const u8> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest sha256_portable(std::span<const u8> data) {
  Sha256 h(&blocks_portable);
  h.update(data);
  return h.finish();
}

std::string Sha256Digest::hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(64);
  for (u8 b : bytes) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xf]);
  }
  return s;
}

}  // namespace mpiwasm
