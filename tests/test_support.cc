// Unit tests for the support library: LEB128, SHA-256, statistics, the
// parallel loop.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/byte_buffer.h"
#include "support/parallel.h"
#include "support/sha256.h"
#include "support/stats.h"
#include "support/timing.h"

namespace mpiwasm {
namespace {

TEST(Leb128, UnsignedRoundTrip) {
  for (u32 v : std::vector<u32>{0, 1, 127, 128, 300, 16383, 16384,
                                0x7FFFFFFF, 0xFFFFFFFF}) {
    ByteWriter w;
    w.write_leb_u32(v);
    ByteReader r({w.bytes().data(), w.bytes().size()});
    EXPECT_EQ(r.read_leb_u32(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Leb128, SignedRoundTrip) {
  for (i32 v : std::vector<i32>{0, 1, -1, 63, 64, -64, -65, 127, -128,
                                0x7FFFFFFF, i32(0x80000000)}) {
    ByteWriter w;
    w.write_leb_i32(v);
    ByteReader r({w.bytes().data(), w.bytes().size()});
    EXPECT_EQ(r.read_leb_i32(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Leb128, Signed64RoundTrip) {
  for (i64 v : std::vector<i64>{0, -1, 1LL << 40, -(1LL << 40),
                                INT64_MAX, INT64_MIN}) {
    ByteWriter w;
    w.write_leb_i64(v);
    ByteReader r({w.bytes().data(), w.bytes().size()});
    EXPECT_EQ(r.read_leb_i64(), v);
  }
}

TEST(Leb128, RejectsOverlongU32) {
  // 6-byte continuation chain overflows the 5-byte u32 limit.
  std::vector<u8> bytes{0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  ByteReader r({bytes.data(), bytes.size()});
  EXPECT_THROW(r.read_leb_u32(), DecodeError);
}

TEST(Leb128, RejectsU32HighBitsSet) {
  // 5th byte carries bits >= 2^32.
  std::vector<u8> bytes{0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  ByteReader r({bytes.data(), bytes.size()});
  EXPECT_THROW(r.read_leb_u32(), DecodeError);
}

// The last byte of a maximal signed LEB holds the top bits of the value;
// its unused bits must repeat the sign bit (0 or all ones).
TEST(Leb128, RejectsSignedLastByteThatDoesNotSignExtend) {
  const std::vector<std::vector<u8>> bad_i32 = {
      {0x80, 0x80, 0x80, 0x80, 0x4f},  // sign 1, bits 4-6 = 100
      {0x80, 0x80, 0x80, 0x80, 0x1f},  // sign 1, bits 4-6 = 001
      {0x80, 0x80, 0x80, 0x80, 0x70},  // sign 0, bits 4-6 = 111
  };
  for (const auto& bytes : bad_i32) {
    ByteReader r({bytes.data(), bytes.size()});
    EXPECT_THROW(r.read_leb_i32(), DecodeError);
  }
  std::vector<u8> bad_i64(9, 0x80);
  bad_i64.push_back(0x02);  // sign 0, bit 1 set
  ByteReader r({bad_i64.data(), bad_i64.size()});
  EXPECT_THROW(r.read_leb_i64(), DecodeError);
}

TEST(Leb128, AcceptsSignedLastByteThatSignExtends) {
  const std::vector<u8> i32_min{0x80, 0x80, 0x80, 0x80, 0x78};
  ByteReader r32({i32_min.data(), i32_min.size()});
  EXPECT_EQ(r32.read_leb_i32(), INT32_MIN);
  EXPECT_TRUE(r32.done());
  const std::vector<u8> i32_max{0xff, 0xff, 0xff, 0xff, 0x07};
  ByteReader r32max({i32_max.data(), i32_max.size()});
  EXPECT_EQ(r32max.read_leb_i32(), INT32_MAX);

  std::vector<u8> i64_min(9, 0x80);
  i64_min.push_back(0x7f);
  ByteReader r64({i64_min.data(), i64_min.size()});
  EXPECT_EQ(r64.read_leb_i64(), INT64_MIN);
  EXPECT_TRUE(r64.done());
  std::vector<u8> i64_zero(9, 0x80);
  i64_zero.push_back(0x00);
  ByteReader r64z({i64_zero.data(), i64_zero.size()});
  EXPECT_EQ(r64z.read_leb_i64(), 0);
}

// The single-byte fast paths and the multi-byte slow paths agree, and a
// truncated encoding fails with the same error from either.
TEST(Leb128, SingleByteValuesAndTruncation) {
  for (u8 b = 0; b < 0x80; ++b) {
    const std::vector<u8> bytes{b};
    ByteReader ru({bytes.data(), bytes.size()});
    EXPECT_EQ(ru.read_leb_u32(), b);
    ByteReader ru64({bytes.data(), bytes.size()});
    EXPECT_EQ(ru64.read_leb_u64(), b);
    const i32 s = b < 0x40 ? i32(b) : i32(b) - 0x80;
    ByteReader ri({bytes.data(), bytes.size()});
    EXPECT_EQ(ri.read_leb_i32(), s);
    ByteReader ri64({bytes.data(), bytes.size()});
    EXPECT_EQ(ri64.read_leb_i64(), s);
  }
  for (const std::vector<u8>& bytes :
       {std::vector<u8>{}, std::vector<u8>{0x80}, std::vector<u8>{0xff, 0xff}}) {
    ByteReader r({bytes.data(), bytes.size()});
    try {
      r.read_leb_i32();
      ADD_FAILURE() << "truncated LEB accepted";
    } catch (const DecodeError& e) {
      EXPECT_STREQ(e.what(), "unexpected end of input");
    }
  }
}

TEST(ByteReader, BoundsChecked) {
  std::vector<u8> bytes{1, 2, 3};
  ByteReader r({bytes.data(), bytes.size()});
  r.skip(2);
  EXPECT_EQ(r.read_u8(), 3);
  EXPECT_THROW(r.read_u8(), DecodeError);
  EXPECT_THROW(r.read_u32_le(), DecodeError);
}

TEST(ByteWriter, Patching) {
  ByteWriter w;
  size_t at = w.reserve_leb_u32();
  w.write_u8(0xAA);
  w.patch_leb_u32_fixed5(at, 1234567);
  ByteReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_EQ(r.read_leb_u32(), 1234567u);
  EXPECT_EQ(r.read_u8(), 0xAA);
}

TEST(Sha256, KnownVectors) {
  // Empty string.
  EXPECT_EQ(sha256({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  // "abc".
  const char* abc = "abc";
  EXPECT_EQ(sha256({reinterpret_cast<const u8*>(abc), 3}).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::vector<u8> data(1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = u8(i * 7);
  Sha256 h;
  h.update({data.data(), 13});
  h.update({data.data() + 13, 400});
  h.update({data.data() + 413, data.size() - 413});
  EXPECT_EQ(h.finish().hex(), sha256({data.data(), data.size()}).hex());
}

TEST(Sha256, MultiBlockBoundary) {
  // Exactly 64 bytes forces a full-block + padding-only-block path.
  std::vector<u8> data(64, 0x61);  // "aaaa..."
  EXPECT_EQ(sha256({data.data(), data.size()}).hex(),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

// sha256() takes the SHA-extension path on CPUs that have it; each case
// below also runs the portable reference, so both paths are checked on
// such hosts.
TEST(Sha256, Fips180Vectors) {
  struct Case {
    std::string msg;
    const char* hex;
  };
  const Case cases[] = {
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const Case& c : cases) {
    const std::span<const u8> msg{reinterpret_cast<const u8*>(c.msg.data()),
                                  c.msg.size()};
    EXPECT_EQ(sha256(msg).hex(), c.hex) << c.msg.size() << " bytes";
    EXPECT_EQ(sha256_portable(msg).hex(), c.hex) << c.msg.size() << " bytes";
  }
}

TEST(Sha256, EveryLengthUpTo4096MatchesThePortableReference) {
  std::mt19937_64 rng(4096);
  std::vector<u8> data(4096);
  for (u8& b : data) b = u8(rng());
  for (size_t len = 0; len <= data.size(); ++len) {
    const std::span<const u8> msg{data.data(), len};
    ASSERT_EQ(sha256(msg), sha256_portable(msg)) << len << " bytes";
  }
}

TEST(Sha256, RandomIncrementalSplitsMatchThePortableReference) {
  std::mt19937_64 rng(256);
  std::vector<u8> data(4096);
  for (u8& b : data) b = u8(rng());
  for (int trial = 0; trial < 500; ++trial) {
    const size_t len = rng() % (data.size() + 1);
    Sha256 h;
    for (size_t at = 0; at < len;) {
      const size_t piece = std::min<size_t>(len - at, rng() % 200);
      h.update({data.data() + at, piece});
      at += piece;
    }
    ASSERT_EQ(h.finish(), sha256_portable({data.data(), len}))
        << "trial " << trial << ", " << len << " bytes";
  }
}

TEST(Stats, RunningStat) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({1.0, 4.0}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({2.0, 0.0}), 0.0);  // non-positive -> 0
}

TEST(Stats, GmSlowdownMatchesPaperConvention) {
  // Wasm 5% slower at every size: ratios native/wasm = 1/1.05.
  std::vector<double> ratios(10, 1.0 / 1.05);
  EXPECT_NEAR(gm_slowdown_from_time_ratios(ratios), 0.0476, 1e-3);
}

TEST(Stats, GmSpeedup) {
  std::vector<double> base{4.0, 4.0}, subj{1.0, 4.0};
  EXPECT_DOUBLE_EQ(gm_speedup(base, subj), 2.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.5);
}

TEST(Timing, SpinForApproximatesTarget) {
  Stopwatch sw;
  spin_for_ns(200'000);  // 200us
  EXPECT_GE(sw.elapsed_ns(), 200'000u);
}

TEST(ParallelFor, CallsEveryIndexExactlyOnce) {
  constexpr u32 kN = 1000;
  std::vector<std::atomic<u32>> calls(kN);
  parallel_for(
      kN, 10, [](u32) { return u64(1); },
      [&](u32 i) { calls[i].fetch_add(1); });
  for (u32 i = 0; i < kN; ++i) EXPECT_EQ(calls[i].load(), 1u) << i;
}

TEST(ParallelFor, WorkUnderTwoChunksStaysOnTheCallingThread) {
  std::set<std::thread::id> ids;
  // 199 units with 100-unit chunks: one full chunk plus a lighter tail.
  parallel_for(
      199, 100, [](u32) { return u64(1); },
      [&](u32) { ids.insert(std::this_thread::get_id()); });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ParallelFor, SpreadsChunksOverHelpers) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  if (CPU_COUNT(&set) < 2) GTEST_SKIP() << "one CPU in the affinity mask";
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(
      200, 1, [](u32) { return u64(1); },
      [&](u32) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      });
  EXPECT_GT(ids.size(), 1u);
  EXPECT_LE(ids.size(), size_t(CPU_COUNT(&set)));
}

TEST(ParallelFor, RethrowsTheLowestFailingIndex) {
  for (int run = 0; run < 20; ++run) {
    try {
      parallel_for(
          1000, 10, [](u32) { return u64(1); },
          [](u32 i) {
            if (i == 37 || i == 512 || i == 990)
              throw std::runtime_error(std::to_string(i));
          });
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "37");
    }
  }
}

}  // namespace
}  // namespace mpiwasm
