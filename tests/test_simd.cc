// Differential SIMD (v128) suite.
//
// Every v128 instruction is checked against an independent scalar reference
// evaluator (plain per-lane loops written here, not the runtime's arith.h
// helpers), across every engine configuration (all three tiers). On top of
// the per-op sweep: scalar-vs-SIMD micro-kernel twins (bit-exact for
// element-wise and integer kernels, ULP-bounded for reassociated float
// reductions), and OOB-trap-point equivalence for v128 accesses, which
// native code leaves to the memory's guard region.
#include "testlib.h"

#include <cmath>
#include <cstring>
#include <random>

#include "runtime/memory.h"
#include "toolchain/kernels.h"

namespace mpiwasm::test {
namespace {

using rt::EngineConfig;
using rt::Trap;
using rt::TrapKind;
using wasm::V128;

// --- independent per-lane reference helpers --------------------------------

template <typename T, int N>
T get_lane(const V128& v, int i) {
  T x;
  std::memcpy(&x, v.bytes + i * sizeof(T), sizeof(T));
  return x;
}
template <typename T, int N>
void put_lane(V128& v, int i, T x) {
  std::memcpy(v.bytes + i * sizeof(T), &x, sizeof(T));
}

template <typename T, int N, typename F>
V128 map1(const V128& a, F f) {
  V128 out{};
  for (int i = 0; i < N; ++i) put_lane<T, N>(out, i, T(f(get_lane<T, N>(a, i))));
  return out;
}
template <typename T, int N, typename F>
V128 map2(const V128& a, const V128& b, F f) {
  V128 out{};
  for (int i = 0; i < N; ++i)
    put_lane<T, N>(out, i, T(f(get_lane<T, N>(a, i), get_lane<T, N>(b, i))));
  return out;
}
template <typename T, int N, typename F>
V128 mask2(const V128& a, const V128& b, F pred) {
  using U = std::make_unsigned_t<
      std::conditional_t<std::is_floating_point_v<T>,
                         std::conditional_t<sizeof(T) == 4, u32, u64>, T>>;
  V128 out{};
  for (int i = 0; i < N; ++i)
    put_lane<U, N>(out, i,
                   pred(get_lane<T, N>(a, i), get_lane<T, N>(b, i)) ? U(~U(0))
                                                                    : U(0));
  return out;
}

// --- interesting input vectors ---------------------------------------------

std::vector<V128> test_vectors() {
  std::vector<V128> vs;
  V128 v{};
  vs.push_back(v);  // all zeros
  std::memset(v.bytes, 0xFF, 16);
  vs.push_back(v);  // all ones
  for (int i = 0; i < 16; ++i) v.bytes[i] = u8(i * 17 + 3);
  vs.push_back(v);  // counting bytes
  // Integer sign boundaries in every lane width.
  put_lane<u32, 4>(v, 0, 0x80000000u);
  put_lane<u32, 4>(v, 1, 0x7FFFFFFFu);
  put_lane<u32, 4>(v, 2, 1u);
  put_lane<u32, 4>(v, 3, 0xFFFFFFFFu);
  vs.push_back(v);
  // Float specials: NaN, -0.0, inf, denormal.
  put_lane<f64, 2>(v, 0, std::numeric_limits<f64>::quiet_NaN());
  put_lane<f64, 2>(v, 1, -0.0);
  vs.push_back(v);
  put_lane<f32, 4>(v, 0, std::numeric_limits<f32>::infinity());
  put_lane<f32, 4>(v, 1, -std::numeric_limits<f32>::infinity());
  put_lane<f32, 4>(v, 2, 1.5f);
  put_lane<f32, 4>(v, 3, -2.5e-40f);
  vs.push_back(v);
  std::mt19937_64 rng(42);
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i < 2; ++i) put_lane<u64, 2>(v, i, rng());
    vs.push_back(v);
  }
  return vs;
}

// --- module factories -------------------------------------------------------

constexpr u32 kInA = 0x100, kInB = 0x110, kInC = 0x120, kOut = 0x140;

std::vector<u8> binop_module(Op op) {
  return build_single_func({{}, {}}, [&](auto& f) {
    f.i32_const(i32(kOut));
    f.i32_const(i32(kInA));
    f.mem_op(Op::kV128Load);
    f.i32_const(i32(kInB));
    f.mem_op(Op::kV128Load);
    f.op(op);
    f.mem_op(Op::kV128Store);
    f.end();
  });
}

std::vector<u8> unop_module(Op op) {
  return build_single_func({{}, {}}, [&](auto& f) {
    f.i32_const(i32(kOut));
    f.i32_const(i32(kInA));
    f.mem_op(Op::kV128Load);
    f.op(op);
    f.mem_op(Op::kV128Store);
    f.end();
  });
}

std::vector<u8> shift_module(Op op) {
  return build_single_func({{I32}, {}}, [&](auto& f) {
    f.i32_const(i32(kOut));
    f.i32_const(i32(kInA));
    f.mem_op(Op::kV128Load);
    f.local_get(0);
    f.op(op);
    f.mem_op(Op::kV128Store);
    f.end();
  });
}

std::vector<u8> reduce_i32_module(Op op) {  // any_true / all_true family
  return build_single_func({{}, {I32}}, [&](auto& f) {
    f.i32_const(i32(kInA));
    f.mem_op(Op::kV128Load);
    f.op(op);
    f.end();
  });
}

/// Copies the inputs into linear memory, invokes "run", and reads the
/// 16-byte result back from kOut. Reusing one instance across input sets
/// also runs the body its first call built on the later sets.
V128 run_on(rt::Instance& inst, const V128& a, const V128& b, const V128& c,
            const std::vector<rt::Value>& args = {}) {
  u8* mem = inst.memory().base();
  std::memcpy(mem + kInA, a.bytes, 16);
  std::memcpy(mem + kInB, b.bytes, 16);
  std::memcpy(mem + kInC, c.bytes, 16);
  inst.invoke("run", args);
  V128 out{};
  std::memcpy(out.bytes, mem + kOut, 16);
  return out;
}

V128 run_v128(const std::vector<u8>& bytes, const EngineConfig& cfg,
              const V128& a, const V128& b, const V128& c,
              const std::vector<rt::Value>& args = {}) {
  auto inst = instantiate_cfg(bytes, cfg);
  return run_on(*inst, a, b, c, args);
}

/// Lane comparison mode: 'b' = exact bytes; 'f'/'d' = f32/f64 lanes where
/// two NaNs compare equal regardless of payload (Wasm arithmetic may return
/// any NaN, and host addss/addps operand order legitimately picks different
/// payloads than the reference loop).
bool v128_lanes_equal(const V128& got, const V128& want, char mode) {
  if (mode == 'b') return got == want;
  int lanes = mode == 'f' ? 4 : 2;
  for (int i = 0; i < lanes; ++i) {
    if (mode == 'f') {
      f32 g = get_lane<f32, 4>(got, i), w = get_lane<f32, 4>(want, i);
      if (std::isnan(g) && std::isnan(w)) continue;
      if (std::memcmp(&g, &w, 4) != 0) return false;
    } else {
      f64 g = get_lane<f64, 2>(got, i), w = get_lane<f64, 2>(want, i);
      if (std::isnan(g) && std::isnan(w)) continue;
      if (std::memcmp(&g, &w, 8) != 0) return false;
    }
  }
  return true;
}

void expect_v128_eq(const V128& got, const V128& want, const std::string& what,
                    char mode = 'b') {
  if (!v128_lanes_equal(got, want, mode)) {
    char buf[8];
    std::string g, w;
    for (int i = 0; i < 16; ++i) {
      std::snprintf(buf, sizeof buf, "%02x", got.bytes[i]);
      g += buf;
      std::snprintf(buf, sizeof buf, "%02x", want.bytes[i]);
      w += buf;
    }
    ADD_FAILURE() << what << ": got " << g << ", want " << w;
  }
}

// ---------------------------------------------------------------------------
// Per-op differential sweep
// ---------------------------------------------------------------------------

struct BinCase {
  Op op;
  V128 (*ref)(const V128&, const V128&);
  char mode = 'b';  // see v128_lanes_equal
};

#define ARITH2(T, N, expr) \
  [](const V128& a, const V128& b) { return map2<T, N>(a, b, [](T x, T y) { (void)x; (void)y; return (expr); }); }
#define CMP2(T, N, expr) \
  [](const V128& a, const V128& b) { return mask2<T, N>(a, b, [](T x, T y) { return (expr); }); }

const BinCase kBinCases[] = {
    {Op::kV128And, ARITH2(u8, 16, u8(x & y))},
    {Op::kV128AndNot, ARITH2(u8, 16, u8(x & ~y))},
    {Op::kV128Or, ARITH2(u8, 16, u8(x | y))},
    {Op::kV128Xor, ARITH2(u8, 16, u8(x ^ y))},
    {Op::kI8x16Add, ARITH2(u8, 16, u8(x + y))},
    {Op::kI8x16Sub, ARITH2(u8, 16, u8(x - y))},
    {Op::kI16x8Add, ARITH2(u16, 8, u16(x + y))},
    {Op::kI16x8Sub, ARITH2(u16, 8, u16(x - y))},
    {Op::kI16x8Mul, ARITH2(u16, 8, u16(x * y))},
    {Op::kI32x4Add, ARITH2(u32, 4, x + y)},
    {Op::kI32x4Sub, ARITH2(u32, 4, x - y)},
    {Op::kI32x4Mul, ARITH2(u32, 4, x* y)},
    {Op::kI32x4MinS, ARITH2(i32, 4, x < y ? x : y)},
    {Op::kI32x4MinU, ARITH2(u32, 4, x < y ? x : y)},
    {Op::kI32x4MaxS, ARITH2(i32, 4, x > y ? x : y)},
    {Op::kI32x4MaxU, ARITH2(u32, 4, x > y ? x : y)},
    {Op::kI64x2Add, ARITH2(u64, 2, x + y)},
    {Op::kI64x2Sub, ARITH2(u64, 2, x - y)},
    {Op::kI64x2Mul, ARITH2(u64, 2, x* y)},
    {Op::kF32x4Add, ARITH2(f32, 4, x + y), 'f'},
    {Op::kF32x4Sub, ARITH2(f32, 4, x - y), 'f'},
    {Op::kF32x4Mul, ARITH2(f32, 4, x* y), 'f'},
    {Op::kF32x4Div, ARITH2(f32, 4, x / y), 'f'},
    {Op::kF32x4Pmin, ARITH2(f32, 4, y < x ? y : x), 'f'},
    {Op::kF32x4Pmax, ARITH2(f32, 4, x < y ? y : x), 'f'},
    {Op::kF64x2Add, ARITH2(f64, 2, x + y), 'd'},
    {Op::kF64x2Sub, ARITH2(f64, 2, x - y), 'd'},
    {Op::kF64x2Mul, ARITH2(f64, 2, x* y), 'd'},
    {Op::kF64x2Div, ARITH2(f64, 2, x / y), 'd'},
    {Op::kF64x2Pmin, ARITH2(f64, 2, y < x ? y : x), 'd'},
    {Op::kF64x2Pmax, ARITH2(f64, 2, x < y ? y : x), 'd'},
    {Op::kI8x16Eq, CMP2(u8, 16, x == y)},
    {Op::kI8x16Ne, CMP2(u8, 16, x != y)},
    {Op::kI8x16LtS, CMP2(i8, 16, x < y)},
    {Op::kI8x16LtU, CMP2(u8, 16, x < y)},
    {Op::kI8x16GtS, CMP2(i8, 16, x > y)},
    {Op::kI8x16GtU, CMP2(u8, 16, x > y)},
    {Op::kI8x16LeS, CMP2(i8, 16, x <= y)},
    {Op::kI8x16LeU, CMP2(u8, 16, x <= y)},
    {Op::kI8x16GeS, CMP2(i8, 16, x >= y)},
    {Op::kI8x16GeU, CMP2(u8, 16, x >= y)},
    {Op::kI16x8Eq, CMP2(u16, 8, x == y)},
    {Op::kI16x8Ne, CMP2(u16, 8, x != y)},
    {Op::kI16x8LtS, CMP2(i16, 8, x < y)},
    {Op::kI16x8LtU, CMP2(u16, 8, x < y)},
    {Op::kI16x8GtS, CMP2(i16, 8, x > y)},
    {Op::kI16x8GtU, CMP2(u16, 8, x > y)},
    {Op::kI16x8LeS, CMP2(i16, 8, x <= y)},
    {Op::kI16x8LeU, CMP2(u16, 8, x <= y)},
    {Op::kI16x8GeS, CMP2(i16, 8, x >= y)},
    {Op::kI16x8GeU, CMP2(u16, 8, x >= y)},
    {Op::kI32x4Eq, CMP2(u32, 4, x == y)},
    {Op::kI32x4Ne, CMP2(u32, 4, x != y)},
    {Op::kI32x4LtS, CMP2(i32, 4, x < y)},
    {Op::kI32x4LtU, CMP2(u32, 4, x < y)},
    {Op::kI32x4GtS, CMP2(i32, 4, x > y)},
    {Op::kI32x4GtU, CMP2(u32, 4, x > y)},
    {Op::kI32x4LeS, CMP2(i32, 4, x <= y)},
    {Op::kI32x4LeU, CMP2(u32, 4, x <= y)},
    {Op::kI32x4GeS, CMP2(i32, 4, x >= y)},
    {Op::kI32x4GeU, CMP2(u32, 4, x >= y)},
    {Op::kF32x4Eq, CMP2(f32, 4, x == y)},
    {Op::kF32x4Ne, CMP2(f32, 4, x != y)},
    {Op::kF32x4Lt, CMP2(f32, 4, x < y)},
    {Op::kF32x4Gt, CMP2(f32, 4, x > y)},
    {Op::kF32x4Le, CMP2(f32, 4, x <= y)},
    {Op::kF32x4Ge, CMP2(f32, 4, x >= y)},
    {Op::kF64x2Eq, CMP2(f64, 2, x == y)},
    {Op::kF64x2Ne, CMP2(f64, 2, x != y)},
    {Op::kF64x2Lt, CMP2(f64, 2, x < y)},
    {Op::kF64x2Gt, CMP2(f64, 2, x > y)},
    {Op::kF64x2Le, CMP2(f64, 2, x <= y)},
    {Op::kF64x2Ge, CMP2(f64, 2, x >= y)},
};

TEST(SimdDifferential, LanewiseBinopsAndComparisons) {
  auto vecs = test_vectors();
  for (const BinCase& bc : kBinCases) {
    auto bytes = binop_module(bc.op);
    for (const EngineConfig& cfg : all_engine_configs()) {
      auto inst = instantiate_cfg(bytes, cfg);
      for (size_t i = 0; i + 1 < vecs.size(); ++i) {
        V128 got = run_on(*inst, vecs[i], vecs[i + 1], V128{});
        V128 want = bc.ref(vecs[i], vecs[i + 1]);
        expect_v128_eq(got, want,
                       std::string(wasm::op_name(bc.op)) + " under " +
                           config_label(cfg),
                       bc.mode);
      }
    }
  }
}

struct UnCase {
  Op op;
  V128 (*ref)(const V128&);
};

#define ARITH1(T, N, expr) \
  [](const V128& a) { return map1<T, N>(a, [](T x) { (void)x; return (expr); }); }

const UnCase kUnCases[] = {
    {Op::kV128Not, ARITH1(u8, 16, u8(~x))},
    {Op::kI8x16Neg, ARITH1(u8, 16, u8(0u - x))},
    {Op::kI8x16Abs, ARITH1(i8, 16, i8(x < 0 ? u8(0u - u8(x)) : u8(x)))},
    {Op::kI16x8Neg, ARITH1(u16, 8, u16(0u - x))},
    {Op::kI16x8Abs, ARITH1(i16, 8, i16(x < 0 ? u16(0u - u16(x)) : u16(x)))},
    {Op::kI32x4Neg, ARITH1(u32, 4, 0u - x)},
    {Op::kI32x4Abs, ARITH1(i32, 4, i32(x < 0 ? 0u - u32(x) : u32(x)))},
    {Op::kI64x2Neg, ARITH1(u64, 2, u64(0) - x)},
    {Op::kI64x2Abs, ARITH1(i64, 2, i64(x < 0 ? u64(0) - u64(x) : u64(x)))},
    {Op::kF32x4Neg, ARITH1(f32, 4, -x)},
    {Op::kF32x4Abs, ARITH1(f32, 4, std::fabs(x))},
    {Op::kF32x4Sqrt, ARITH1(f32, 4, std::sqrt(x))},
    {Op::kF64x2Neg, ARITH1(f64, 2, -x)},
    {Op::kF64x2Abs, ARITH1(f64, 2, std::fabs(x))},
    {Op::kF64x2Sqrt, ARITH1(f64, 2, std::sqrt(x))},
};

TEST(SimdDifferential, LanewiseUnops) {
  auto vecs = test_vectors();
  for (const UnCase& uc : kUnCases) {
    // sqrt of negative inputs is lane-wise NaN; restrict its sweep to
    // non-negative bit patterns by abs-ing the float lanes first.
    auto bytes = unop_module(uc.op);
    for (const EngineConfig& cfg : all_engine_configs()) {
      auto inst = instantiate_cfg(bytes, cfg);
      for (const V128& a0 : vecs) {
        V128 a = a0;
        if (uc.op == Op::kF32x4Sqrt)
          a = map1<f32, 4>(a, [](f32 x) { return std::fabs(x); });
        if (uc.op == Op::kF64x2Sqrt)
          a = map1<f64, 2>(a, [](f64 x) { return std::fabs(x); });
        V128 got = run_on(*inst, a, V128{}, V128{});
        expect_v128_eq(got, uc.ref(a), std::string(wasm::op_name(uc.op)) +
                                           " under " + config_label(cfg));
      }
    }
  }
}

TEST(SimdDifferential, FloatMinMaxNaNSemantics) {
  // min/max propagate NaN and order -0 < +0 (Wasm semantics). Checked via
  // lane probes rather than bit equality: the reference would need to fix
  // a canonical NaN payload.
  for (Op op : {Op::kF64x2Min, Op::kF64x2Max, Op::kF32x4Min, Op::kF32x4Max}) {
    auto bytes = binop_module(op);
    bool f64s = op == Op::kF64x2Min || op == Op::kF64x2Max;
    bool is_min = op == Op::kF64x2Min || op == Op::kF32x4Min;
    for (const EngineConfig& cfg : all_engine_configs()) {
      V128 a{}, b{};
      if (f64s) {
        put_lane<f64, 2>(a, 0, std::numeric_limits<f64>::quiet_NaN());
        put_lane<f64, 2>(b, 0, 1.0);
        put_lane<f64, 2>(a, 1, -0.0);
        put_lane<f64, 2>(b, 1, 0.0);
        V128 got = run_v128(bytes, cfg, a, b, V128{});
        f64 l0 = get_lane<f64, 2>(got, 0);
        f64 z = get_lane<f64, 2>(got, 1);
        EXPECT_TRUE(std::isnan(l0)) << config_label(cfg);
        EXPECT_EQ(std::signbit(z), is_min) << config_label(cfg);
      } else {
        put_lane<f32, 4>(a, 0, std::numeric_limits<f32>::quiet_NaN());
        put_lane<f32, 4>(b, 0, 1.0f);
        put_lane<f32, 4>(a, 1, -0.0f);
        put_lane<f32, 4>(b, 1, 0.0f);
        put_lane<f32, 4>(a, 2, 3.0f);
        put_lane<f32, 4>(b, 2, -7.0f);
        V128 got = run_v128(bytes, cfg, a, b, V128{});
        f32 l0 = get_lane<f32, 4>(got, 0);
        f32 l1 = get_lane<f32, 4>(got, 1);
        f32 l2 = get_lane<f32, 4>(got, 2);
        EXPECT_TRUE(std::isnan(l0)) << config_label(cfg);
        EXPECT_EQ(std::signbit(l1), is_min) << config_label(cfg);
        EXPECT_EQ(l2, is_min ? -7.0f : 3.0f) << config_label(cfg);
      }
    }
  }
}

TEST(SimdDifferential, Shifts) {
  struct ShiftCase {
    Op op;
    V128 (*ref)(const V128&, u32);
  };
  const ShiftCase cases[] = {
      {Op::kI32x4Shl,
       [](const V128& a, u32 k) {
         return map1<u32, 4>(a, [&](u32 x) { return x << (k & 31); });
       }},
      {Op::kI32x4ShrS,
       [](const V128& a, u32 k) {
         return map1<i32, 4>(a, [&](i32 x) { return x >> (k & 31); });
       }},
      {Op::kI32x4ShrU,
       [](const V128& a, u32 k) {
         return map1<u32, 4>(a, [&](u32 x) { return x >> (k & 31); });
       }},
      {Op::kI64x2Shl,
       [](const V128& a, u32 k) {
         return map1<u64, 2>(a, [&](u64 x) { return x << (k & 63); });
       }},
      {Op::kI64x2ShrS,
       [](const V128& a, u32 k) {
         return map1<i64, 2>(a, [&](i64 x) { return x >> (k & 63); });
       }},
      {Op::kI64x2ShrU,
       [](const V128& a, u32 k) {
         return map1<u64, 2>(a, [&](u64 x) { return x >> (k & 63); });
       }},
  };
  auto vecs = test_vectors();
  for (const auto& sc : cases) {
    auto bytes = shift_module(sc.op);
    for (const EngineConfig& cfg : all_engine_configs()) {
      auto inst = instantiate_cfg(bytes, cfg);
      for (u32 k : {0u, 1u, 3u, 31u, 32u, 33u, 63u, 64u, 65u}) {
        V128 got = run_on(*inst, vecs[2], V128{}, V128{},
                          {rt::Value::from_i32(i32(k))});
        expect_v128_eq(got, sc.ref(vecs[2], k),
                       std::string(wasm::op_name(sc.op)) + " count " +
                           std::to_string(k) + " under " + config_label(cfg));
      }
    }
  }
}

TEST(SimdDifferential, ShuffleSwizzleBitselect) {
  auto vecs = test_vectors();
  const V128& a = vecs[2];
  const V128& b = vecs[3];
  // Shuffle patterns: identity, reverse, broadcast lane 5, interleave
  // across the two inputs.
  const u8 patterns[][16] = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
      {31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16},
      {5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
      {0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23},
  };
  for (const auto& pat : patterns) {
    auto bytes = build_single_func({{}, {}}, [&](auto& f) {
      f.i32_const(i32(kOut));
      f.i32_const(i32(kInA));
      f.mem_op(Op::kV128Load);
      f.i32_const(i32(kInB));
      f.mem_op(Op::kV128Load);
      u8 lanes[16];
      std::memcpy(lanes, pat, 16);
      f.i8x16_shuffle(lanes);
      f.mem_op(Op::kV128Store);
      f.end();
    });
    for (const EngineConfig& cfg : all_engine_configs()) {
      V128 got = run_v128(bytes, cfg, a, b, V128{});
      V128 want{};
      for (int i = 0; i < 16; ++i)
        want.bytes[i] = pat[i] < 16 ? a.bytes[pat[i]] : b.bytes[pat[i] - 16];
      expect_v128_eq(got, want, "i8x16.shuffle under " + config_label(cfg));
    }
  }
  {
    auto bytes = binop_module(Op::kI8x16Swizzle);
    // Selectors: in-range, boundary 15/16, and far out of range.
    V128 sel{};
    const u8 sels[16] = {0, 15, 16, 255, 7, 8, 3, 200, 1, 2, 14, 13, 17, 31, 5, 9};
    std::memcpy(sel.bytes, sels, 16);
    for (const EngineConfig& cfg : all_engine_configs()) {
      V128 got = run_v128(bytes, cfg, a, sel, V128{});
      V128 want{};
      for (int i = 0; i < 16; ++i)
        want.bytes[i] = sels[i] < 16 ? a.bytes[sels[i]] : 0;
      expect_v128_eq(got, want, "i8x16.swizzle under " + config_label(cfg));
    }
  }
  {
    auto bytes = build_single_func({{}, {}}, [&](auto& f) {
      f.i32_const(i32(kOut));
      f.i32_const(i32(kInA));
      f.mem_op(Op::kV128Load);
      f.i32_const(i32(kInB));
      f.mem_op(Op::kV128Load);
      f.i32_const(i32(kInC));
      f.mem_op(Op::kV128Load);
      f.op(Op::kV128Bitselect);
      f.mem_op(Op::kV128Store);
      f.end();
    });
    for (const EngineConfig& cfg : all_engine_configs()) {
      V128 got = run_v128(bytes, cfg, a, b, vecs[3]);
      V128 want{};
      for (int i = 0; i < 16; ++i)
        want.bytes[i] =
            u8((a.bytes[i] & vecs[3].bytes[i]) | (b.bytes[i] & ~vecs[3].bytes[i]));
      expect_v128_eq(got, want, "v128.bitselect under " + config_label(cfg));
    }
  }
}

TEST(SimdDifferential, SplatsExtractReplace) {
  // i8x16/i16x8.splat of a value with junk above the lane, every lane
  // checked; i16x8.splat + both extract widths (s/u) + replace on every
  // shape.
  for (const EngineConfig& cfg : all_engine_configs()) {
    for (Op op : {Op::kI8x16Splat, Op::kI16x8Splat}) {
      auto bytes = build_single_func({{I32}, {}}, [&](auto& f) {
        f.i32_const(i32(kOut));
        f.local_get(0);
        f.op(op);
        f.mem_op(Op::kV128Store);
        f.end();
      });
      V128 got = run_v128(bytes, cfg, V128{}, V128{}, V128{},
                          {Value::from_i32(i32(0xDEADBEEF))});
      for (int i = 0; i < 16; ++i)
        EXPECT_EQ(got.bytes[i], op == Op::kI8x16Splat ? 0xEF
                                : i % 2 == 0          ? 0xEF
                                                      : 0xBE)
            << "byte " << i << " under " << config_label(cfg);
    }
    {
      auto bytes = build_single_func({{I32}, {I32}}, [&](auto& f) {
        f.local_get(0);
        f.op(Op::kI16x8Splat);
        f.lane_op(Op::kI16x8ExtractLaneS, 7);
        f.end();
      });
      auto inst = instantiate_cfg(bytes, cfg);
      EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(0xFFFF)})
                    .as_i32(),
                -1)
          << config_label(cfg);
      auto inst2 = instantiate_cfg(
          build_single_func({{I32}, {I32}},
                            [&](auto& f) {
                              f.local_get(0);
                              f.op(Op::kI16x8Splat);
                              f.lane_op(Op::kI16x8ExtractLaneU, 3);
                              f.end();
                            }),
          cfg);
      EXPECT_EQ(inst2->invoke("run", std::vector<Value>{Value::from_i32(0xFFFF)})
                    .as_i32(),
                0xFFFF)
          << config_label(cfg);
    }
    {
      auto bytes = build_single_func({{I32}, {I32}}, [&](auto& f) {
        f.local_get(0);
        f.op(Op::kI8x16Splat);
        f.lane_op(Op::kI8x16ExtractLaneS, 11);
        f.end();
      });
      auto inst = instantiate_cfg(bytes, cfg);
      EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(0x80)})
                    .as_i32(),
                -128)
          << config_label(cfg);
    }
    {
      // replace_lane on every shape: build from zero, replace one lane.
      auto bytes = build_single_func({{F64}, {F64}}, [&](auto& f) {
        f.f64_const(0.0);
        f.op(Op::kF64x2Splat);
        f.local_get(0);
        f.lane_op(Op::kF64x2ReplaceLane, 1);
        f.lane_op(Op::kF64x2ExtractLane, 1);
        f.end();
      });
      auto inst = instantiate_cfg(bytes, cfg);
      EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_f64(6.25)})
                    .as_f64(),
                6.25)
          << config_label(cfg);
      auto bytes2 = build_single_func({{I32}, {I32}}, [&](auto& f) {
        f.i32_const(7);
        f.op(Op::kI32x4Splat);
        f.local_get(0);
        f.lane_op(Op::kI32x4ReplaceLane, 2);
        f.lane_op(Op::kI32x4ExtractLane, 2);
        f.end();
      });
      auto inst2 = instantiate_cfg(bytes2, cfg);
      EXPECT_EQ(inst2->invoke("run", std::vector<Value>{Value::from_i32(-9)})
                    .as_i32(),
                -9)
          << config_label(cfg);
      auto bytes3 = build_single_func({{I64}, {I64}}, [&](auto& f) {
        f.i64_const(1);
        f.op(Op::kI64x2Splat);
        f.local_get(0);
        f.lane_op(Op::kI64x2ReplaceLane, 0);
        f.lane_op(Op::kI64x2ExtractLane, 0);
        f.end();
      });
      auto inst3 = instantiate_cfg(bytes3, cfg);
      EXPECT_EQ(inst3
                    ->invoke("run", std::vector<Value>{Value::from_i64(
                                        i64(0x123456789ABCDEFll))})
                    .as_i64(),
                i64(0x123456789ABCDEFll))
          << config_label(cfg);
      auto bytes4 = build_single_func({{F32}, {F32}}, [&](auto& f) {
        f.f32_const(0.0f);
        f.op(Op::kF32x4Splat);
        f.local_get(0);
        f.lane_op(Op::kF32x4ReplaceLane, 3);
        f.lane_op(Op::kF32x4ExtractLane, 3);
        f.end();
      });
      auto inst4 = instantiate_cfg(bytes4, cfg);
      EXPECT_EQ(inst4->invoke("run", std::vector<Value>{Value::from_f32(-1.5f)})
                    .as_f32(),
                -1.5f)
          << config_label(cfg);
      auto bytes5 = build_single_func({{I32}, {I32}}, [&](auto& f) {
        f.i32_const(0);
        f.op(Op::kI8x16Splat);
        f.local_get(0);
        f.lane_op(Op::kI8x16ReplaceLane, 15);
        f.lane_op(Op::kI8x16ExtractLaneU, 15);
        f.end();
      });
      auto inst5 = instantiate_cfg(bytes5, cfg);
      EXPECT_EQ(inst5->invoke("run", std::vector<Value>{Value::from_i32(0xAB)})
                    .as_i32(),
                0xAB)
          << config_label(cfg);
      auto bytes6 = build_single_func({{I32}, {I32}}, [&](auto& f) {
        f.i32_const(0);
        f.op(Op::kI16x8Splat);
        f.local_get(0);
        f.lane_op(Op::kI16x8ReplaceLane, 4);
        f.lane_op(Op::kI16x8ExtractLaneU, 4);
        f.end();
      });
      auto inst6 = instantiate_cfg(bytes6, cfg);
      EXPECT_EQ(inst6->invoke("run", std::vector<Value>{Value::from_i32(0xBEEF)})
                    .as_i32(),
                0xBEEF)
          << config_label(cfg);
    }
  }
}

TEST(SimdDifferential, LoadSplats) {
  auto bytes32 = build_single_func({{}, {}}, [&](auto& f) {
    f.i32_const(i32(kOut));
    f.i32_const(i32(kInA));
    f.mem_op(Op::kV128Load32Splat);
    f.mem_op(Op::kV128Store);
    f.end();
  });
  auto bytes64 = build_single_func({{}, {}}, [&](auto& f) {
    f.i32_const(i32(kOut));
    f.i32_const(i32(kInA));
    f.mem_op(Op::kV128Load64Splat);
    f.mem_op(Op::kV128Store);
    f.end();
  });
  V128 a{};
  for (int i = 0; i < 16; ++i) a.bytes[i] = u8(0x11 * (i + 1));
  for (const EngineConfig& cfg : all_engine_configs()) {
    V128 got = run_v128(bytes32, cfg, a, V128{}, V128{});
    V128 want{};
    for (int i = 0; i < 4; ++i)
      put_lane<u32, 4>(want, i, get_lane<u32, 4>(a, 0));
    expect_v128_eq(got, want, "v128.load32_splat under " + config_label(cfg));
    got = run_v128(bytes64, cfg, a, V128{}, V128{});
    for (int i = 0; i < 2; ++i)
      put_lane<u64, 2>(want, i, get_lane<u64, 2>(a, 0));
    expect_v128_eq(got, want, "v128.load64_splat under " + config_label(cfg));
  }
}

TEST(SimdDifferential, AnyTrueAllTrue) {
  struct RCase {
    Op op;
    int lanes;  // lane width in bytes for the all_true family; 0 = any_true
  };
  const RCase cases[] = {
      {Op::kV128AnyTrue, 0},   {Op::kI8x16AllTrue, 1}, {Op::kI16x8AllTrue, 2},
      {Op::kI32x4AllTrue, 4},  {Op::kI64x2AllTrue, 8},
  };
  for (const RCase& rc : cases) {
    auto bytes = reduce_i32_module(rc.op);
    for (const EngineConfig& cfg : all_engine_configs()) {
      auto run1 = [&](const V128& a) {
        auto inst = instantiate_cfg(bytes, cfg);
        std::memcpy(inst->memory().base() + kInA, a.bytes, 16);
        return inst->invoke("run").as_i32();
      };
      V128 zero{};
      V128 ones{};
      std::memset(ones.bytes, 0xFF, 16);
      EXPECT_EQ(run1(zero), 0) << config_label(cfg);
      EXPECT_EQ(run1(ones), 1) << config_label(cfg);
      // One zero lane: any_true stays 1, all_true drops to 0.
      V128 holed = ones;
      if (rc.lanes == 0) {
        std::memset(holed.bytes, 0, 15);  // single nonzero byte
        EXPECT_EQ(run1(holed), 1) << config_label(cfg);
      } else {
        std::memset(holed.bytes + 16 - rc.lanes, 0, size_t(rc.lanes));
        EXPECT_EQ(run1(holed), 0) << config_label(cfg);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scalar-vs-SIMD kernel twins
// ---------------------------------------------------------------------------

f64 run_kernel(const toolchain::MicroKernelParams& p, const EngineConfig& cfg,
               i32 reps) {
  auto bytes = toolchain::build_micro_kernel_module(p);
  auto inst = instantiate_cfg(bytes, cfg);
  inst->invoke("init");
  auto arg = rt::Value::from_i32(reps);
  return inst->invoke("run", {&arg, 1}).as_f64();
}

TEST(SimdKernels, ScalarAndSimdTwinsMatchReference) {
  const i32 reps = 3;
  for (toolchain::MicroKernel k :
       {toolchain::MicroKernel::kReduceF64, toolchain::MicroKernel::kReduceI32,
        toolchain::MicroKernel::kDaxpy, toolchain::MicroKernel::kStencil3,
        toolchain::MicroKernel::kDotF64, toolchain::MicroKernel::kSaxpyF32}) {
    toolchain::MicroKernelParams p;
    p.kernel = k;
    p.n = 256;
    const f64 want = toolchain::micro_kernel_reference(p, u32(reps));
    for (const EngineConfig& cfg : all_engine_configs()) {
      p.use_simd = false;
      f64 scalar = run_kernel(p, cfg, reps);
      // The scalar build follows the reference's operation order exactly.
      EXPECT_EQ(scalar, want)
          << toolchain::micro_kernel_name(k) << " scalar, " << config_label(cfg);
      p.use_simd = true;
      f64 simd = run_kernel(p, cfg, reps);
      if (toolchain::micro_kernel_reassociates(k)) {
        EXPECT_NEAR(simd, want, std::abs(want) * 1e-12)
            << toolchain::micro_kernel_name(k) << " simd, " << config_label(cfg);
      } else {
        // Element-wise and integer kernels are bit-exact across builds.
        EXPECT_EQ(simd, want)
            << toolchain::micro_kernel_name(k) << " simd, " << config_label(cfg);
      }
    }
  }
}

TEST(SimdKernels, HpcgSimdResidualMatchesMirroredNative) {
  // The f64x2 HPCG build must agree bit-exactly with the native twin whose
  // dot mirrors the two-lane accumulation (KernelHpcg covers scalar mode).
  toolchain::HpcgParams p;
  p.n_per_rank = 64;
  p.iterations = 4;
  p.use_simd = true;
  auto bytes = toolchain::build_hpcg_module(p);
  // Compile-only smoke across tiers (full embedder runs live in
  // test_toolchain_kernels); here assert the module validates and the
  // engine accepts it at every tier.
  for (const EngineConfig& cfg : all_engine_configs()) {
    EXPECT_NO_THROW(rt::compile({bytes.data(), bytes.size()}, cfg))
        << config_label(cfg);
  }
}

// ---------------------------------------------------------------------------
// OOB trap-point equivalence for v128 accesses: checked in the executor,
// faulting in the guard region in native code
// ---------------------------------------------------------------------------

std::vector<u8> v128_store_loop_module(u32 base) {
  // run(n): for (i = 0; i < n; i += 16) mem[base + i] = i8x16.splat(i).
  return build_single_func({{I32}, {}}, [&](auto& f) {
    u32 i = f.add_local(I32);
    f.for_loop_i32(i, 0, 0 /*limit = param*/, 16, [&] {
      f.i32_const(i32(base));
      f.local_get(i);
      f.op(Op::kI32Add);
      f.local_get(i);
      f.op(Op::kI8x16Splat);
      f.mem_op(Op::kV128Store);
    });
    f.end();
  });
}

TEST(SimdHoist, OobV128StoreTrapsAtSamePointWithIdenticalPartialStores) {
  // One page of memory; the loop starts 256 bytes below the end and runs
  // 512 bytes, so the trap must fire at exactly the first out-of-bounds
  // vector — with every preceding store visible — in every configuration.
  // At kJit the v128 store has no check: it faults in the guard region and
  // the fault handler raises the trap.
  const u32 base = 64 * 1024 - 256;
  auto bytes = v128_store_loop_module(base);
  auto run_one = [&](const EngineConfig& cfg, std::vector<u8>& tail,
                     std::string& what) {
    auto inst = instantiate_cfg(bytes, cfg);
    if (inst->compiled().tier == EngineTier::kJit) {
      EXPECT_TRUE(inst->memory().guarded());
      const rt::RFunc& body = rt::compiled_body(inst->compiled(), 0);
      EXPECT_TRUE(body.jit != nullptr && body.jit->fault_sites > 0);
    }
    auto n = rt::Value::from_i32(512);
    TrapKind kind = TrapKind::kHostError;
    try {
      inst->invoke("run", {&n, 1});
      ADD_FAILURE() << "expected OOB trap under " << config_label(cfg);
    } catch (const Trap& t) {
      kind = t.kind();
      what = t.what();
    }
    tail.assign(inst->memory().base() + base, inst->memory().base() + 64 * 1024);
    return kind;
  };
  std::vector<u8> want_tail;
  std::string want_what;
  EngineConfig interp;
  interp.tier = EngineTier::kInterp;
  TrapKind want_kind = run_one(interp, want_tail, want_what);
  EXPECT_EQ(want_kind, TrapKind::kMemoryOutOfBounds);
  for (const EngineConfig& cfg : all_engine_configs()) {
    std::vector<u8> tail;
    std::string what;
    TrapKind kind = run_one(cfg, tail, what);
    EXPECT_EQ(kind, want_kind) << config_label(cfg);
    EXPECT_EQ(what, want_what) << config_label(cfg);
    EXPECT_EQ(tail, want_tail) << "partial stores differ under "
                               << config_label(cfg);
  }
}

TEST(SimdHoist, InBoundsV128LoopRunsGuardedAndUnguardedIdentically) {
  const u32 base = 4096;
  auto bytes = v128_store_loop_module(base);
  auto run_one = [&](const EngineConfig& cfg) {
    auto inst = instantiate_cfg(bytes, cfg);
    auto n = rt::Value::from_i32(1024);
    inst->invoke("run", {&n, 1});
    return std::vector<u8>(inst->memory().base() + base,
                           inst->memory().base() + base + 1024);
  };
  EngineConfig interp;
  interp.tier = EngineTier::kInterp;
  auto want = run_one(interp);
  for (const EngineConfig& cfg : all_engine_configs()) {
    EXPECT_EQ(run_one(cfg), want) << config_label(cfg);
  }
}

// ---------------------------------------------------------------------------
// Validator rejections
// ---------------------------------------------------------------------------

TEST(SimdValidation, RejectsOutOfRangeLaneAndShuffleIndices) {
  {
    ModuleBuilder b;
    auto& f = b.begin_func({{}, {I32}}, "run");
    f.i32_const(0);
    f.op(Op::kI32x4Splat);
    f.lane_op(Op::kI32x4ExtractLane, 4);  // lanes are 0..3
    f.end();
    auto bytes = b.build();
    auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(wasm::validate_module(*decoded.module).ok);
  }
  {
    ModuleBuilder b;
    auto& f = b.begin_func({{}, {}}, "run");
    f.i32_const(0);
    f.op(Op::kI8x16Splat);
    f.i32_const(0);
    f.op(Op::kI8x16Splat);
    u8 lanes[16] = {0};
    lanes[7] = 32;  // selectors index the 32-byte concatenation
    f.i8x16_shuffle(lanes);
    f.op(Op::kDrop);
    f.end();
    auto bytes = b.build();
    auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(wasm::validate_module(*decoded.module).ok);
  }
  {
    // Type error: bitselect on i32 operands must not validate.
    ModuleBuilder b;
    auto& f = b.begin_func({{}, {}}, "run");
    f.i32_const(1);
    f.i32_const(2);
    f.i32_const(3);
    f.op(Op::kV128Bitselect);
    f.op(Op::kDrop);
    f.end();
    auto bytes = b.build();
    auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(wasm::validate_module(*decoded.module).ok);
  }
}

}  // namespace
}  // namespace mpiwasm::test
