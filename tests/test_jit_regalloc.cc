// Generated-program differential test for the jit tier's register
// allocator: seeded random modules, valid by construction, run natively
// (kJit) and in the interpreter (kInterp). Both must agree on every result,
// on trap kind and message, and on the final linear-memory image.
//
// Each program keeps more values live across its loop than the allocator
// has registers (10+ integers for 6 GPRs, 20 floats and vectors for 14
// XMMs), carries i32/i64/f64/v128 values around the loop, and mixes
// register-form templates with fallback ones: helper calls (f64.min/max,
// trunc), a wasm call with everything live across it, lane extract/replace,
// select and br_table. Integer div/rem at both widths divides by -1, 0 and
// MIN now and then, so its out-of-line trap stubs fire with register values
// live around them. Operand-stack slots are shared by values of different
// types, and some programs store past the end of memory partway through the
// loop.
#include "testlib.h"

#include <cstring>
#include <random>

#include "runtime/jit_support.h"

namespace mpiwasm::test {
namespace {

constexpr u32 kModules = 320;
constexpr u32 kNumI32 = 8, kNumI64 = 4, kNumF64 = 4, kNumV128 = 16;

/// Emits one random program body. Locals: param n (loop bound), then the
/// typed value pools, the loop counter and a scratch f64.
class ProgramGen {
 public:
  ProgramGen(u64 seed, wasm::FunctionBuilder& f, u32 mix_func)
      : rng_(seed), f_(f), mix_(mix_func) {
    for (u32 k = 0; k < kNumI32; ++k) i32s_.push_back(f.add_local(I32));
    for (u32 k = 0; k < kNumI64; ++k) i64s_.push_back(f.add_local(I64));
    for (u32 k = 0; k < kNumF64; ++k) f64s_.push_back(f.add_local(F64));
    for (u32 k = 0; k < kNumV128; ++k) v128s_.push_back(f.add_local(V128T));
    counter_ = f.add_local(I32);
    scratch_ = f.add_local(F64);
    // A call pins every value live across it to the frame, so only a third
    // of the programs make one; the rest keep their loop values in registers.
    calls_ = pick(3) == 0;
  }

  void emit() {
    for (u32 l : i32s_) { f_.i32_const(i32(rng_())); f_.local_set(l); }
    for (u32 l : i64s_) { f_.i64_const(i64(rng_())); f_.local_set(l); }
    for (u32 l : f64s_) { f_.f64_const(small_f64()); f_.local_set(l); }
    for (u32 l : v128s_) { f_.v128_const(random_v128()); f_.local_set(l); }
    const bool oob = pick(6) == 0;
    const u32 stmts = 4 + pick(10);
    f_.for_loop_i32(counter_, 0, /*limit_local=*/0, 1, [&] {
      for (u32 s = 0; s < stmts; ++s) statement();
      if (oob) {
        // Walks 8 KiB per iteration from 32 KiB: the fifth store traps,
        // after the earlier stores of this and previous iterations landed.
        f_.local_get(counter_);
        f_.i32_const(8192);
        f_.op(Op::kI32Mul);
        f_.i32_const(32768);
        f_.op(Op::kI32Add);
        gen_i32(2);
        f_.mem_op(Op::kI32Store);
      }
    });
    // Checksum of every value so all of them stay live through the loop.
    f_.i64_const(0);
    auto fold = [&] {
      f_.op(Op::kI64Add);
      f_.i64_const(31);
      f_.op(Op::kI64Mul);
    };
    for (u32 l : i32s_) { f_.local_get(l); f_.op(Op::kI64ExtendI32U); fold(); }
    for (u32 l : i64s_) { f_.local_get(l); fold(); }
    for (u32 l : f64s_) { f_.local_get(l); f_.op(Op::kI64ReinterpretF64); fold(); }
    for (u32 l : v128s_) {
      for (u8 lane = 0; lane < 2; ++lane) {
        f_.local_get(l);
        f_.lane_op(Op::kI64x2ExtractLane, lane);
        fold();
      }
    }
    f_.end();
  }

 private:
  u32 pick(u32 n) { return u32(rng_() % n); }
  f64 small_f64() { return f64(i32(pick(2001)) - 1000) / 8.0; }
  wasm::V128 random_v128() {
    wasm::V128 v;
    for (int k = 0; k < 2; ++k) {
      if (pick(2) == 0) {
        u64 bits = rng_();
        std::memcpy(v.bytes + 8 * k, &bits, 8);
      } else {
        f64 x = small_f64();
        std::memcpy(v.bytes + 8 * k, &x, 8);
      }
    }
    return v;
  }
  template <typename T>
  u32 any(const std::vector<T>& v) { return v[pick(u32(v.size()))]; }

  // Which NaN an operation returns when both operands are NaNs depends on
  // operand order, which the C++ interpreter and the native code need not
  // share, so float values from raw bits pass through these first.
  /// The f64 on the stack, or 0 when it is a NaN.
  void no_nan() {
    f_.local_tee(scratch_);
    f_.f64_const(0.0);
    f_.local_get(scratch_);
    f_.local_get(scratch_);
    f_.op(Op::kF64Eq);
    f_.op(Op::kSelect);
  }
  /// The v128 on the stack with bit 62 of each f64 lane cleared: finite
  /// lanes below 2 in magnitude, whose sums and products stay finite.
  void finite_f64x2() {
    wasm::V128 mask;
    const u64 m = ~(u64(1) << 62);
    std::memcpy(mask.bytes, &m, 8);
    std::memcpy(mask.bytes + 8, &m, 8);
    f_.v128_const(mask);
    f_.op(Op::kV128And);
  }

  /// addr & 0xFFF0: in bounds and aligned for any access up to 16 bytes.
  void address() {
    gen_i32(1);
    f_.i32_const(0xFFF0);
    f_.op(Op::kI32And);
  }

  void gen_i32(int depth) {
    switch (depth <= 0 ? pick(2) : pick(18)) {
      case 0: f_.local_get(any(i32s_)); return;
      case 1: f_.i32_const(i32(rng_() >> 40)); return;
      case 2: case 3: {
        static constexpr Op kOps[] = {Op::kI32Add, Op::kI32Sub, Op::kI32Mul,
                                      Op::kI32And, Op::kI32Or, Op::kI32Xor,
                                      Op::kI32Shl, Op::kI32ShrU, Op::kI32ShrS,
                                      Op::kI32Rotl};
        gen_i32(depth - 1);
        gen_i32(depth - 1);
        f_.op(kOps[pick(10)]);
        return;
      }
      case 4: {
        static constexpr Op kCmp[] = {Op::kI32LtS, Op::kI32GeU, Op::kI32Eq,
                                      Op::kI32Ne};
        gen_i32(depth - 1);
        gen_i32(depth - 1);
        f_.op(kCmp[pick(4)]);
        return;
      }
      case 5: gen_i64(depth - 1); f_.op(Op::kI32WrapI64); return;
      case 6:
        gen_v128(depth - 1);
        f_.lane_op(Op::kI32x4ExtractLane, u8(pick(4)));
        return;
      case 7: {  // unsigned div/rem by an odd (nonzero) divisor
        gen_i32(depth - 1);
        gen_i32(depth - 1);
        f_.i32_const(1);
        f_.op(Op::kI32Or);
        f_.op(pick(2) ? Op::kI32DivU : Op::kI32RemU);
        return;
      }
      case 8: {  // helper call: trunc of a NaN-free, clamped f64
        gen_f64(depth - 1);
        no_nan();
        f_.f64_const(-1e6);
        f_.op(Op::kF64Max);
        f_.f64_const(1e6);
        f_.op(Op::kF64Min);
        f_.op(Op::kI32TruncF64S);
        return;
      }
      case 9: address(); f_.mem_op(Op::kI32Load); return;
      case 10:  // select on registers
        gen_i32(depth - 1);
        gen_i32(depth - 1);
        gen_i32(depth - 1);
        f_.op(Op::kSelect);
        return;
      case 11: signed_div_rem(false, depth); return;
      case 12: {  // narrow loads (movsx/movzx into any register)
        static constexpr Op kLoads[] = {Op::kI32Load8S, Op::kI32Load8U,
                                        Op::kI32Load16S, Op::kI32Load16U};
        address();
        f_.mem_op(kLoads[pick(4)]);
        return;
      }
      case 13: {  // unops, some through helpers when the CPU lacks them
        static constexpr Op kUn[] = {Op::kI32Eqz, Op::kI32Clz, Op::kI32Popcnt,
                                     Op::kI32Extend8S};
        gen_i32(depth - 1);
        f_.op(kUn[pick(4)]);
        return;
      }
      case 14: {
        static constexpr Op kCmp[] = {Op::kI64LtS, Op::kI64GeU, Op::kI64Ne};
        gen_i64(depth - 1);
        gen_i64(depth - 1);
        f_.op(kCmp[pick(3)]);
        return;
      }
      case 15: {  // float compares (unordered operands included)
        static constexpr Op kCmp[] = {Op::kF64Lt, Op::kF64Ge, Op::kF64Ne};
        gen_f64(depth - 1);
        gen_f64(depth - 1);
        f_.op(kCmp[pick(3)]);
        return;
      }
      case 16:
        gen_v128(depth - 1);
        f_.op(pick(2) ? Op::kV128AnyTrue : Op::kI32x4AllTrue);
        return;
      default: f_.local_get(counter_); return;
    }
  }

  void gen_i64(int depth) {
    switch (depth <= 0 ? pick(2) : pick(11)) {
      case 0: f_.local_get(any(i64s_)); return;
      case 1: f_.i64_const(i64(rng_())); return;
      case 2: case 3: {
        static constexpr Op kOps[] = {Op::kI64Add, Op::kI64Sub, Op::kI64Mul,
                                      Op::kI64Xor, Op::kI64Shl, Op::kI64ShrS,
                                      Op::kI64Rotr};
        gen_i64(depth - 1);
        gen_i64(depth - 1);
        f_.op(kOps[pick(7)]);
        return;
      }
      case 8:
        address();
        f_.mem_op(pick(2) ? Op::kI64Load32S : Op::kI64Load8U);
        return;
      case 9:
        gen_i64(depth - 1);
        f_.op(pick(2) ? Op::kI64Extend32S : Op::kI64Ctz);
        return;
      case 4:
        gen_i32(depth - 1);
        f_.op(pick(2) ? Op::kI64ExtendI32S : Op::kI64ExtendI32U);
        return;
      case 5:
        gen_v128(depth - 1);
        f_.lane_op(Op::kI64x2ExtractLane, u8(pick(2)));
        return;
      case 6:  // wasm call: every local is live across it
        if (!calls_) return gen_i64(depth - 1);
        gen_i32(depth - 1);
        gen_i64(depth - 1);
        f_.call(mix_);
        return;
      case 7:  // unsigned div/rem by an odd (nonzero) divisor
        gen_i64(depth - 1);
        gen_i64(depth - 1);
        f_.i64_const(1);
        f_.op(Op::kI64Or);
        f_.op(pick(2) ? Op::kI64DivU : Op::kI64RemU);
        return;
      default: signed_div_rem(true, depth); return;
    }
  }

  /// Signed div/rem, dividend sometimes MIN, divisor drawn from {-1, 0, MIN,
  /// anything}: the zero and overflow trap stubs fire, and rem_s(MIN, -1)
  /// takes its no-divide path.
  void signed_div_rem(bool wide, int depth) {
    const i64 min = wide ? INT64_MIN : INT32_MIN;
    auto operand = [&] {
      if (wide)
        gen_i64(depth - 1);
      else
        gen_i32(depth - 1);
    };
    auto konst = [&](i64 v) {
      if (wide)
        f_.i64_const(v);
      else
        f_.i32_const(i32(v));
    };
    if (pick(3) == 0)
      konst(min);
    else
      operand();
    switch (pick(32)) {
      case 0: konst(0); break;
      case 1: case 2: case 3: case 4: case 5: case 6: konst(-1); break;
      case 7: konst(min); break;
      default: operand(); break;
    }
    static constexpr Op kOps[2][2] = {{Op::kI32DivS, Op::kI32RemS},
                                      {Op::kI64DivS, Op::kI64RemS}};
    f_.op(kOps[wide][pick(2)]);
  }

  void gen_f64(int depth) {
    switch (depth <= 0 ? pick(2) : pick(11)) {
      case 0: f_.local_get(any(f64s_)); return;
      case 1: f_.f64_const(small_f64()); return;
      case 2: case 3: {
        static constexpr Op kOps[] = {Op::kF64Add, Op::kF64Sub, Op::kF64Mul,
                                      Op::kF64Min, Op::kF64Max};
        gen_f64(depth - 1);
        gen_f64(depth - 1);
        f_.op(kOps[pick(5)]);
        return;
      }
      case 4: gen_i32(depth - 1); f_.op(Op::kF64ConvertI32S); return;
      case 5:
        gen_v128(depth - 1);
        f_.lane_op(Op::kF64x2ExtractLane, u8(pick(2)));
        no_nan();
        return;
      case 6: gen_f64(depth - 1); f_.op(Op::kF64Abs); f_.op(Op::kF64Sqrt); return;
      case 7: address(); f_.mem_op(Op::kF64Load); no_nan(); return;
      case 8:  // an f32 round trip
        gen_f64(depth - 1);
        f_.op(Op::kF32DemoteF64);
        f_.f32_const(f32(small_f64()));
        f_.op(pick(2) ? Op::kF32Add : Op::kF32Mul);
        f_.op(Op::kF64PromoteF32);
        return;
      case 9: {  // bit-pattern unops and SSE4.1-or-helper rounding
        static constexpr Op kUn[] = {Op::kF64Neg, Op::kF64Floor};
        gen_f64(depth - 1);
        f_.op(kUn[pick(2)]);
        return;
      }
      default:
        gen_f64(depth - 1);
        gen_f64(depth - 1);
        gen_i32(depth - 1);
        f_.op(Op::kSelect);
        return;
    }
  }

  void gen_v128(int depth) {
    switch (depth <= 0 ? pick(2) : pick(15)) {
      case 0: f_.local_get(any(v128s_)); return;
      case 1: f_.v128_const(random_v128()); return;
      case 2: case 3: {
        static constexpr Op kOps[] = {Op::kF64x2Add, Op::kF64x2Sub,
                                      Op::kF64x2Mul, Op::kI32x4Add,
                                      Op::kI32x4Sub, Op::kI32x4Mul,
                                      Op::kV128And, Op::kV128Or, Op::kV128Xor};
        const Op op = kOps[pick(9)];
        const bool fp = op == Op::kF64x2Add || op == Op::kF64x2Sub ||
                        op == Op::kF64x2Mul;
        gen_v128(depth - 1);
        if (fp) finite_f64x2();
        gen_v128(depth - 1);
        if (fp) finite_f64x2();
        f_.op(op);
        return;
      }
      case 4: gen_i32(depth - 1); f_.op(Op::kI32x4Splat); return;
      case 5: gen_f64(depth - 1); f_.op(Op::kF64x2Splat); return;
      case 6:
        gen_v128(depth - 1);
        gen_i32(depth - 1);
        f_.lane_op(Op::kI32x4ReplaceLane, u8(pick(4)));
        return;
      case 7:
        gen_v128(depth - 1);
        gen_f64(depth - 1);
        f_.lane_op(Op::kF64x2ReplaceLane, u8(pick(2)));
        return;
      case 8: address(); f_.mem_op(Op::kV128Load); return;
      case 9:
        gen_v128(depth - 1);
        gen_v128(depth - 1);
        gen_v128(depth - 1);
        f_.op(Op::kV128Bitselect);
        return;
      case 10:
        gen_v128(depth - 1);
        gen_i32(depth - 1);
        f_.op(pick(2) ? Op::kI32x4Shl : Op::kI32x4ShrS);
        return;
      case 11:  // lane masks
        gen_v128(depth - 1);
        gen_v128(depth - 1);
        f_.op(pick(2) ? Op::kF64x2Lt : Op::kI32x4Eq);
        return;
      case 12: {
        static constexpr Op kUn[] = {Op::kV128Not, Op::kF64x2Neg,
                                     Op::kF64x2Abs, Op::kI32x4Neg};
        gen_v128(depth - 1);
        f_.op(kUn[pick(4)]);
        return;
      }
      case 13:
        address();
        f_.mem_op(pick(2) ? Op::kV128Load64Splat : Op::kV128Load32Splat);
        return;
      default: gen_i64(depth - 1); f_.op(Op::kI64x2Splat); return;
    }
  }

  /// t = e op t: the destination's register is also the second operand's,
  /// so a template must not write it before reading that operand.
  void two_address() {
    switch (pick(4)) {
      case 0: {
        const u32 t = any(i32s_);
        gen_i32(1);
        f_.local_get(t);
        f_.op(pick(2) ? Op::kI32Sub : Op::kI32Mul);
        f_.local_set(t);
        return;
      }
      case 1: {
        const u32 t = any(i64s_);
        gen_i64(1);
        f_.local_get(t);
        f_.op(pick(2) ? Op::kI64Sub : Op::kI64Shl);
        f_.local_set(t);
        return;
      }
      case 2: {
        const u32 t = any(f64s_);
        gen_f64(1);
        f_.local_get(t);
        f_.op(pick(2) ? Op::kF64Sub : Op::kF64Mul);
        f_.local_set(t);
        return;
      }
      default: {
        const u32 t = any(v128s_);
        gen_v128(1);
        finite_f64x2();
        f_.local_get(t);
        finite_f64x2();
        f_.op(pick(2) ? Op::kF64x2Sub : Op::kI32x4Sub);
        f_.local_set(t);
        return;
      }
    }
  }

  void statement() {
    switch (pick(11)) {
      case 10: two_address(); return;
      case 0: case 1: gen_i32(3); f_.local_set(any(i32s_)); return;
      case 2: gen_i64(3); f_.local_set(any(i64s_)); return;
      case 3: gen_f64(3); f_.local_set(any(f64s_)); return;
      case 4: case 5: gen_v128(3); f_.local_set(any(v128s_)); return;
      case 6: {
        switch (pick(6)) {
          case 0: address(); gen_i32(2); f_.mem_op(Op::kI32Store); return;
          case 4:  // byte/word stores of whatever register holds the value
            address();
            gen_i32(2);
            f_.mem_op(pick(2) ? Op::kI32Store8 : Op::kI32Store16);
            return;
          case 5: address(); gen_i64(2); f_.mem_op(Op::kI64Store32); return;
          case 1: address(); gen_i64(2); f_.mem_op(Op::kI64Store); return;
          case 2: address(); gen_f64(2); f_.mem_op(Op::kF64Store); return;
          default: address(); gen_v128(2); f_.mem_op(Op::kV128Store); return;
        }
      }
      case 7: {  // br_table over three arms (and the default exit)
        const u32 target = any(i32s_);
        f_.block();
        f_.block();
        f_.block();
        f_.block();
        gen_i32(2);
        f_.i32_const(3);
        f_.op(Op::kI32And);
        f_.br_table({0, 1, 2}, 3);
        f_.end();
        gen_i32(1);
        f_.local_set(target);
        f_.br(2);
        f_.end();
        gen_i32(1);
        f_.local_set(target);
        f_.br(1);
        f_.end();
        gen_i32(1);
        f_.local_set(target);
        f_.end();
        return;
      }
      case 8:
        if (!calls_) return statement();
        gen_i32(1);
        gen_i64(1);
        f_.call(mix_);
        f_.local_set(any(i64s_));
        return;
      default: {  // a register-resident vector's lane, round trip
        const u32 v = any(v128s_);
        f_.local_get(v);
        f_.local_get(v);
        f_.lane_op(Op::kF64x2ExtractLane, u8(pick(2)));
        no_nan();
        gen_f64(1);
        f_.op(Op::kF64Add);
        f_.lane_op(Op::kF64x2ReplaceLane, u8(pick(2)));
        f_.local_set(v);
        return;
      }
    }
  }

  std::mt19937_64 rng_;
  wasm::FunctionBuilder& f_;
  u32 mix_;
  std::vector<u32> i32s_, i64s_, f64s_, v128s_;
  u32 counter_ = 0, scratch_ = 0;
  bool calls_ = false;
};

std::vector<u8> build_program(u64 seed) {
  ModuleBuilder b;
  b.add_memory(1);
  b.export_memory();
  // mix(x, y) = rotl(extend_u(x) * golden ^ y, 13)
  auto& mix = b.begin_func({{I32, I64}, {I64}});
  mix.local_get(0);
  mix.op(Op::kI64ExtendI32U);
  mix.i64_const(i64(0x9E3779B97F4A7C15ull));
  mix.op(Op::kI64Mul);
  mix.local_get(1);
  mix.op(Op::kI64Xor);
  mix.i64_const(13);
  mix.op(Op::kI64Rotl);
  mix.end();
  auto& run = b.begin_func({{I32}, {I64}}, "run");
  ProgramGen(seed, run, mix.index()).emit();
  return b.build();
}

struct Outcome {
  bool trapped = false;
  u64 value = 0;
  std::string trap;
};

Outcome run_once(rt::Instance& inst, i32 n) {
  Outcome o;
  try {
    o.value = inst.invoke("run", std::vector<Value>{Value::from_i32(n)}).slot.u64v;
  } catch (const rt::Trap& t) {
    o.trapped = true;
    o.trap = t.what();
  }
  return o;
}

TEST(JitRegAlloc, GeneratedProgramsMatchInterpreter) {
  u32 traps = 0;
  for (u32 m = 0; m < kModules; ++m) {
    const u64 seed = 0x5EED0000ull + m;
    const std::vector<u8> bytes = build_program(seed);
    auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
    ASSERT_TRUE(decoded.ok()) << "seed " << seed << ": " << decoded.error;
    auto vr = wasm::validate_module(*decoded.module);
    ASSERT_TRUE(vr.ok) << "seed " << seed << ": " << vr.error;

    EngineConfig jit_cfg;
    jit_cfg.tier = EngineTier::kJit;
    jit_cfg.enable_cache = false;
    auto jit_cm = rt::compile({bytes.data(), bytes.size()}, jit_cfg);
    if (rt::jit_enabled_from_env()) {
      for (const rt::RFunc& f : jit_cm->regcode.funcs)
        ASSERT_NE(f.jit, nullptr) << "seed " << seed << ": not compiled";
    }
    rt::Instance jit(jit_cm, {});
    auto ref = instantiate(bytes, EngineTier::kInterp);

    for (i32 n : {0, 3, 9}) {
      const Outcome want = run_once(*ref, n);
      const Outcome got = run_once(jit, n);
      ASSERT_EQ(want.trapped, got.trapped)
          << "seed " << seed << " n=" << n << ": " << want.trap << got.trap;
      if (want.trapped) {
        ++traps;
        EXPECT_EQ(want.trap, got.trap) << "seed " << seed << " n=" << n;
      } else {
        EXPECT_EQ(want.value, got.value) << "seed " << seed << " n=" << n;
      }
      ASSERT_EQ(ref->memory().byte_size(), jit.memory().byte_size());
      ASSERT_EQ(0, std::memcmp(ref->memory().base(), jit.memory().base(),
                               ref->memory().byte_size()))
          << "seed " << seed << " n=" << n << ": memory images differ";
    }
  }
  // The generator must keep exercising the trap path.
  EXPECT_GT(traps, kModules / 20);
}

}  // namespace
}  // namespace mpiwasm::test
