// Native x86-64 JIT tier: correctness, per-function interpreter fallback,
// trap-point identity with the interpreter, accesses to pages memory.grow
// opened, the cache v6 native-blob validation chain (feature/layout
// mismatch -> recompile -> threaded fallback), and the edges of the
// guard-region fault handler (host faults still kill; no guard region ->
// executor fallback).
#include "testlib.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include "runtime/cache.h"
#include "runtime/jit_support.h"
#include "runtime/jit_x64.h"

namespace mpiwasm::test {
namespace {

namespace fs = std::filesystem;
using rt::Trap;
using rt::TrapKind;

std::string fresh_cache_dir() {
  static int counter = 0;
  auto dir = fs::temp_directory_path() /
             ("mpiwasm-test-jit-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter++));
  fs::create_directories(dir);
  return dir.string();
}

EngineConfig jit_config() {
  EngineConfig cfg;
  cfg.tier = EngineTier::kJit;
  return cfg;
}

/// run(a, b) = a*b + 5 — every op has a template.
std::vector<u8> arith_module() {
  return build_single_func({{I32, I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.op(Op::kI32Mul);
    f.i32_const(5);
    f.op(Op::kI32Add);
    f.end();
  });
}

TEST(Jit, CompilesAndRunsNativeCode) {
  auto bytes = arith_module();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  materialize_all(*cm);
  EXPECT_EQ(cm->tier, EngineTier::kJit);
  EXPECT_EQ(cm->jit_funcs.load(), 1u);
  EXPECT_EQ(cm->jit_fallback_funcs.load(), 0u);
  ASSERT_NE(cm->jit_arena, nullptr);
  EXPECT_GT(cm->jit_arena->code_bytes(), 0u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
}

TEST(Jit, IsTheDefaultTier) {
  auto bytes = arith_module();
  EngineConfig cfg;
  EXPECT_EQ(cfg.tier, EngineTier::kJit);
  EXPECT_TRUE(cfg.jit);
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  materialize_all(*cm);
  EXPECT_EQ(cm->tier, EngineTier::kJit);
  EXPECT_EQ(cm->jit_funcs.load(), 1u);
}

TEST(Jit, JitOffDegradesToOptimizing) {
  auto bytes = arith_module();
  EngineConfig off = jit_config();
  off.jit = false;
  auto cm = rt::compile({bytes.data(), bytes.size()}, off);
  materialize_all(*cm);
  EXPECT_EQ(cm->tier, EngineTier::kOptimizing);
  EXPECT_EQ(cm->jit_funcs.load(), 0u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
}

TEST(Jit, UncoveredOpFallsBackPerFunction) {
  // i8x16.swizzle has no template; the function must run through the
  // threaded interpreter and still produce the right answer, counted as a
  // fallback.
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.op(Op::kI8x16Splat);
    f.i32_const(0);
    f.op(Op::kI8x16Splat);
    f.op(Op::kI8x16Swizzle);  // every lane picks lane 0
    f.lane_op(Op::kI8x16ExtractLaneU, 3);
    f.end();
  });
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  materialize_all(*cm);
  EXPECT_EQ(cm->jit_funcs.load(), 0u);
  EXPECT_EQ(cm->jit_fallback_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(0xAB)})
                .as_i32(),
            0xAB);
}

TEST(Jit, MixedModuleCompilesCoveredKeepsRest) {
  // Two functions: one covered, one not. The census must show one of each,
  // and both must execute correctly in the same instance.
  ModuleBuilder b;
  b.add_memory(1);
  auto& g = b.begin_func({{I32}, {I32}}, "splat3");
  g.local_get(0);
  g.op(Op::kI8x16Splat);
  g.i32_const(0);
  g.op(Op::kI8x16Splat);
  g.op(Op::kI8x16Swizzle);  // no template
  g.lane_op(Op::kI8x16ExtractLaneU, 3);
  g.end();
  auto& f = b.begin_func({{I32, I32}, {I32}}, "run");
  f.local_get(0);
  f.local_get(1);
  f.op(Op::kI32Add);
  f.end();
  auto bytes = b.build();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  materialize_all(*cm);
  EXPECT_EQ(cm->jit_funcs.load(), 1u);
  EXPECT_EQ(cm->jit_fallback_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(2),
                                                  Value::from_i32(3)})
                .as_i32(),
            5);
  EXPECT_EQ(inst.invoke("splat3", std::vector<Value>{Value::from_i32(9)})
                .as_i32(),
            9);
}

TEST(Jit, CallsBetweenNativeFunctionsWork) {
  ModuleBuilder b;
  auto& helper = b.begin_func({{I32, I32}, {I32}}, "helper");
  helper.local_get(0);
  helper.local_get(1);
  helper.op(Op::kI32Mul);
  helper.end();
  auto& f = b.begin_func({{I32}, {I32}}, "run");
  f.local_get(0);
  f.i32_const(3);
  f.call(0);  // helper(x, 3)
  f.i32_const(1);
  f.op(Op::kI32Add);
  f.end();
  auto bytes = b.build();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  materialize_all(*cm);
  EXPECT_EQ(cm->jit_funcs.load(), 2u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(5)})
                .as_i32(),
            16);
}

TEST(Jit, BrTableDispatches) {
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    u32 r = f.add_local(ValType::kI32);
    f.block();  // outer — the default target and both exits
    f.block();
    f.block();
    f.local_get(0);
    f.br_table({0, 1}, 2);
    f.end();
    f.i32_const(100);  // case 0 lands here
    f.local_set(r);
    f.br(1);
    f.end();
    f.i32_const(200);  // case 1 lands here
    f.local_set(r);
    f.br(0);
    f.end();  // default: r stays 0
    f.local_get(r);
    f.end();
  });
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  materialize_all(*cm);
  EXPECT_EQ(cm->jit_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(0)})
                .as_i32(), 100);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(1)})
                .as_i32(), 200);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(9)})
                .as_i32(), 0);
}

TEST(Jit, V128ArithmeticMatchesScalar) {
  // f32x4: (1,2,3,4) + (10,20,30,40), extract lane 2 -> 33.
  wasm::V128 a{}, b{};
  f32 av[4] = {1, 2, 3, 4}, bv[4] = {10, 20, 30, 40};
  std::memcpy(a.bytes, av, 16);
  std::memcpy(b.bytes, bv, 16);
  auto bytes = build_single_func({{}, {F32}}, [&](auto& f) {
    f.v128_const(a);
    f.v128_const(b);
    f.op(Op::kF32x4Add);
    f.lane_op(Op::kF32x4ExtractLane, 2);
    f.end();
  });
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  materialize_all(*cm);
  EXPECT_EQ(cm->jit_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run").as_f32(), 33.0f);
}

// --- trap behaviour ---------------------------------------------------------

/// store(0)=1; store(addr)=2; store(4)=3 — an OOB `addr` must trap after the
/// first store retires and before the third executes, exactly like the
/// interpreter.
std::vector<u8> partial_store_module() {
  return build_single_func({{I32}, {}}, [](auto& f) {
    f.i32_const(0);
    f.i32_const(1);
    f.mem_op(Op::kI32Store);
    f.local_get(0);
    f.i32_const(2);
    f.mem_op(Op::kI32Store);
    f.i32_const(4);
    f.i32_const(3);
    f.mem_op(Op::kI32Store);
    f.end();
  });
}

TEST(Jit, OobTrapsAtTheSamePointAsInterp) {
  auto bytes = partial_store_module();
  for (EngineTier tier : {EngineTier::kInterp, EngineTier::kJit}) {
    EngineConfig cfg;
    cfg.tier = tier;
    auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
    rt::ImportTable imports;
    rt::Instance inst(cm, imports);
    TrapKind kind = TrapKind::kHostError;
    try {
      inst.invoke("run", std::vector<Value>{Value::from_i32(1 << 20)});
      ADD_FAILURE() << "expected an OOB trap at tier "
                    << rt::tier_name(tier);
    } catch (const Trap& t) {
      kind = t.kind();
    }
    EXPECT_EQ(kind, TrapKind::kMemoryOutOfBounds);
    // Side effects before the trap retired; those after did not.
    i32 first = 0, third = 0;
    std::memcpy(&first, inst.memory().base() + 0, 4);
    std::memcpy(&third, inst.memory().base() + 4, 4);
    EXPECT_EQ(first, 1) << rt::tier_name(tier);
    EXPECT_EQ(third, 0) << rt::tier_name(tier);
  }
}

/// What one call did: its result, or the trap it raised.
struct Outcome {
  bool trapped = false;
  i64 value = 0;
  TrapKind kind = TrapKind::kHostError;
  std::string message;
  bool operator==(const Outcome&) const = default;
};

void PrintTo(const Outcome& o, std::ostream* os) {
  if (o.trapped)
    *os << "trap " << int(o.kind) << " \"" << o.message << "\"";
  else
    *os << "value " << o.value;
}

Outcome run_outcome(rt::Instance& inst, const std::string& name,
                    std::span<const Value> args) {
  Outcome o;
  try {
    const Value v = inst.invoke(name, args);
    o.value = v.type == I64 ? v.as_i64() : v.as_i32();
  } catch (const Trap& t) {
    o.trapped = true;
    o.kind = t.kind();
    o.message = t.what();
  }
  return o;
}

// Guest-address edge table: every access width at the end of memory, imms
// on both sides of the 2^31 disp32 limit, and the base in each place the
// register allocator puts one. Native code must trap where the interpreter
// traps, with its kind and message, and leave memory as it does.
struct AddrAccess {
  Op op;
  u32 width;
  bool store;
};
constexpr AddrAccess kAddrAccesses[] = {
    {Op::kI32Load8U, 1, false}, {Op::kI32Load16U, 2, false},
    {Op::kI32Load, 4, false},   {Op::kI64Load, 8, false},
    {Op::kV128Load, 16, false}, {Op::kI32Store8, 1, true},
    {Op::kI32Store16, 2, true}, {Op::kI32Store, 4, true},
    {Op::kI64Store, 8, true},   {Op::kV128Store, 16, true},
};
constexpr u32 kAddrImms[] = {0, 1, 0x7FFFFFFF, 0x80000000};

enum class AddrPlace {
  kZextLoop,  // a loop counter held zero-extended: [r13 + reg + imm]
  kParam,     // a parameter register, not zero-extended: copied to eax
  kFrame,     // live across a wasm call, so read from the frame
  kIndexed,   // x + (y << 3) fused into the access (lea)
  kIndexed4,  // x + (y << 4) fused into the access (shl, add)
};
constexpr AddrPlace kAddrPlaces[] = {AddrPlace::kZextLoop, AddrPlace::kParam,
                                     AddrPlace::kFrame, AddrPlace::kIndexed,
                                     AddrPlace::kIndexed4};

/// The shift of an indexed placement's y; 0 for the others.
u32 index_shift(AddrPlace place) {
  switch (place) {
    case AddrPlace::kIndexed: return 3;
    case AddrPlace::kIndexed4: return 4;
    default: return 0;
  }
}

/// run(x, y) -> i64 for one access, imm and placement, inside a loop that
/// runs once: the access is at x + imm, or at u32(x + (y << shift)) + imm
/// for the indexed forms (the narrow accesses have none and use the i32.add).
/// Loads return the loaded bits (a v128 its lanes xored); stores write a
/// fixed pattern and return 0.
void emit_addr_body(wasm::FunctionBuilder& f, const AddrAccess& acc, u32 imm,
                    AddrPlace place, u32 nop_func) {
  u32 base = 0;
  if (place == AddrPlace::kZextLoop) {
    base = f.add_local(I32);  // wrap(extend_u(x)): a def with a 32-bit write
    f.local_get(0);
    f.op(Op::kI64ExtendI32U);
    f.op(Op::kI32WrapI64);
    f.local_set(base);
  } else if (place == AddrPlace::kFrame) {
    f.call(nop_func);
  }
  const u32 n = f.add_local(I32), out = f.add_local(I64);
  const u32 v = f.add_local(V128T);
  f.loop();
  f.local_get(base);
  if (const u32 shift = index_shift(place)) {
    f.local_get(1);
    f.i32_const(i32(shift));
    f.op(Op::kI32Shl);
    f.op(Op::kI32Add);
  }
  if (acc.store) {
    wasm::V128 pattern;
    for (u8 k = 0; k < 16; ++k) pattern.bytes[k] = u8(0xA0 + k);
    if (acc.width == 16)
      f.v128_const(pattern);
    else if (acc.width == 8)
      f.i64_const(0x0807060504030201);
    else
      f.i32_const(0x04030201);
    f.mem_op(acc.op, imm);
  } else {
    f.mem_op(acc.op, imm);
    if (acc.width == 16) {
      f.local_tee(v);
      f.lane_op(Op::kI64x2ExtractLane, 0);
      f.local_get(v);
      f.lane_op(Op::kI64x2ExtractLane, 1);
      f.op(Op::kI64Xor);
    } else if (acc.width != 8) {
      f.op(Op::kI64ExtendI32U);
    }
    f.local_set(out);
  }
  if (place == AddrPlace::kZextLoop) {  // count the base up, as a loop would
    f.local_get(base);
    f.i32_const(1);
    f.op(Op::kI32Add);
    f.local_set(base);
  }
  f.local_get(n);
  f.i32_const(1);
  f.op(Op::kI32Add);
  f.local_tee(n);
  f.i32_const(1);
  f.op(Op::kI32LtU);
  f.br_if(0);
  f.end();
  f.local_get(out);
  f.end();
}

TEST(Jit, OobEdgesMatchInterpInEveryAddressPlacement) {
  constexpr u32 kMem = 65536;
  ModuleBuilder b;
  b.add_memory(1);
  auto& nop = b.begin_func({{}, {}});
  nop.end();
  struct Fn {
    std::string name;
    AddrAccess acc;
    u32 imm;
    AddrPlace place;
  };
  std::vector<Fn> fns;
  for (AddrPlace place : kAddrPlaces)
    for (const AddrAccess& acc : kAddrAccesses)
      for (u32 imm : kAddrImms) {
        fns.push_back({std::string(wasm::op_name(acc.op)) + "/imm=" +
                           std::to_string(imm) + "/place=" +
                           std::to_string(int(place)),
                       acc, imm, place});
        auto& f = b.begin_func({{I32, I32}, {I64}}, fns.back().name);
        emit_addr_body(f, acc, imm, place, nop.index());
      }
  const std::vector<u8> bytes = b.build();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  materialize_all(*cm);
  ASSERT_EQ(cm->jit_funcs.load(), fns.size() + 1);
  rt::ImportTable imports;
  rt::Instance jit(cm, imports);
  auto ref = instantiate(bytes, EngineTier::kInterp);
  for (rt::Instance* inst : {&jit, ref.get()})
    for (u32 k = 0; k < 64; ++k) {
      inst->memory().base()[k] = u8(k * 7 + 1);
      inst->memory().base()[kMem - 64 + k] = u8(k * 5 + 3);
    }

  for (const Fn& fn : fns) {
    // The access ends exactly at the end of memory, one byte past it, and
    // at the largest base (the indexed forms wrap it to a small address).
    const u32 shift = index_shift(fn.place);
    const u32 back = shift != 0 ? 1u << shift : 0;
    const u32 end_x = u32(kMem - fn.acc.width - fn.imm - back);
    for (const u32 x : {end_x, end_x + 1, 0xFFFFFFFFu}) {
      SCOPED_TRACE(fn.name + " x=" + std::to_string(x));
      const Value args[] = {Value::from_u32(x), Value::from_u32(1)};
      const Outcome want = run_outcome(*ref, fn.name, args);
      const Outcome got = run_outcome(jit, fn.name, args);
      EXPECT_EQ(want, got);
      EXPECT_EQ(std::memcmp(ref->memory().base(), jit.memory().base(), kMem),
                0);
      if (x == end_x + 1) {
        EXPECT_TRUE(want.trapped);
      } else if (x == end_x && fn.imm <= 1) {
        EXPECT_FALSE(want.trapped);
      }
    }
  }
}

// The zero-extension rule: an i32 address whose register may hold nonzero
// bits 32-63 is not an index of [r13 + reg + disp]. Each producer below
// hands a loop's load and store (imm 16) such a register, from caller slots
// that last held an i64 with bit 32 set.
enum class DirtyProducer { kParam, kReinterpret, kSelect, kTee, kCallResult };
constexpr DirtyProducer kDirtyProducers[] = {
    DirtyProducer::kParam, DirtyProducer::kReinterpret,
    DirtyProducer::kSelect, DirtyProducer::kTee, DirtyProducer::kCallResult};

TEST(Jit, AddressesWithDirtyUpperBitsMatchInterp) {
  ModuleBuilder b;
  b.add_memory(1);
  auto& id = b.begin_func({{I32}, {I32}});  // id(p) = p
  id.local_get(0);
  id.end();
  std::vector<std::string> names;
  for (DirtyProducer p : kDirtyProducers) {
    // run(x, fx, fz, c) -> i32: fx is x's bits as an f32, fz is -0.0 and c
    // is 1, so every producer yields x.
    names.push_back("producer" + std::to_string(int(p)));
    auto& f = b.begin_func({{I32, F32, F32, I32}, {I32}}, names.back());
    const u32 base = f.add_local(I32), i = f.add_local(I32);
    const u32 lim = f.add_local(I32), acc = f.add_local(I32);
    switch (p) {
      case DirtyProducer::kParam:
        f.local_get(0);
        break;
      case DirtyProducer::kReinterpret:
        f.local_get(1);
        f.local_get(2);
        f.op(Op::kF32Add);
        f.op(Op::kI32ReinterpretF32);
        break;
      case DirtyProducer::kSelect:
        f.local_get(0);
        f.i32_const(0);
        f.local_get(3);
        f.op(Op::kSelect);
        break;
      case DirtyProducer::kTee:
        f.local_get(0);
        f.local_tee(lim);
        break;
      case DirtyProducer::kCallResult:
        f.local_get(0);
        f.call(id.index());
        break;
    }
    f.local_set(base);
    f.i32_const(4);
    f.local_set(lim);
    f.for_loop_i32(i, 0, lim, 1, [&] {
      f.local_get(base);
      f.mem_op(Op::kI32Load, 16);
      f.local_get(i);
      f.op(Op::kI32Add);
      f.local_set(acc);
      f.local_get(base);
      f.local_get(acc);
      f.mem_op(Op::kI32Store, 16);
    });
    f.local_get(acc);
    f.end();
  }
  const std::vector<u8> bytes = b.build();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  materialize_all(*cm);
  ASSERT_EQ(cm->jit_funcs.load(), names.size() + 1);
  rt::ImportTable imports;
  rt::Instance jit(cm, imports);
  auto ref = instantiate(bytes, EngineTier::kInterp);

  // Caller slots that last held an i64 with bit 32 set, read as an i32 and
  // an f32: only their low 32 bits are the argument.
  auto dirty = [](Value v, ValType t) {
    v.slot.u64v |= u64(1) << 32;
    v.type = t;
    return v;
  };
  for (const u32 x : {0u, 1000u, 65536u - 20u, 65536u - 19u}) {
    f32 fx;
    std::memcpy(&fx, &x, 4);
    const Value args[] = {dirty(Value::from_u32(x), I32),
                          dirty(Value::from_f32(fx), F32),
                          dirty(Value::from_f32(-0.0f), F32),
                          dirty(Value::from_i32(1), I32)};
    for (const std::string& name : names) {
      SCOPED_TRACE(name + " x=" + std::to_string(x));
      const Outcome want = run_outcome(*ref, name, args);
      const Outcome got = run_outcome(jit, name, args);
      EXPECT_EQ(want, got);
      EXPECT_EQ(want.trapped, x == 65536u - 19u);
      EXPECT_EQ(std::memcmp(ref->memory().base(), jit.memory().base(), 65536),
                0);
    }
  }
}

// Integer div/rem edge table: every op at both widths, on the inputs where
// hardware division and wasm part ways (zero divisor, MIN / -1, signs,
// unsigned wrap), in each operand placement the register allocator makes.
struct DivOp {
  Op op;
  bool wide;
};
constexpr DivOp kDivOps[] = {
    {Op::kI32DivS, false}, {Op::kI32DivU, false}, {Op::kI32RemS, false},
    {Op::kI32RemU, false}, {Op::kI64DivS, true},  {Op::kI64DivU, true},
    {Op::kI64RemS, true},  {Op::kI64RemU, true},
};

enum class DivPlace {
  kLoop,           // x, y and the result register-resident inside a loop
  kFrame,          // x, y live across a wasm call, so read from the frame
  kDstIsDividend,  // x = x op y in a loop: one web, one register
  kDstIsDivisor,   // y = x op y in a loop
  kLiveWebs,       // six more integer webs live across the division
};
constexpr DivPlace kDivPlaces[] = {DivPlace::kLoop, DivPlace::kFrame,
                                   DivPlace::kDstIsDividend,
                                   DivPlace::kDstIsDivisor,
                                   DivPlace::kLiveWebs};

/// Body of run(x, y) for one op and placement. Every placement but
/// kLiveWebs returns x op y itself.
void emit_div_body(wasm::FunctionBuilder& f, const DivOp& d, DivPlace place,
                   u32 nop_func) {
  const ValType t = d.wide ? I64 : I32;
  auto konst = [&](i64 v) {
    if (d.wide)
      f.i64_const(v);
    else
      f.i32_const(i32(v));
  };
  auto div = [&](u32 dst) {
    f.local_get(0);
    f.local_get(1);
    f.op(d.op);
    f.local_set(dst);
  };
  const u32 i = f.add_local(I32), lim = f.add_local(I32), q = f.add_local(t);
  auto loop = [&](i32 n, const std::function<void()>& body) {
    f.i32_const(n);
    f.local_set(lim);
    f.for_loop_i32(i, 0, lim, 1, body);
  };
  switch (place) {
    case DivPlace::kLoop:
      loop(3, [&] { div(q); });
      f.local_get(q);
      break;
    case DivPlace::kFrame:
      f.call(nop_func);
      div(q);
      f.local_get(q);
      break;
    case DivPlace::kDstIsDividend:
      loop(1, [&] { div(0); });
      f.local_get(0);
      break;
    case DivPlace::kDstIsDivisor:
      loop(1, [&] { div(1); });
      f.local_get(1);
      break;
    case DivPlace::kLiveWebs: {
      u32 k[6];
      for (u32 j = 0; j < 6; ++j) {
        k[j] = f.add_local(t);
        f.local_get(0);
        konst(0x1111 * (j + 1));
        f.op(d.wide ? Op::kI64Add : Op::kI32Add);
        f.local_set(k[j]);
      }
      // Each k is read and written after the division in every iteration,
      // so all six outweigh x, y, q and the counter for the six GPRs.
      loop(2, [&] {
        div(q);
        for (u32 j = 0; j < 6; ++j) {
          f.local_get(k[j]);
          konst(3);
          f.op(d.wide ? Op::kI64Mul : Op::kI32Mul);
          f.local_get(k[(j + 1) % 6]);
          f.op(d.wide ? Op::kI64Add : Op::kI32Add);
          f.local_set(k[j]);
        }
      });
      f.local_get(q);
      for (u32 j = 0; j < 6; ++j) {
        konst(31);
        f.op(d.wide ? Op::kI64Mul : Op::kI32Mul);
        f.local_get(k[j]);
        f.op(d.wide ? Op::kI64Xor : Op::kI32Xor);
      }
      break;
    }
  }
  f.end();
}

Outcome run_div(rt::Instance& inst, const std::string& name, bool wide,
               i64 x, i64 y) {
  const Value args[] = {
      wide ? Value::from_i64(x) : Value::from_i32(i32(x)),
      wide ? Value::from_i64(y) : Value::from_i32(i32(y))};
  return run_outcome(inst, name, args);
}

TEST(Jit, DivTrapsMatchInterp) {
  ModuleBuilder b;
  auto& nop = b.begin_func({{}, {}});
  nop.end();
  std::vector<std::string> names;
  for (const DivOp& d : kDivOps) {
    const ValType t = d.wide ? I64 : I32;
    for (DivPlace place : kDivPlaces) {
      names.push_back(std::string(wasm::op_name(d.op)) + "/" +
                      std::to_string(int(place)));
      auto& f = b.begin_func({{t, t}, {t}}, names.back());
      emit_div_body(f, d, place, nop.index());
    }
  }
  const std::vector<u8> bytes = b.build();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  materialize_all(*cm);
  ASSERT_EQ(cm->jit_funcs.load(), names.size() + 1);
  rt::ImportTable imports;
  rt::Instance jit(cm, imports);
  auto ref = instantiate(bytes, EngineTier::kInterp);

  for (bool wide : {false, true}) {
    const i64 min = wide ? INT64_MIN : INT32_MIN;
    const i64 umax = wide ? -1 : i64(u32(~0u));
    const i64 x = wide ? 0x123456789ABCDEFll : 123456789;
    const std::pair<i64, i64> pairs[] = {{7, 2},  {-7, 2},   {7, -2},
                                         {x, -1}, {min, -1}, {x, 0},
                                         {0, 0},  {umax, 3}};
    for (size_t o = 0; o < std::size(kDivOps); ++o) {
      const DivOp& d = kDivOps[o];
      if (d.wide != wide) continue;
      for (const auto& [dividend, divisor] : pairs) {
        SCOPED_TRACE(std::string(wasm::op_name(d.op)) + "(" +
                     std::to_string(dividend) + ", " +
                     std::to_string(divisor) + ")");
        Outcome first;
        for (size_t p = 0; p < std::size(kDivPlaces); ++p) {
          const std::string& name = names[o * std::size(kDivPlaces) + p];
          const Outcome want = run_div(*ref, name, wide, dividend, divisor);
          const Outcome got = run_div(jit, name, wide, dividend, divisor);
          EXPECT_EQ(want.trapped, got.trapped) << name << ": " << got.message;
          EXPECT_EQ(want.value, got.value) << name;
          EXPECT_EQ(want.kind, got.kind) << name;
          EXPECT_EQ(want.message, got.message) << name;
          if (kDivPlaces[p] == DivPlace::kLiveWebs) continue;
          // The placements that return x op y itself agree with each other.
          if (p == 0)
            first = got;
          else
            EXPECT_EQ(first, got) << name;
          if (divisor == 0) {
            EXPECT_EQ(got.kind, TrapKind::kIntegerDivByZero) << name;
          } else if (dividend == min && divisor == -1) {
            if (d.op == Op::kI32RemS || d.op == Op::kI64RemS) {
              EXPECT_FALSE(got.trapped) << name;
              EXPECT_EQ(got.value, 0) << name;
            } else if (d.op == Op::kI32DivS || d.op == Op::kI64DivS) {
              EXPECT_EQ(got.kind, TrapKind::kIntegerOverflow) << name;
            }
          }
        }
      }
    }
  }
  // The instance stays usable after native-code trap unwinds.
  EXPECT_EQ(run_div(jit, names[0], false, 42, 6).value, 7);
}

TEST(Jit, MemoryGrowOpensPagesForNativeAccesses) {
  // grow(+1), then store/load at an address that was OOB before the grow:
  // the base never moves and native code holds no size, so the accesses
  // land in the pages grow opened with nothing reloaded.
  auto bytes = build_single_func({{}, {I32}}, [](auto& f) {
    u32 old_pages = f.add_local(ValType::kI32);
    f.i32_const(1);
    f.op(Op::kMemoryGrow);
    f.local_set(old_pages);
    f.local_get(old_pages);
    f.i32_const(16);  // old_pages << 16 == old byte size
    f.op(Op::kI32Shl);
    f.i32_const(777);
    f.mem_op(Op::kI32Store);
    f.local_get(old_pages);
    f.i32_const(16);
    f.op(Op::kI32Shl);
    f.mem_op(Op::kI32Load);
    f.end();
  });
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  materialize_all(*cm);
  ASSERT_EQ(cm->jit_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("run").as_i32(), 777);
}

// --- cache v6 native-blob validation ----------------------------------------

/// Rewrites the single module-level cache entry in `dir` through `mutate`.
void mutate_cache_entry(const std::string& dir,
                        const std::function<void(rt::RModule&)>& mutate) {
  fs::path entry;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".rcache") entry = e.path();
  ASSERT_FALSE(entry.empty());
  std::ifstream in(entry, std::ios::binary);
  std::vector<u8> bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  in.close();
  auto rm = rt::deserialize_regcode({bytes.data(), bytes.size()});
  ASSERT_TRUE(rm.has_value());
  mutate(*rm);
  auto out_bytes = rt::serialize_regcode(*rm);
  std::ofstream out(entry, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(out_bytes.data()),
            std::streamsize(out_bytes.size()));
}

TEST(Jit, CacheRoundTripsNativeBlob) {
  auto dir = fresh_cache_dir();
  auto bytes = arith_module();
  EngineConfig cfg = jit_config();
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
  ASSERT_FALSE(cold->loaded_from_cache);
  ASSERT_EQ(cold->jit_funcs.load(), 1u);

  auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_TRUE(warm->loaded_from_cache);
  EXPECT_EQ(warm->jit_funcs.load(), 0u) << "installed on first call";
  rt::ImportTable imports;
  rt::Instance inst(warm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
  EXPECT_EQ(warm->jit_funcs.load(), 1u) << "blob must install from cache";
  const rt::RFunc& body = rt::compiled_body(*warm, 0);
  ASSERT_NE(body.jit, nullptr);
  EXPECT_EQ(body.jit->layout_hash, rt::jit_layout_hash());
  fs::remove_all(dir);
}

TEST(Jit, CacheBlobWithWrongLayoutHashIsRecompiledNotInstalled) {
  // Stale hashes: one bit off the current one, and the hash every blob of
  // codegen v4 carries (r15 pinned to the memory size, JitEnv::mem_size,
  // 63 helpers returning {base,size}); its code would run wrong here.
  const u64 kCodegenV4Hash = 0x39eba986742a0c14;
  for (const u64 stale : {rt::jit_layout_hash() ^ 0x1, kCodegenV4Hash}) {
    SCOPED_TRACE(stale);
    auto dir = fresh_cache_dir();
    auto bytes = arith_module();
    EngineConfig cfg = jit_config();
    cfg.enable_cache = true;
    cfg.cache_dir = dir;
    rt::compile({bytes.data(), bytes.size()}, cfg);

    // Stamp the stale hash AND poison the machine code: if the engine ever
    // installed this blob instead of rejecting it, `run` would return
    // without computing the result (0xC3 = ret) and the assertion below
    // would fail.
    mutate_cache_entry(dir, [stale](rt::RModule& rm) {
      ASSERT_NE(rm.funcs[0].jit, nullptr);
      auto blob = std::make_shared<rt::JitBlob>(*rm.funcs[0].jit);
      blob->layout_hash = stale;
      std::fill(blob->code.begin(), blob->code.end(), u8(0xC3));
      blob->relocs.clear();
      rm.funcs[0].jit = std::move(blob);
    });

    auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
    EXPECT_TRUE(warm->loaded_from_cache);  // RegCode part is still valid
    EXPECT_EQ(warm->jit_funcs.load(), 0u) << "installed on first call";
    rt::ImportTable imports;
    rt::Instance inst(warm, imports);
    EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                    Value::from_i32(7)})
                  .as_i32(),
              47);
    EXPECT_EQ(warm->jit_funcs.load(), 1u) << "stale blob must be recompiled";
    fs::remove_all(dir);
  }
}

TEST(Jit, CacheBlobWithUnknownCpuFeatureIsRecompiledNotInstalled) {
  auto dir = fresh_cache_dir();
  auto bytes = arith_module();
  EngineConfig cfg = jit_config();
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  rt::compile({bytes.data(), bytes.size()}, cfg);

  // Claim a CPU feature bit no host reports; features must be a subset of
  // the host's for the blob to install.
  mutate_cache_entry(dir, [](rt::RModule& rm) {
    ASSERT_NE(rm.funcs[0].jit, nullptr);
    auto blob = std::make_shared<rt::JitBlob>(*rm.funcs[0].jit);
    blob->cpu_features |= 0x80000000u;
    std::fill(blob->code.begin(), blob->code.end(), u8(0xC3));
    blob->relocs.clear();
    rm.funcs[0].jit = std::move(blob);
  });

  auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_TRUE(warm->loaded_from_cache);
  EXPECT_EQ(warm->jit_funcs.load(), 0u) << "installed on first call";
  rt::ImportTable imports;
  rt::Instance inst(warm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
  EXPECT_EQ(warm->jit_funcs.load(), 1u);
  fs::remove_all(dir);
}

TEST(Jit, InvalidBlobOnUncompilableFunctionFallsBackToThreaded) {
  // An uncovered-op function never gets a blob; graft a stale one onto its
  // cache entry. The engine must reject it (layout mismatch), fail the
  // recompile (no template for i8x16.swizzle), and silently run the
  // function through the threaded interpreter.
  auto dir = fresh_cache_dir();
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.op(Op::kI8x16Splat);
    f.i32_const(0);
    f.op(Op::kI8x16Splat);
    f.op(Op::kI8x16Swizzle);
    f.lane_op(Op::kI8x16ExtractLaneU, 0);
    f.end();
  });
  EngineConfig cfg = jit_config();
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
  ASSERT_EQ(cold->jit_fallback_funcs.load(), 1u);

  mutate_cache_entry(dir, [](rt::RModule& rm) {
    ASSERT_EQ(rm.funcs[0].jit, nullptr);
    auto blob = std::make_shared<rt::JitBlob>();
    blob->layout_hash = rt::jit_layout_hash() ^ 0x1;
    blob->code = {0xC3};
    rm.funcs[0].jit = std::move(blob);
  });

  auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_TRUE(warm->loaded_from_cache);
  EXPECT_EQ(warm->jit_fallback_funcs.load(), 0u) << "decided on first call";
  rt::ImportTable imports;
  rt::Instance inst(warm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(77)})
                .as_i32(),
            77);
  EXPECT_EQ(warm->jit_funcs.load(), 0u);
  EXPECT_EQ(warm->jit_fallback_funcs.load(), 1u);
  fs::remove_all(dir);
}

TEST(Jit, TruncatedNativeSectionRejectsWholeEntry) {
  auto bytes = arith_module();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  rt::RModule rm;
  rm.funcs.push_back(rt::compiled_body(*cm, 0));
  ASSERT_NE(rm.funcs[0].jit, nullptr);
  auto blob = rt::serialize_regcode(rm);
  // Cut inside the native section (the last bytes of the entry).
  for (size_t cut = blob.size() - 1; cut > blob.size() - 12; --cut)
    EXPECT_FALSE(rt::deserialize_regcode({blob.data(), cut}).has_value())
        << "prefix of " << cut << " bytes";
}

TEST(Jit, SnapshotCountsStaticJitModules) {
  auto bytes = arith_module();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  materialize_all(*cm);
  auto snap = rt::tierup_snapshot(*cm);
  EXPECT_EQ(snap.funcs_total, 1u);
  EXPECT_EQ(snap.funcs_regcode, 1u);
  EXPECT_EQ(snap.jit_funcs, 1u);
  EXPECT_EQ(snap.jit_fallback_funcs, 0u);
  EXPECT_GT(snap.jit_code_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Guard-region fault handler edges
// ---------------------------------------------------------------------------

/// load(addr) = i32 at addr; host() calls the import "env.poke".
std::vector<u8> guard_edge_module() {
  ModuleBuilder b;
  const u32 poke = b.import_func("env", "poke", {{}, {}});
  b.add_memory(1, 2, /*has_max=*/true);
  {
    auto& f = b.begin_func({{I32}, {I32}}, "load");
    f.local_get(0);
    f.mem_op(Op::kI32Load);
    f.end();
  }
  {
    auto& f = b.begin_func({{}, {}}, "host");
    f.call(poke);
    f.end();
  }
  return b.build();
}

/// Death-test child: a host function called from native code writes one
/// byte past the end of memory, into the guard region.
void fault_in_host_code(const std::vector<u8>& bytes) {
  rt::ImportTable imports;
  imports.add("env", "poke", {{}, {}},
              [](rt::HostContext& ctx, const rt::Slot*, rt::Slot*) {
                rt::LinearMemory& mem = ctx.memory();
                volatile u8* past_end = mem.base() + mem.byte_size();
                *past_end = 1;
              });
  auto inst = instantiate_cfg(bytes, jit_config(), imports);
  if (!inst->memory().guarded()) std::_Exit(0);  // nothing to test
  inst->invoke("host");
}

TEST(GuardFault, HostSegvStillKillsTheProcess) {
  // A fault in host code is not a guest trap, even when the host code runs
  // under native guest code and touches the guard region itself: the
  // handler passes it on and the process dies.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto bytes = guard_edge_module();
  EXPECT_DEATH(fault_in_host_code(bytes), "");
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MPIWASM_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MPIWASM_SANITIZED 1
#endif
#endif

/// Exit-test child: caps its address space below the guarded reservation,
/// then runs the kJit module. Returns 0 when every check holds, else the
/// number of the first failed one.
int run_without_guard_region(const std::vector<u8>& bytes) {
  rt::ImportTable imports;
  imports.add("env", "poke", {{}, {}},
              [](rt::HostContext&, const rt::Slot*, rt::Slot*) {});
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  materialize_all(*cm);
  if (cm->jit_funcs.load() != 2) return 1;
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld", &pages) != 1) pages = 0;
    std::fclose(f);
  }
  if (pages == 0) return 2;
  const rlim_t cap = rlim_t(pages) * 4096 + (rlim_t(1) << 30);
  const rlimit lim{cap, cap};
  if (setrlimit(RLIMIT_AS, &lim) != 0) return 3;
  rt::Instance inst(cm, imports);
  if (inst.memory().guarded()) return 4;
  if (rt::tierup_snapshot(*cm).guard_fallbacks != 1) return 5;
  inst.memory().store<u32>(64, 0xC0FFEEu);
  Value at = Value::from_i32(64);
  if (inst.invoke("load", {&at, 1}).as_i32() != i32(0xC0FFEEu)) return 6;
  Value past = Value::from_i32(65534);
  try {
    inst.invoke("load", {&past, 1});
    return 7;
  } catch (const Trap& t) {
    if (t.kind() != TrapKind::kMemoryOutOfBounds ||
        std::string(t.what()).find(
            "access at 65534+4 exceeds memory size 65536") ==
            std::string::npos)
      return 8;
  }
  return 0;
}

TEST(GuardFault, NoGuardRegionRunsNativeBodiesInTheExecutor) {
#ifdef MPIWASM_SANITIZED
  GTEST_SKIP() << "sanitizer shadow memory cannot live under RLIMIT_AS";
#endif
  // Without its guard region the memory reserves max_pages only, the
  // instance counts one fallback, and the kJit functions' RegCode runs in
  // the checking executor: same results, same traps.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto bytes = guard_edge_module();
  EXPECT_EXIT(std::_Exit(run_without_guard_region(bytes)),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace mpiwasm::test
