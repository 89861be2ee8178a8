// Optimizer pass tests: transformations fire where expected and never
// change observable results (checked against the interpreter and the
// unoptimized lowering).
#include "testlib.h"

#include <bit>

#include "runtime/lowering.h"
#include "runtime/optimizer.h"
#include "wasm/decoder.h"

namespace mpiwasm::test {
namespace {

using rt::RFunc;
using rt::RModule;
using rt::ROp;

RFunc lower_one(const std::vector<u8>& bytes, bool optimize) {
  auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
  EXPECT_TRUE(decoded.ok()) << decoded.error;
  RFunc f = rt::lower_function(*decoded.module, 0);
  if (optimize) rt::optimize_function(f);
  return f;
}

bool contains_op(const RFunc& f, ROp op) {
  for (const auto& in : f.code)
    if (in.op == op) return true;
  return false;
}

size_t count_op(const RFunc& f, ROp op) {
  size_t n = 0;
  for (const auto& in : f.code)
    if (in.op == op) ++n;
  return n;
}

TEST(Optimizer, FoldsConstantExpressions) {
  auto bytes = build_single_func({{}, {I32}}, [](auto& f) {
    f.i32_const(6);
    f.i32_const(7);
    f.op(Op::kI32Mul);
    f.end();
  }, 0);
  RFunc f = lower_one(bytes, true);
  // Must collapse to a single Const + Return.
  EXPECT_FALSE(contains_op(f, ROp::kI32Mul));
  ASSERT_GE(f.code.size(), 1u);
  EXPECT_EQ(f.code[0].op, ROp::kConst);
  EXPECT_EQ(u32(f.code[0].imm), 42u);
}

TEST(Optimizer, FusesCompareBranchInLoops) {
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    u32 i = f.add_local(I32);
    u32 acc = f.add_local(I32);
    f.for_loop_i32(i, 0, 0, 1, [&] {
      f.local_get(acc);
      f.local_get(i);
      f.op(Op::kI32Add);
      f.local_set(acc);
    });
    f.local_get(acc);
    f.end();
  }, 0);
  RFunc base = lower_one(bytes, false);
  RFunc opt = lower_one(bytes, true);
  EXPECT_FALSE(contains_op(base, ROp::kBrIfI32GeS));
  EXPECT_TRUE(contains_op(opt, ROp::kBrIfI32GeS))
      << opt.to_string();
  // The loop body must shrink substantially.
  EXPECT_LT(opt.code.size(), base.code.size());
}

TEST(Optimizer, EmitsAddImmForConstIncrements) {
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.i32_const(5);
    f.op(Op::kI32Add);
    f.i32_const(3);
    f.op(Op::kI32Shl);
    f.end();
  }, 0);
  RFunc opt = lower_one(bytes, true);
  EXPECT_TRUE(contains_op(opt, ROp::kI32AddImm)) << opt.to_string();
  EXPECT_TRUE(contains_op(opt, ROp::kI32ShlImm)) << opt.to_string();
}

TEST(Optimizer, FusesF64MulAdd) {
  auto bytes = build_single_func({{F64, F64, F64}, {F64}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.op(Op::kF64Mul);
    f.local_get(2);
    f.op(Op::kF64Add);
    f.end();
  }, 0);
  RFunc opt = lower_one(bytes, true);
  EXPECT_TRUE(contains_op(opt, ROp::kF64MulAdd)) << opt.to_string();
  EXPECT_FALSE(contains_op(opt, ROp::kF64Mul));
}

TEST(Optimizer, RemovesDeadPureCode) {
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.i32_const(9);
    f.op(Op::kI32Mul);
    f.op(Op::kDrop);  // dead computation
    f.local_get(0);
    f.end();
  }, 0);
  RFunc base = lower_one(bytes, false);
  RFunc opt = lower_one(bytes, true);
  EXPECT_TRUE(contains_op(base, ROp::kI32Mul) ||
              contains_op(base, ROp::kI32MulImm));
  EXPECT_FALSE(contains_op(opt, ROp::kI32Mul));
  EXPECT_FALSE(contains_op(opt, ROp::kI32MulImm));
}

TEST(Optimizer, KeepsTrappingOpsEvenIfDead) {
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.i32_const(1);
    f.local_get(0);
    f.op(Op::kI32DivU);  // may trap: must NOT be eliminated
    f.op(Op::kDrop);
    f.i32_const(7);
    f.end();
  }, 0);
  RFunc opt = lower_one(bytes, true);
  EXPECT_TRUE(contains_op(opt, ROp::kI32DivU)) << opt.to_string();
  // And it still traps at runtime on every tier.
  for (EngineTier tier : all_tiers()) {
    auto inst = instantiate(bytes, tier);
    EXPECT_THROW(inst->invoke("run", std::vector<Value>{Value::from_i32(0)}),
                 rt::Trap);
  }
}

TEST(Optimizer, KeepsStoresAndCalls) {
  ModuleBuilder b;
  u32 imp = b.import_func("env", "sink", {{I32}, {}});
  b.add_memory(1);
  auto& f = b.begin_func({{I32}, {I32}}, "run");
  f.i32_const(0);
  f.local_get(0);
  f.mem_op(Op::kI32Store);
  f.local_get(0);
  f.call(imp);
  f.local_get(0);
  f.end();
  auto bytes = b.build();
  auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
  ASSERT_TRUE(decoded.ok());
  RFunc opt = rt::lower_function(*decoded.module, 0);
  rt::optimize_function(opt);
  EXPECT_TRUE(contains_op(opt, ROp::kI32Store));
  EXPECT_TRUE(contains_op(opt, ROp::kCall));
}

TEST(Optimizer, CopyPropagationRemovesLocalShuffles) {
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    u32 t1 = f.add_local(I32);
    u32 t2 = f.add_local(I32);
    f.local_get(0);
    f.local_set(t1);
    f.local_get(t1);
    f.local_set(t2);
    f.local_get(t2);
    f.end();
  }, 0);
  RFunc base = lower_one(bytes, false);
  RFunc opt = lower_one(bytes, true);
  EXPECT_LT(count_op(opt, ROp::kMov), count_op(base, ROp::kMov));
}

TEST(Optimizer, ReducesInstructionCountOnHotLoop) {
  auto bytes = build_single_func({{I32}, {I64}}, [](auto& f) {
    u32 i = f.add_local(I32);
    u32 acc = f.add_local(I64);
    f.for_loop_i32(i, 0, 0, 1, [&] {
      f.local_get(acc);
      f.local_get(i);
      f.op(Op::kI64ExtendI32S);
      f.local_get(i);
      f.op(Op::kI64ExtendI32S);
      f.op(Op::kI64Mul);
      f.op(Op::kI64Add);
      f.local_set(acc);
    });
    f.local_get(acc);
    f.end();
  }, 0);
  RFunc base = lower_one(bytes, false);
  RFunc opt = lower_one(bytes, true);
  // At least 25% fewer executed instruction slots.
  EXPECT_LE(opt.code.size() * 4, base.code.size() * 3)
      << "base=" << base.code.size() << " opt=" << opt.code.size();
  // Semantics preserved.
  auto ib = instantiate(bytes, EngineTier::kInterp);
  auto io = instantiate(bytes, EngineTier::kOptimizing);
  auto in = std::vector<Value>{Value::from_i32(1000)};
  EXPECT_EQ(ib->invoke("run", in).as_i64(), io->invoke("run", in).as_i64());
}

TEST(Optimizer, BranchThreadingCollapsesBrChains) {
  // if/else both branching to end generates Br-to-Br chains.
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.block(I32);
    f.block(I32);
    f.local_get(0);
    f.if_(I32);
    f.i32_const(1);
    f.else_();
    f.i32_const(2);
    f.end();
    f.br(1);  // br over the middle block -> threads through
    f.end();
    f.br(0);
    f.end();
    f.end();
  }, 0);
  RFunc opt = lower_one(bytes, true);
  // Every Br must point at a non-Br instruction (fully threaded).
  for (const auto& in : opt.code) {
    if (in.op == ROp::kBr) {
      EXPECT_NE(opt.code[in.imm].op, ROp::kBr) << opt.to_string();
    }
  }
  for (EngineTier tier : all_tiers()) {
    auto inst = instantiate(bytes, tier);
    EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(1)}).as_i32(), 1);
    EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(0)}).as_i32(), 2);
  }
}

// ---------------------------------------------------------------------------
// Fused forms (indexed address, f32 multiply-add; compare+select stays
// unfused) and mul->shl strength reduction.
// ---------------------------------------------------------------------------

TEST(Superinstructions, StrengthReducesMulByPowerOfTwo) {
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.i32_const(8);
    f.op(Op::kI32Mul);
    f.end();
  }, 0);
  RFunc opt = lower_one(bytes, true);
  EXPECT_TRUE(contains_op(opt, ROp::kI32ShlImm)) << opt.to_string();
  EXPECT_FALSE(contains_op(opt, ROp::kI32MulImm)) << opt.to_string();
  for (EngineTier tier : all_tiers()) {
    auto inst = instantiate(bytes, tier);
    EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(7)}).as_i32(),
              56);
  }
}

TEST(Superinstructions, CmpSelectStaysCompareThenSelect) {
  // min(x, y) = select(x, y, x < y): no fused compare-and-select form; the
  // compare writes a register the plain select reads.
  auto bytes = build_single_func({{I32, I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.local_get(0);
    f.local_get(1);
    f.op(Op::kI32LtS);
    f.op(Op::kSelect);
    f.end();
  }, 0);
  RFunc opt = lower_one(bytes, true);
  EXPECT_TRUE(contains_op(opt, ROp::kI32LtS)) << opt.to_string();
  EXPECT_TRUE(contains_op(opt, ROp::kSelect)) << opt.to_string();
  for (EngineTier tier : all_tiers()) {
    auto inst = instantiate(bytes, tier);
    auto lo = std::vector<Value>{Value::from_i32(-3), Value::from_i32(9)};
    auto hi = std::vector<Value>{Value::from_i32(9), Value::from_i32(-3)};
    EXPECT_EQ(inst->invoke("run", lo).as_i32(), -3) << rt::tier_name(tier);
    EXPECT_EQ(inst->invoke("run", hi).as_i32(), -3) << rt::tier_name(tier);
  }
}

TEST(Superinstructions, FusesIndexedAddress) {
  // a[base + i*4] with a register base and a scaled index.
  auto bytes = build_single_func({{I32, I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.i32_const(4);
    f.op(Op::kI32Mul);
    f.op(Op::kI32Add);
    f.mem_op(Op::kI32Load);
    f.end();
  });
  RFunc opt = lower_one(bytes, true);
  EXPECT_TRUE(contains_op(opt, ROp::kI32LoadIx)) << opt.to_string();
  EXPECT_FALSE(contains_op(opt, ROp::kI32Load)) << opt.to_string();
}

TEST(Superinstructions, FusesIndexedStoreAndUnscaledLoad) {
  // mem[base + i*8] = f64(v), then return mem[base + i] as i32: the store
  // takes the scaled window, the load the unscaled (shift 0) one.
  auto bytes = build_single_func({{I32, I32, F64}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.i32_const(8);
    f.op(Op::kI32Mul);
    f.op(Op::kI32Add);
    f.local_get(2);
    f.mem_op(Op::kF64Store);
    f.local_get(0);
    f.local_get(1);
    f.op(Op::kI32Add);
    f.mem_op(Op::kI32Load);
    f.end();
  });
  RFunc opt = lower_one(bytes, true);
  EXPECT_TRUE(contains_op(opt, ROp::kF64StoreIx)) << opt.to_string();
  EXPECT_TRUE(contains_op(opt, ROp::kI32LoadIx)) << opt.to_string();
  EXPECT_FALSE(contains_op(opt, ROp::kI32Add)) << opt.to_string();
  for (EngineTier tier : all_tiers()) {
    auto inst = instantiate(bytes, tier);
    // base 64, i 2: the f64 lands at 80; bytes 66..69 are still zero.
    auto in = std::vector<Value>{Value::from_i32(64), Value::from_i32(2),
                                 Value::from_f64(1.0)};
    EXPECT_EQ(inst->invoke("run", in).as_i32(), 0) << rt::tier_name(tier);
    EXPECT_EQ(inst->memory().load<f64>(80), 1.0) << rt::tier_name(tier);
    // i 0: the f64 at 64 is read back by its low word.
    in[1] = Value::from_i32(0);
    in[2] = Value::from_f64(0.1);
    EXPECT_EQ(u32(inst->invoke("run", in).as_i32()),
              u32(std::bit_cast<u64>(0.1)))
        << rt::tier_name(tier);
  }
}

TEST(Superinstructions, FusesF32MulAdd) {
  auto bytes = build_single_func({{F32, F32, F32}, {F32}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.op(Op::kF32Mul);
    f.local_get(2);
    f.op(Op::kF32Add);
    f.end();
  }, 0);
  RFunc opt = lower_one(bytes, true);
  EXPECT_TRUE(contains_op(opt, ROp::kF32MulAdd)) << opt.to_string();
  EXPECT_FALSE(contains_op(opt, ROp::kF32Mul)) << opt.to_string();
}

// ---------------------------------------------------------------------------
// SIMD-aware optimizer additions.
// ---------------------------------------------------------------------------

TEST(SimdSuperinstructions, FusesV128IndexedAddress) {
  auto bytes = build_single_func({{I32, I32}, {F64}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.i32_const(16);
    f.op(Op::kI32Mul);
    f.op(Op::kI32Add);
    f.mem_op(Op::kV128Load);
    f.lane_op(Op::kF64x2ExtractLane, 0);
    f.end();
  });
  RFunc opt = lower_one(bytes, true);
  EXPECT_TRUE(contains_op(opt, ROp::kV128LoadIx)) << opt.to_string();
  EXPECT_FALSE(contains_op(opt, ROp::kV128Load)) << opt.to_string();
}

TEST(SimdSuperinstructions, FusesV128AndScalarOffOneIndex) {
  // v128 and scalar loads off the same scaled index each fold their own
  // address arithmetic.
  auto bytes = build_single_func({{I32, I32}, {F64}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.i32_const(16);
    f.op(Op::kI32Mul);
    f.op(Op::kI32Add);
    f.mem_op(Op::kV128Load);
    f.lane_op(Op::kF64x2ExtractLane, 0);
    f.local_get(0);
    f.local_get(1);
    f.i32_const(8);
    f.op(Op::kI32Mul);
    f.op(Op::kI32Add);
    f.mem_op(Op::kF64Load);
    f.op(Op::kF64Add);
    f.end();
  });
  RFunc opt = lower_one(bytes, true);
  EXPECT_TRUE(contains_op(opt, ROp::kV128LoadIx)) << opt.to_string();
  EXPECT_FALSE(contains_op(opt, ROp::kV128Load)) << opt.to_string();
  EXPECT_TRUE(contains_op(opt, ROp::kF64LoadIx)) << opt.to_string();
}

TEST(SimdFolding, SplatOfConstantBecomesPooledV128Const) {
  auto bytes = build_single_func({{}, {F64}}, [](auto& f) {
    f.f64_const(2.5);
    f.op(Op::kF64x2Splat);
    f.lane_op(Op::kF64x2ExtractLane, 1);
    f.end();
  }, 0);
  RFunc opt = lower_one(bytes, true);
  EXPECT_FALSE(contains_op(opt, ROp::kF64x2Splat)) << opt.to_string();
  EXPECT_TRUE(contains_op(opt, ROp::kConstV128)) << opt.to_string();
}

TEST(SimdFolding, FoldsV128BinopOfTwoConstants) {
  wasm::V128 a{}, b{};
  for (int i = 0; i < 16; ++i) {
    a.bytes[i] = u8(0xF0 | i);
    b.bytes[i] = u8(0x0F + i);
  }
  auto bytes = build_single_func({{}, {I64}}, [&](auto& f) {
    f.v128_const(a);
    f.v128_const(b);
    f.op(Op::kV128And);
    f.lane_op(Op::kI64x2ExtractLane, 0);
    f.end();
  }, 0);
  RFunc opt = lower_one(bytes, true);
  EXPECT_FALSE(contains_op(opt, ROp::kV128And)) << opt.to_string();
  EXPECT_EQ(count_op(opt, ROp::kConstV128), 1u) << opt.to_string();
}

// ---------------------------------------------------------------------------
// Bounds checks in counted loops: the executor tiers check every access;
// native code checks none, and an out-of-bounds access faults in the
// memory's guard region. Either way a trap fires at the original point.
// ---------------------------------------------------------------------------

namespace {

std::vector<u8> store_loop_module() {
  // run(n): for (i = 0; i < n; ++i) a[i] = i;  return a[n-1]
  return build_single_func({{I32}, {I32}}, [](auto& f) {
    u32 n = 0;
    u32 i = f.add_local(I32);
    f.for_loop_i32(i, 0, n, 1, [&] {
      f.local_get(i);
      f.i32_const(4);
      f.op(Op::kI32Mul);
      f.local_get(i);
      f.mem_op(Op::kI32Store);
    });
    f.local_get(n);
    f.i32_const(1);
    f.op(Op::kI32Sub);
    f.i32_const(4);
    f.op(Op::kI32Mul);
    f.mem_op(Op::kI32Load);
    f.end();
  });
}

}  // namespace

TEST(BoundsHoisting, GuardedLoopComputesSameResults) {
  auto bytes = store_loop_module();
  auto ref = instantiate(bytes, EngineTier::kInterp);
  for (EngineTier tier : all_tiers()) {
    auto inst = instantiate(bytes, tier);
    for (i32 n : {1, 2, 64, 1000, 16384}) {  // 16384 i32s = exactly one page
      auto in = std::vector<Value>{Value::from_i32(n)};
      EXPECT_EQ(ref->invoke("run", in).as_i32(), inst->invoke("run", in).as_i32())
          << rt::tier_name(tier) << " n=" << n;
    }
  }
}

TEST(BoundsHoisting, GuardFailurePreservesTrapPointAndPartialStores) {
  // One page holds 16384 i32 slots; run(16394) must perform stores
  // 0..16383, then trap kMemoryOutOfBounds on i = 16384 — under every
  // engine configuration. At kJit the store has no check: it faults in the
  // guard region and the fault handler raises the trap, with the
  // interpreter's message.
  auto bytes = store_loop_module();
  const i32 fits = 16384;
  const std::string want =
      "access at 65536+4 exceeds memory size 65536";
  for (const EngineConfig& cfg : all_engine_configs()) {
    auto inst = instantiate_cfg(bytes, cfg);
    const rt::CompiledModule& cm = inst->compiled();
    if (cm.tier == EngineTier::kJit) {
      ASSERT_TRUE(inst->memory().guarded());
      ASSERT_NE(rt::compiled_body(cm, 0).jit, nullptr);
      EXPECT_GT(rt::compiled_body(cm, 0).jit->fault_sites, 0u);
    }
    try {
      inst->invoke("run", std::vector<Value>{Value::from_i32(fits + 10)});
      FAIL() << "expected trap under " << config_label(cfg);
    } catch (const rt::Trap& t) {
      EXPECT_EQ(t.kind(), rt::TrapKind::kMemoryOutOfBounds) << config_label(cfg);
      EXPECT_NE(std::string(t.what()).find(want), std::string::npos)
          << config_label(cfg) << ": " << t.what();
    }
    // Every in-bounds iteration must have executed before the trap.
    rt::LinearMemory& mem = inst->memory();
    EXPECT_EQ(mem.load<u32>(0), 0u) << config_label(cfg);
    EXPECT_EQ(mem.load<u32>(4ull * 100), 100u) << config_label(cfg);
    EXPECT_EQ(mem.load<u32>(4ull * (fits - 1)), u32(fits - 1))
        << config_label(cfg);
  }
}

TEST(BoundsHoisting, LoweringFusesConstOperands) {
  // The lowering-time const+binop fusion applies before the optimizer runs.
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.i32_const(5);
    f.op(Op::kI32Add);
    f.end();
  }, 0);
  RFunc base = lower_one(bytes, false);
  EXPECT_TRUE(contains_op(base, ROp::kI32AddImm)) << base.to_string();
  EXPECT_FALSE(contains_op(base, ROp::kI32Add)) << base.to_string();
}

}  // namespace
}  // namespace mpiwasm::test
