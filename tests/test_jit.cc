// Native x86-64 JIT tier: correctness, per-function interpreter fallback,
// trap-point identity with the interpreter, memory.grow base/size reload,
// and the cache v6 native-blob validation chain (feature/layout mismatch ->
// recompile -> threaded fallback).
#include "testlib.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "runtime/cache.h"
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
  cfg.jit = true;  // independent of the MPIWASM_JIT ambient default
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
  cfg.jit = true;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_EQ(cm->tier, EngineTier::kJit);
  EXPECT_EQ(cm->jit_funcs.load(), 1u);
}

TEST(Jit, JitOffDegradesToOptimizing) {
  auto bytes = arith_module();
  EngineConfig off = jit_config();
  off.jit = false;
  auto cm = rt::compile({bytes.data(), bytes.size()}, off);
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
  // i8x16.splat has no template; the function must run through the threaded
  // interpreter and still produce the right answer, counted as a fallback.
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.op(Op::kI8x16Splat);
    f.lane_op(Op::kI8x16ExtractLaneU, 3);
    f.end();
  });
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
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
  g.lane_op(Op::kI8x16ExtractLaneU, 3);
  g.end();
  auto& f = b.begin_func({{I32, I32}, {I32}}, "run");
  f.local_get(0);
  f.local_get(1);
  f.op(Op::kI32Add);
  f.end();
  auto bytes = b.build();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
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
    cfg.jit = true;
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

struct DivOutcome {
  bool trapped = false;
  i64 value = 0;
  TrapKind kind = TrapKind::kHostError;
  std::string message;
  bool operator==(const DivOutcome&) const = default;
};

DivOutcome run_div(rt::Instance& inst, const std::string& name, bool wide,
                   i64 x, i64 y) {
  DivOutcome o;
  try {
    if (wide) {
      o.value = inst.invoke(name, std::vector<Value>{Value::from_i64(x),
                                                     Value::from_i64(y)})
                    .as_i64();
    } else {
      o.value = inst.invoke(name, std::vector<Value>{Value::from_i32(i32(x)),
                                                     Value::from_i32(i32(y))})
                    .as_i32();
    }
  } catch (const Trap& t) {
    o.trapped = true;
    o.kind = t.kind();
    o.message = t.what();
  }
  return o;
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
        DivOutcome first;
        for (size_t p = 0; p < std::size(kDivPlaces); ++p) {
          const std::string& name = names[o * std::size(kDivPlaces) + p];
          const DivOutcome want = run_div(*ref, name, wide, dividend, divisor);
          const DivOutcome got = run_div(jit, name, wide, dividend, divisor);
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

TEST(Jit, MemoryGrowReloadsBaseAndSize) {
  // grow(+1), then store/load at an address that was OOB before the grow:
  // the native code must pick up the new base and size from the helper.
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
  EXPECT_EQ(warm->jit_funcs.load(), 1u) << "blob must install from cache";
  ASSERT_NE(warm->regcode.funcs[0].jit, nullptr);
  EXPECT_EQ(warm->regcode.funcs[0].jit->layout_hash, rt::jit_layout_hash());
  rt::ImportTable imports;
  rt::Instance inst(warm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
  fs::remove_all(dir);
}

TEST(Jit, CacheBlobWithWrongLayoutHashIsRecompiledNotInstalled) {
  auto dir = fresh_cache_dir();
  auto bytes = arith_module();
  EngineConfig cfg = jit_config();
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  rt::compile({bytes.data(), bytes.size()}, cfg);

  // Flip the layout hash AND poison the machine code: if the engine ever
  // installed this blob instead of rejecting it, `run` would return without
  // computing the result (0xC3 = ret) and the assertion below would fail.
  mutate_cache_entry(dir, [](rt::RModule& rm) {
    ASSERT_NE(rm.funcs[0].jit, nullptr);
    auto blob = std::make_shared<rt::JitBlob>(*rm.funcs[0].jit);
    blob->layout_hash ^= 0x1;
    std::fill(blob->code.begin(), blob->code.end(), u8(0xC3));
    blob->relocs.clear();
    rm.funcs[0].jit = std::move(blob);
  });

  auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_TRUE(warm->loaded_from_cache);  // RegCode part is still valid
  EXPECT_EQ(warm->jit_funcs.load(), 1u) << "stale blob must be recompiled";
  rt::ImportTable imports;
  rt::Instance inst(warm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
  fs::remove_all(dir);
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
  EXPECT_EQ(warm->jit_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(warm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(6),
                                                  Value::from_i32(7)})
                .as_i32(),
            47);
  fs::remove_all(dir);
}

TEST(Jit, InvalidBlobOnUncompilableFunctionFallsBackToThreaded) {
  // An uncovered-op function never gets a blob; graft a stale one onto its
  // cache entry. The engine must reject it (layout mismatch), fail the
  // recompile (no template for i8x16.splat), and silently run the function
  // through the threaded interpreter.
  auto dir = fresh_cache_dir();
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.op(Op::kI8x16Splat);
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
  EXPECT_EQ(warm->jit_funcs.load(), 0u);
  EXPECT_EQ(warm->jit_fallback_funcs.load(), 1u);
  rt::ImportTable imports;
  rt::Instance inst(warm, imports);
  EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(77)})
                .as_i32(),
            77);
  fs::remove_all(dir);
}

TEST(Jit, TruncatedNativeSectionRejectsWholeEntry) {
  auto bytes = arith_module();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  ASSERT_NE(cm->regcode.funcs[0].jit, nullptr);
  auto blob = rt::serialize_regcode(cm->regcode);
  // Cut inside the native section (the last bytes of the entry).
  for (size_t cut = blob.size() - 1; cut > blob.size() - 12; --cut)
    EXPECT_FALSE(rt::deserialize_regcode({blob.data(), cut}).has_value())
        << "prefix of " << cut << " bytes";
}

// --- tier-up into native code -----------------------------------------------

TEST(Jit, TieredPromotionReachesNativeCode) {
  auto bytes = arith_module();
  EngineConfig cfg;
  cfg.tier = EngineTier::kTiered;
  cfg.jit = true;
  cfg.tierup_opt_threshold = 2;
  cfg.tierup_jit_threshold = 4;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  for (u64 call = 1; call <= 8; ++call) {
    const i32 k = i32(call);
    EXPECT_EQ(inst.invoke("run", std::vector<Value>{Value::from_i32(k),
                                                    Value::from_i32(2)})
                  .as_i32(),
              2 * k + 5)
        << "call " << call;
    const auto snap = rt::tierup_snapshot(*cm);
    // Interp until the opt threshold, optimizing until the jit threshold,
    // then native code behind the steady thunk, which stops counting.
    const bool optimized = call >= cfg.tierup_opt_threshold;
    const bool native = call >= cfg.tierup_jit_threshold;
    EXPECT_EQ(snap.funcs_predecoded, optimized ? 0u : 1u) << "call " << call;
    EXPECT_EQ(snap.funcs_regcode, optimized ? 1u : 0u) << "call " << call;
    EXPECT_EQ(snap.promoted_optimizing, optimized ? 1u : 0u)
        << "call " << call;
    EXPECT_EQ(snap.promoted_jit, native ? 1u : 0u) << "call " << call;
    EXPECT_EQ(snap.jit_funcs, native ? 1u : 0u) << "call " << call;
    EXPECT_EQ(snap.calls_counted, std::min(call, cfg.tierup_jit_threshold))
        << "call " << call;
  }
  EXPECT_GT(rt::tierup_snapshot(*cm).jit_code_bytes, 0u);
}

TEST(Jit, SnapshotCountsStaticJitModules) {
  auto bytes = arith_module();
  auto cm = rt::compile({bytes.data(), bytes.size()}, jit_config());
  auto snap = rt::tierup_snapshot(*cm);
  EXPECT_EQ(snap.funcs_total, 1u);
  EXPECT_EQ(snap.funcs_regcode, 1u);
  EXPECT_EQ(snap.jit_funcs, 1u);
  EXPECT_EQ(snap.jit_fallback_funcs, 0u);
  EXPECT_GT(snap.jit_code_bytes, 0u);
}

}  // namespace
}  // namespace mpiwasm::test
