// Core execution-engine tests: every tier must run arithmetic, control
// flow, calls, memory ops, globals, and SIMD correctly.
#include "testlib.h"

namespace mpiwasm::test {
namespace {

class RuntimeCoreTest : public ::testing::TestWithParam<EngineTier> {};

INSTANTIATE_TEST_SUITE_P(AllTiers, RuntimeCoreTest,
                         ::testing::ValuesIn(all_tiers()),
                         [](const auto& info) {
                           return rt::tier_name(info.param);
                         });

TEST_P(RuntimeCoreTest, AddTwoI32Params) {
  auto bytes = build_single_func({{I32, I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.op(Op::kI32Add);
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  Value r = inst->invoke("run", std::vector<Value>{Value::from_i32(40),
                                                   Value::from_i32(2)});
  EXPECT_EQ(r.as_i32(), 42);
}

TEST_P(RuntimeCoreTest, I64Arithmetic) {
  auto bytes = build_single_func({{I64, I64}, {I64}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.op(Op::kI64Mul);
    f.i64_const(7);
    f.op(Op::kI64Add);
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  Value r = inst->invoke("run", std::vector<Value>{
                                    Value::from_i64(123456789),
                                    Value::from_i64(987654321)});
  EXPECT_EQ(r.as_i64(), 123456789LL * 987654321LL + 7);
}

TEST_P(RuntimeCoreTest, F64Math) {
  auto bytes = build_single_func({{F64}, {F64}}, [](auto& f) {
    f.local_get(0);
    f.op(Op::kF64Sqrt);
    f.local_get(0);
    f.op(Op::kF64Mul);
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  Value r = inst->invoke("run", std::vector<Value>{Value::from_f64(16.0)});
  EXPECT_DOUBLE_EQ(r.as_f64(), 64.0);
}

TEST_P(RuntimeCoreTest, LoopSum) {
  // sum of 0..n-1 via the builder's structured for-loop helper.
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    u32 i = f.add_local(I32);
    u32 acc = f.add_local(I32);
    f.for_loop_i32(i, 0, 0 /*limit = param 0*/, 1, [&] {
      f.local_get(acc);
      f.local_get(i);
      f.op(Op::kI32Add);
      f.local_set(acc);
    });
    f.local_get(acc);
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  Value r = inst->invoke("run", std::vector<Value>{Value::from_i32(100)});
  EXPECT_EQ(r.as_i32(), 4950);
}

TEST_P(RuntimeCoreTest, IfElseWithResult) {
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.i32_const(0);
    f.op(Op::kI32GeS);
    f.if_(I32);
    f.local_get(0);
    f.else_();
    f.i32_const(0);
    f.local_get(0);
    f.op(Op::kI32Sub);
    f.end();  // if
    f.end();  // func
  });
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(-5)}).as_i32(), 5);
  EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(9)}).as_i32(), 9);
}

TEST_P(RuntimeCoreTest, NestedBlocksAndBranches) {
  // Computes: if x == 0 -> 100; x == 1 -> 200; else 300, via br_table.
  auto bytes2 = build_single_func({{I32}, {I32}}, [](auto& f) {
    u32 out = f.add_local(I32);
    f.block();      // default exit    (depth 2 inside innermost)
    f.block();      // case 1          (depth 1)
    f.block();      // case 0          (depth 0)
    f.local_get(0);
    f.br_table({0, 1}, 2);
    f.end();
    f.i32_const(100);
    f.local_set(out);
    f.br(1);
    f.end();
    f.i32_const(200);
    f.local_set(out);
    f.br(0);
    f.end();
    f.local_get(out);
    f.i32_const(0);
    f.op(Op::kI32Eq);
    f.if_();
    f.i32_const(300);
    f.local_set(out);
    f.end();
    f.local_get(out);
    f.end();
  });
  auto inst = instantiate(bytes2, GetParam());
  EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(0)}).as_i32(), 100);
  EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(1)}).as_i32(), 200);
  EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(7)}).as_i32(), 300);
}

TEST_P(RuntimeCoreTest, RecursiveFib) {
  ModuleBuilder b;
  auto& f = b.begin_func({{I32}, {I32}}, "fib");
  f.local_get(0);
  f.i32_const(2);
  f.op(Op::kI32LtS);
  f.if_(I32);
  f.local_get(0);
  f.else_();
  f.local_get(0);
  f.i32_const(1);
  f.op(Op::kI32Sub);
  f.call(f.index());
  f.local_get(0);
  f.i32_const(2);
  f.op(Op::kI32Sub);
  f.call(f.index());
  f.op(Op::kI32Add);
  f.end();
  f.end();
  auto bytes = b.build();
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("fib", std::vector<Value>{Value::from_i32(15)}).as_i32(), 610);
}

TEST_P(RuntimeCoreTest, MemoryLoadStoreRoundTrip) {
  auto bytes = build_single_func({{I32, I64}, {I64}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.mem_op(Op::kI64Store, 8);
    f.local_get(0);
    f.mem_op(Op::kI64Load, 8);
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  Value r = inst->invoke("run", std::vector<Value>{
                                    Value::from_i32(64),
                                    Value::from_i64(0x1122334455667788LL)});
  EXPECT_EQ(r.as_i64(), 0x1122334455667788LL);
}

TEST_P(RuntimeCoreTest, SubWidthLoadsSignExtend) {
  auto bytes = build_single_func({{}, {I32}}, [](auto& f) {
    f.i32_const(0);
    f.i32_const(-1);  // 0xFFFFFFFF
    f.mem_op(Op::kI32Store, 0);
    f.i32_const(0);
    f.mem_op(Op::kI32Load8S, 0);  // -1
    f.i32_const(0);
    f.mem_op(Op::kI32Load8U, 1);  // 255
    f.op(Op::kI32Add);            // 254
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("run").as_i32(), 254);
}

TEST_P(RuntimeCoreTest, MemoryCopyAndFill) {
  auto bytes = build_single_func({{}, {I32}}, [](auto& f) {
    // fill [0,16) with 0xAB, copy to [100,116), read back byte 107.
    f.i32_const(0);
    f.i32_const(0xAB);
    f.i32_const(16);
    f.op(Op::kMemoryFill);
    f.i32_const(100);
    f.i32_const(0);
    f.i32_const(16);
    f.op(Op::kMemoryCopy);
    f.i32_const(107);
    f.mem_op(Op::kI32Load8U, 0);
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("run").as_i32(), 0xAB);
}

TEST_P(RuntimeCoreTest, MemorySizeAndGrow) {
  auto bytes = build_single_func({{}, {I32}}, [](auto& f) {
    f.i32_const(2);
    f.op(Op::kMemoryGrow);  // previous size: 1
    f.op(Op::kMemorySize);  // now 3
    f.op(Op::kI32Add);      // 1 + 3
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("run").as_i32(), 4);
}

TEST_P(RuntimeCoreTest, GlobalsMutate) {
  ModuleBuilder b;
  u32 g = b.add_global(I64, true, 10);
  auto& f = b.begin_func({{}, {I64}}, "bump");
  f.global_get(g);
  f.i64_const(5);
  f.op(Op::kI64Add);
  f.global_set(g);
  f.global_get(g);
  f.end();
  auto bytes = b.build();
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("bump").as_i64(), 15);
  EXPECT_EQ(inst->invoke("bump").as_i64(), 20);
}

TEST_P(RuntimeCoreTest, CallIndirectDispatch) {
  ModuleBuilder b;
  b.add_table(2);
  auto& fa = b.begin_func({{I32}, {I32}}, "");
  fa.local_get(0);
  fa.i32_const(1);
  fa.op(Op::kI32Add);
  fa.end();
  auto& fb = b.begin_func({{I32}, {I32}}, "");
  fb.local_get(0);
  fb.i32_const(2);
  fb.op(Op::kI32Mul);
  fb.end();
  b.add_elem(0, {fa.index(), fb.index()});
  u32 sig = b.add_type({{I32}, {I32}});
  auto& f = b.begin_func({{I32, I32}, {I32}}, "dispatch");
  f.local_get(0);   // argument
  f.local_get(1);   // table index
  f.call_indirect(sig);
  f.end();
  auto bytes = b.build();
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("dispatch", std::vector<Value>{Value::from_i32(10),
                                                        Value::from_i32(0)})
                .as_i32(),
            11);
  EXPECT_EQ(inst->invoke("dispatch", std::vector<Value>{Value::from_i32(10),
                                                        Value::from_i32(1)})
                .as_i32(),
            20);
}

TEST_P(RuntimeCoreTest, SelectAndDrop) {
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.i32_const(111);  // dropped
    f.op(Op::kDrop);
    f.i32_const(7);
    f.i32_const(9);
    f.local_get(0);
    f.op(Op::kSelect);
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(1)}).as_i32(), 7);
  EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(0)}).as_i32(), 9);
}

TEST_P(RuntimeCoreTest, HostFunctionImport) {
  ModuleBuilder b;
  u32 host = b.import_func("env", "triple", {{I32}, {I32}});
  auto& f = b.begin_func({{I32}, {I32}}, "run");
  f.local_get(0);
  f.call(host);
  f.i32_const(1);
  f.op(Op::kI32Add);
  f.end();
  auto bytes = b.build();

  rt::ImportTable imports;
  imports.add("env", "triple", {{I32}, {I32}},
              [](rt::HostContext&, const rt::Slot* args, rt::Slot* result) {
                result->i32v = args[0].i32v * 3;
              });
  auto inst = instantiate(bytes, GetParam(), imports);
  EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(5)}).as_i32(), 16);
}

TEST_P(RuntimeCoreTest, DataSegmentsInitializeMemory) {
  ModuleBuilder b;
  b.add_memory(1);
  b.export_memory();
  b.add_data_string(32, "HPC!");
  auto& f = b.begin_func({{}, {I32}}, "run");
  f.i32_const(32);
  f.mem_op(Op::kI32Load, 0);
  f.end();
  auto bytes = b.build();
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("run").as_u32(), 0x21435048u);  // "HPC!" LE
}

TEST_P(RuntimeCoreTest, SimdF64x2Arithmetic) {
  auto bytes = build_single_func({{F64, F64}, {F64}}, [](auto& f) {
    f.local_get(0);
    f.op(Op::kF64x2Splat);
    f.local_get(1);
    f.op(Op::kF64x2Splat);
    f.op(Op::kF64x2Mul);
    f.local_get(0);
    f.op(Op::kF64x2Splat);
    f.op(Op::kF64x2Add);
    f.lane_op(Op::kF64x2ExtractLane, 1);
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  Value r = inst->invoke("run", std::vector<Value>{Value::from_f64(3.0),
                                                   Value::from_f64(4.0)});
  EXPECT_DOUBLE_EQ(r.as_f64(), 15.0);  // 3*4 + 3
}

TEST_P(RuntimeCoreTest, SimdI32x4AndBitops) {
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.op(Op::kI32x4Splat);
    f.local_get(0);
    f.op(Op::kI32x4Splat);
    f.op(Op::kI32x4Add);       // 2x
    f.local_get(0);
    f.op(Op::kI32x4Splat);
    f.op(Op::kI32x4Mul);       // 2x^2
    f.lane_op(Op::kI32x4ExtractLane, 2);
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(6)}).as_i32(), 72);
}

TEST_P(RuntimeCoreTest, SimdMemoryRoundTrip) {
  auto bytes = build_single_func({{}, {I64}}, [](auto& f) {
    wasm::V128 k{};
    k.set_lane<u64, 2>(0, 0xDEADBEEFull);
    k.set_lane<u64, 2>(1, 0xC0FFEEull);
    f.i32_const(256);
    f.v128_const(k);
    f.mem_op(Op::kV128Store);
    f.i32_const(256);
    f.mem_op(Op::kV128Load);
    f.lane_op(Op::kI64x2ExtractLane, 0);
    f.i32_const(256);
    f.mem_op(Op::kV128Load);
    f.lane_op(Op::kI64x2ExtractLane, 1);
    f.op(Op::kI64Add);
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("run").as_i64(), i64(0xDEADBEEFull + 0xC0FFEEull));
}

TEST_P(RuntimeCoreTest, ConversionRoundTrips) {
  auto bytes = build_single_func({{F64}, {F64}}, [](auto& f) {
    f.local_get(0);
    f.op(Op::kI64TruncF64S);
    f.op(Op::kF64ConvertI64S);
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  EXPECT_DOUBLE_EQ(
      inst->invoke("run", std::vector<Value>{Value::from_f64(1234.75)}).as_f64(),
      1234.0);
}

TEST_P(RuntimeCoreTest, WhileLoopHelper) {
  // Collatz step count for n=27 is 111.
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    u32 n = 0;
    u32 steps = f.add_local(I32);
    f.while_i32(
        [&] {
          f.local_get(n);
          f.i32_const(1);
          f.op(Op::kI32GtS);
        },
        [&] {
          f.local_get(n);
          f.i32_const(1);
          f.op(Op::kI32And);
          f.if_();
          f.local_get(n);
          f.i32_const(3);
          f.op(Op::kI32Mul);
          f.i32_const(1);
          f.op(Op::kI32Add);
          f.local_set(n);
          f.else_();
          f.local_get(n);
          f.i32_const(1);
          f.op(Op::kI32ShrU);
          f.local_set(n);
          f.end();
          f.local_get(steps);
          f.i32_const(1);
          f.op(Op::kI32Add);
          f.local_set(steps);
        });
    f.local_get(steps);
    f.end();
  });
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("run", std::vector<Value>{Value::from_i32(27)}).as_i32(), 111);
}

TEST_P(RuntimeCoreTest, StartFunctionRunsAtInstantiation) {
  ModuleBuilder b;
  b.add_memory(1);
  u32 g = b.add_global(I32, true, 0);
  auto& init = b.begin_func({{}, {}}, "");
  init.i32_const(77);
  init.global_set(g);
  init.end();
  b.set_start(init.index());
  auto& f = b.begin_func({{}, {I32}}, "read");
  f.global_get(g);
  f.end();
  auto bytes = b.build();
  auto inst = instantiate(bytes, GetParam());
  EXPECT_EQ(inst->invoke("read").as_i32(), 77);
}

/// Appends `v` as an unsigned LEB128.
void put_leb(std::vector<u8>& out, u32 v) {
  do {
    u8 b = v & 0x7F;
    v >>= 7;
    out.push_back(v != 0 ? u8(b | 0x80) : b);
  } while (v != 0);
}

TEST(CanonicalIds, StructurallyEqualTypesShareTheFirstIndex) {
  // The builder deduplicates types, so the type section is written by
  // hand: types () -> (), (i32) -> (), () -> (), (i32) -> (), (i32) -> (i32);
  // imports m.a of type 2 and m.b of type 3; one function of type 4.
  const std::vector<u8> bytes = {
      0x00, 0x61, 0x73, 0x6D, 1, 0, 0, 0,
      0x01, 0x14, 0x05, 0x60, 0x00, 0x00, 0x60, 0x01, 0x7F, 0x00, 0x60, 0x00,
      0x00, 0x60, 0x01, 0x7F, 0x00, 0x60, 0x01, 0x7F, 0x01, 0x7F,
      0x02, 0x0D, 0x02, 0x01, 0x6D, 0x01, 0x61, 0x00, 0x02, 0x01, 0x6D, 0x01,
      0x62, 0x00, 0x03,
      0x03, 0x02, 0x01, 0x04,
      0x0A, 0x06, 0x01, 0x04, 0x00, 0x20, 0x00, 0x0B};
  EngineConfig cfg;
  cfg.tier = EngineTier::kInterp;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_EQ(cm->canon_type_ids, (std::vector<u32>{0, 1, 0, 1, 4}));
  EXPECT_EQ(cm->func_canon, (std::vector<u32>{0, 1, 4}));
}

TEST(CanonicalIds, ManyRepeatedTypes) {
  // 6,000 types cycling through 100 shapes, (i32 x k) -> () and
  // (i32 x k) -> (i64) for k < 50: type i's id is i % 100.
  constexpr u32 kTypes = 6000;
  std::vector<u8> section;
  put_leb(section, kTypes);
  for (u32 i = 0; i < kTypes; ++i) {
    const u32 shape = i % 100;
    section.push_back(0x60);
    put_leb(section, shape % 50);
    section.insert(section.end(), shape % 50, 0x7F);
    if (shape < 50) {
      section.push_back(0x00);
    } else {
      section.push_back(0x01);
      section.push_back(0x7E);
    }
  }
  std::vector<u8> bytes = {0x00, 0x61, 0x73, 0x6D, 1, 0, 0, 0, 0x01};
  put_leb(bytes, u32(section.size()));
  bytes.insert(bytes.end(), section.begin(), section.end());
  EngineConfig cfg;
  cfg.tier = EngineTier::kInterp;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  ASSERT_EQ(cm->canon_type_ids.size(), kTypes);
  for (u32 i = 0; i < kTypes; ++i)
    ASSERT_EQ(cm->canon_type_ids[i], i % 100) << "type " << i;
}

}  // namespace
}  // namespace mpiwasm::test
