// Validator tests: well-typed modules pass; a catalogue of type errors,
// index errors, and structural errors must be rejected with messages.
#include <gtest/gtest.h>

#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/validator.h"

namespace mpiwasm::wasm {
namespace {

ValidationResult validate_bytes(const std::vector<u8>& bytes) {
  auto decoded = decode_module({bytes.data(), bytes.size()});
  EXPECT_TRUE(decoded.ok()) << decoded.error;
  if (!decoded.ok()) return {false, "decode failed"};
  return validate_module(*decoded.module);
}

constexpr ValType I32 = ValType::kI32;
constexpr ValType I64 = ValType::kI64;
constexpr ValType F64 = ValType::kF64;

TEST(Validator, AcceptsWellTypedModule) {
  ModuleBuilder b;
  b.add_memory(1);
  auto& f = b.begin_func({{I32, I32}, {I32}}, "add");
  f.local_get(0);
  f.local_get(1);
  f.op(Op::kI32Add);
  f.end();
  EXPECT_TRUE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsBinopTypeMismatch) {
  ModuleBuilder b;
  auto& f = b.begin_func({{I32, I64}, {I32}}, "bad");
  f.local_get(0);
  f.local_get(1);
  f.op(Op::kI32Add);  // i32 + i64
  f.end();
  auto r = validate_bytes(b.build());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("type mismatch"), std::string::npos);
}

TEST(Validator, RejectsStackUnderflow) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {I32}}, "bad");
  f.op(Op::kI32Add);  // nothing on the stack
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsMissingResult) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {I32}}, "bad");
  f.end();  // no value produced
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsExtraResult) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {}}, "bad");
  f.i32_const(1);
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsWrongResultType) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {F64}}, "bad");
  f.i32_const(1);
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsBadLocalIndex) {
  ModuleBuilder b;
  auto& f = b.begin_func({{I32}, {I32}}, "bad");
  f.local_get(3);
  f.end();
  auto r = validate_bytes(b.build());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("local"), std::string::npos);
}

TEST(Validator, RejectsBadBranchDepth) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {}}, "bad");
  f.block();
  f.br(5);
  f.end();
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsBranchValueMismatch) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {}}, "bad");
  f.block(I32);
  f.f64_const(1.0);
  f.br(0);  // carries f64 into an i32 label
  f.end();
  f.op(Op::kDrop);
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsIfWithoutCondition) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {}}, "bad");
  f.if_();
  f.end();
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsIfResultWithoutElse) {
  ModuleBuilder b;
  auto& f = b.begin_func({{I32}, {I32}}, "bad");
  f.local_get(0);
  f.if_(I32);
  f.i32_const(1);
  f.end();  // if with result but no else
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, AcceptsIfElseWithResult) {
  ModuleBuilder b;
  auto& f = b.begin_func({{I32}, {I32}}, "ok");
  f.local_get(0);
  f.if_(I32);
  f.i32_const(1);
  f.else_();
  f.i32_const(2);
  f.end();
  f.end();
  EXPECT_TRUE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsCallArgMismatch) {
  ModuleBuilder b;
  u32 imp = b.import_func("env", "f", {{I32, I32}, {}});
  auto& f = b.begin_func({{}, {}}, "bad");
  f.i32_const(1);
  f.call(imp);  // missing second arg
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsCallBadIndex) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {}}, "bad");
  f.call(99);
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsMemoryOpWithoutMemory) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {I32}}, "bad");
  f.i32_const(0);
  f.mem_op(Op::kI32Load);
  f.end();
  auto r = validate_bytes(b.build());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("memory"), std::string::npos);
}

TEST(Validator, RejectsOveralignedAccess) {
  ModuleBuilder b;
  b.add_memory(1);
  auto& f = b.begin_func({{}, {I32}}, "bad");
  f.i32_const(0);
  f.mem_op(Op::kI32Load, 0, /*align_log2=*/3);  // 8-byte align on 4-byte load
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsGlobalSetOnImmutable) {
  ModuleBuilder b;
  u32 g = b.add_global(I32, false, 1);
  auto& f = b.begin_func({{}, {}}, "bad");
  f.i32_const(2);
  f.global_set(g);
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsSelectMismatchedOperands) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {}}, "bad");
  f.i32_const(1);
  f.f64_const(2.0);
  f.i32_const(0);
  f.op(Op::kSelect);
  f.op(Op::kDrop);
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsBrTableInconsistentLabels) {
  ModuleBuilder b;
  auto& f = b.begin_func({{I32}, {}}, "bad");
  f.block(I32);   // label with result
  f.block();      // label without
  f.i32_const(1);
  f.local_get(0);
  f.br_table({0}, 1);  // depth0: no result, depth1: i32 result
  f.end();
  f.op(Op::kDrop);
  f.end();
  f.op(Op::kDrop);
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

// The reader refills one view per instruction. A typed block left behind
// in it would make the empty block's end pop an i32 ("value stack
// underflow").
TEST(Validator, AcceptsAnEmptyBlockAfterATypedOne) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {}}, "ok");
  f.block(I32);
  f.i32_const(7);
  f.end();
  f.op(Op::kDrop);
  f.block();
  f.end();
  f.end();
  const ValidationResult r = validate_bytes(b.build());
  EXPECT_TRUE(r.ok) << r.error;
}

// br_table's targets with `short_targets` after a three-target br_table.
// The second one sits where depth 1 is an i32 block, so a target left over
// from the first table would mismatch.
std::vector<u8> two_br_tables(const std::vector<u32>& short_targets) {
  ModuleBuilder b;
  auto& f = b.begin_func({{I32}, {}}, "f");
  f.block(I32);
  f.block();
  f.block();
  f.block();
  f.local_get(0);
  f.br_table({0, 1, 2}, 2);  // all three are empty blocks
  f.end();
  f.end();
  f.local_get(0);
  f.br_table(short_targets, 0);
  f.end();
  f.i32_const(1);
  f.end();
  f.op(Op::kDrop);
  f.end();
  return b.build();
}

TEST(Validator, AcceptsAShorterBrTableAfterALongerOne) {
  const ValidationResult r = validate_bytes(two_br_tables({0}));
  EXPECT_TRUE(r.ok) << r.error;
  const ValidationResult none = validate_bytes(two_br_tables({}));
  EXPECT_TRUE(none.ok) << none.error;
  const ValidationResult bad = validate_bytes(two_br_tables({0, 1}));
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, "func[0]: br_table targets have mismatched result types");
}

// Each thread reuses its stacks from one body to the next, also after a
// body that failed with deep stacks.
TEST(Validator, AFailedBodyLeavesNothingForTheNextModule) {
  ModuleBuilder deep;
  auto& f = deep.begin_func({{}, {}}, "bad");
  for (int i = 0; i < 64; ++i) f.block();
  for (int i = 0; i < 64; ++i) f.i32_const(i);
  f.op(Op::kF64Add);  // fails with 64 frames and 64 values pushed
  for (int i = 0; i < 64; ++i) f.end();
  f.end();
  const ValidationResult bad = validate_bytes(deep.build());
  ASSERT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, "func[0]: type mismatch: expected f64, got i32");

  ModuleBuilder ok;
  auto& g = ok.begin_func({{I64}, {I64}}, "ok");
  g.local_get(0);
  g.end();
  const ValidationResult r = validate_bytes(ok.build());
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(Validator, AcceptsDeadCodeAfterBranch) {
  // After br, stack-polymorphic code is legal per spec.
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {I32}}, "ok");
  f.block(I32);
  f.i32_const(1);
  f.br(0);
  f.op(Op::kI32Add);  // dead, polymorphic
  f.end();
  f.end();
  EXPECT_TRUE(validate_bytes(b.build()).ok);
}

TEST(Validator, AcceptsUnreachableThenAnything) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {I32}}, "ok");
  f.op(Op::kUnreachable);
  f.op(Op::kF64Mul);  // polymorphic after unreachable
  f.op(Op::kDrop);
  f.i32_const(3);
  f.end();
  EXPECT_TRUE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsCallIndirectWithoutTable) {
  ModuleBuilder b;
  u32 sig = b.add_type({{}, {}});
  auto& f = b.begin_func({{}, {}}, "bad");
  f.i32_const(0);
  f.call_indirect(sig);
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsElemFuncIndexOutOfRange) {
  ModuleBuilder b;
  b.add_table(4);
  b.add_elem(0, {17});
  auto& f = b.begin_func({{}, {}}, "f");
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsStartWithSignature) {
  ModuleBuilder b;
  auto& f = b.begin_func({{I32}, {}}, "f");
  f.end();
  b.set_start(f.index());
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsSimdLaneOutOfRange) {
  ModuleBuilder b;
  b.add_memory(1);
  auto& f = b.begin_func({{}, {F64}}, "bad");
  f.v128_const(V128{});
  f.lane_op(Op::kF64x2ExtractLane, 2);  // lanes are 0..1
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, RejectsMemoryOver4GiB) {
  ModuleBuilder b;
  b.add_memory(70000);  // > 65536 pages
  auto& f = b.begin_func({{}, {}}, "f");
  f.end();
  EXPECT_FALSE(validate_bytes(b.build()).ok);
}

TEST(Validator, ErrorMessagesNameTheFunction) {
  ModuleBuilder b;
  b.import_func("env", "x", {{}, {}});
  auto& ok = b.begin_func({{}, {}}, "ok");
  ok.end();
  auto& bad = b.begin_func({{}, {}}, "bad");
  bad.i32_const(1);
  bad.end();
  auto r = validate_bytes(b.build());
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("func[2]"), std::string::npos) << r.error;
}

// `n` functions of ~250 body bytes each; the bodies at `bad_add` (i32 + i64)
// and `bad_underflow` (i32.add on an empty stack) are invalid.
std::vector<u8> build_many_funcs(u32 n, u32 bad_add, u32 bad_underflow) {
  ModuleBuilder b;
  for (u32 i = 0; i < n; ++i) {
    auto& f = b.begin_func({{I32, I64}, {I32}}, i == 0 ? "run" : "");
    for (int k = 0; k < 40; ++k) {
      f.i32_const(1 << 20);
      f.op(Op::kDrop);
    }
    if (i == bad_underflow) f.op(Op::kI32Add);
    f.local_get(0);
    if (i == bad_add) {
      f.local_get(1);
      f.op(Op::kI32Add);
    }
    f.end();
  }
  return b.build();
}

TEST(Validator, ParallelValidationReportsTheLowestFailingFunction) {
  // Big enough to validate in parallel chunks; func[3] and func[900] land
  // in different chunks, and the lower index must win every time.
  const auto big = build_many_funcs(1024, 3, 900);
  ASSERT_GT(big.size(), 200u << 10);
  // The same invalid body in a module too small to split: the message the
  // serial loop gives.
  const auto small = build_many_funcs(4, 3, 4);
  const ValidationResult serial = validate_bytes(small);
  ASSERT_FALSE(serial.ok);
  EXPECT_EQ(serial.error.rfind("func[3]: ", 0), 0u) << serial.error;
  EXPECT_NE(serial.error.find("type mismatch"), std::string::npos)
      << serial.error;
  for (int run = 0; run < 10; ++run) {
    const ValidationResult r = validate_bytes(big);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.error, serial.error);
  }
  // With func[3] fixed, the later failure is reported.
  const ValidationResult later = validate_bytes(build_many_funcs(1024, ~0u, 900));
  ASSERT_FALSE(later.ok);
  EXPECT_EQ(later.error.rfind("func[900]: ", 0), 0u) << later.error;
}

TEST(Validator, ShellAndBodiesSplitTheModuleRules) {
  // validate_module is validate_shell then validate_bodies over every body;
  // a range of bodies reports its own lowest failure.
  const auto bytes = build_many_funcs(1024, 900, 3);
  auto decoded = decode_module({bytes.data(), bytes.size()});
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  const Module& m = *decoded.module;
  EXPECT_TRUE(validate_shell(m).ok);
  const ValidationResult all = validate_module(m);
  ASSERT_FALSE(all.ok);
  EXPECT_EQ(validate_bodies(m, 0, 1024).error, all.error);
  EXPECT_EQ(validate_bodies(m, 3, 1).error, all.error);
  EXPECT_TRUE(validate_bodies(m, 0, 3).ok);
  EXPECT_TRUE(validate_bodies(m, 4, 896).ok);
  const ValidationResult later = validate_bodies(m, 4, 1020);
  ASSERT_FALSE(later.ok);
  EXPECT_EQ(later.error.rfind("func[900]: ", 0), 0u) << later.error;
  EXPECT_TRUE(validate_bodies(m, 1024, 0).ok);
  EXPECT_FALSE(validate_bodies(m, 1024, 1).ok);
  EXPECT_FALSE(validate_bodies(m, 1, ~0u).ok);

  // A shell error is the shell's alone.
  ModuleBuilder b;
  b.add_memory(70000);  // > 65536 pages
  auto& f = b.begin_func({{}, {}}, "f");
  f.i32_const(1);  // and an invalid body
  f.end();
  const auto bad_shell = b.build();
  auto d = decode_module({bad_shell.data(), bad_shell.size()});
  ASSERT_TRUE(d.ok()) << d.error;
  const ValidationResult shell = validate_shell(*d.module);
  ASSERT_FALSE(shell.ok);
  EXPECT_EQ(validate_module(*d.module).error, shell.error);
  EXPECT_EQ(validate_bodies(*d.module, 0, 1).error.rfind("func[0]: ", 0), 0u);
}

}  // namespace
}  // namespace mpiwasm::wasm
