// Builder -> binary -> decoder round-trip tests plus malformed-input
// failure injection for the decoder.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <string>

#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/wat.h"

// While set, an allocation above kAllocCap fails with std::bad_alloc, as
// it would under an address-space limit: a count a hostile module claims
// must not become a reservation.
std::atomic<bool> g_cap_allocations{false};
constexpr size_t kAllocCap = size_t(1) << 20;

void* operator new(size_t n) {
  if (g_cap_allocations.load(std::memory_order_relaxed) && n > kAllocCap)
    throw std::bad_alloc();
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
// Out of line, so that the compiler does not pair a free() it inlined
// with the operator new of the caller.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace mpiwasm::wasm {
namespace {

/// A module made of the header and `sections` (raw section bytes).
std::vector<u8> raw_module(std::vector<u8> sections) {
  std::vector<u8> bytes{0x00, 0x61, 0x73, 0x6D, 1, 0, 0, 0};
  bytes.insert(bytes.end(), sections.begin(), sections.end());
  return bytes;
}

/// decode_module under the allocation cap; fails the test if it throws.
DecodeResult decode_capped(const std::vector<u8>& bytes) {
  DecodeResult r;
  g_cap_allocations = true;
  try {
    r = decode_module({bytes.data(), bytes.size()});
  } catch (const std::exception& e) {
    ADD_FAILURE() << "decode_module threw " << e.what();
  }
  g_cap_allocations = false;
  return r;
}

std::vector<u8> simple_module() {
  ModuleBuilder b;
  u32 imp = b.import_func("env", "MPI_Init", {{ValType::kI32, ValType::kI32},
                                              {ValType::kI32}});
  b.add_memory(2, 10, true);
  b.export_memory();
  b.add_data_string(16, "hello");
  auto& f = b.begin_func({{}, {ValType::kI32}}, "_start");
  f.i32_const(0);
  f.i32_const(0);
  f.call(imp);
  f.end();
  return b.build();
}

TEST(BuilderDecoder, RoundTripStructure) {
  auto bytes = simple_module();
  auto result = decode_module({bytes.data(), bytes.size()});
  ASSERT_TRUE(result.ok()) << result.error;
  const Module& m = *result.module;
  ASSERT_EQ(m.imports.size(), 1u);
  EXPECT_EQ(m.imports[0].module, "env");
  EXPECT_EQ(m.imports[0].name, "MPI_Init");
  ASSERT_EQ(m.memories.size(), 1u);
  EXPECT_EQ(m.memories[0].min, 2u);
  EXPECT_TRUE(m.memories[0].has_max);
  EXPECT_EQ(m.memories[0].max, 10u);
  ASSERT_EQ(m.functions.size(), 1u);
  ASSERT_EQ(m.bodies.size(), 1u);
  EXPECT_NE(m.find_export("_start", ExternKind::kFunc), nullptr);
  EXPECT_NE(m.find_export("memory", ExternKind::kMemory), nullptr);
  ASSERT_EQ(m.datas.size(), 1u);
  EXPECT_EQ(m.datas[0].length, 5u);
  const std::span<const u8> init = m.data(m.datas[0]);
  EXPECT_EQ(std::string(init.begin(), init.end()), "hello");
  EXPECT_EQ(m.num_imported_funcs(), 1u);
  EXPECT_EQ(m.total_funcs(), 2u);
}

TEST(BuilderDecoder, FuncTypeDedup) {
  ModuleBuilder b;
  FuncType t{{ValType::kI32}, {ValType::kI32}};
  EXPECT_EQ(b.add_type(t), b.add_type(t));
}

TEST(BuilderDecoder, InstrStreamRoundTrip) {
  ModuleBuilder b;
  auto& f = b.begin_func({{ValType::kI32}, {ValType::kI32}}, "f");
  f.block(ValType::kI32);
  f.local_get(0);
  f.i32_const(-42);
  f.op(Op::kI32Add);
  f.end();
  f.end();
  auto bytes = b.build();
  auto result = decode_module({bytes.data(), bytes.size()});
  ASSERT_TRUE(result.ok()) << result.error;
  InstrReader r(result.module->code(0));
  std::vector<Op> ops;
  std::vector<i64> imms;
  InstrView v;
  while (!r.done()) {
    r.next(v);
    ops.push_back(v.op);
    imms.push_back(v.imm_i);
  }
  ASSERT_EQ(ops.size(), 6u);
  EXPECT_EQ(ops[0], Op::kBlock);
  EXPECT_EQ(ops[1], Op::kLocalGet);
  EXPECT_EQ(ops[2], Op::kI32Const);
  EXPECT_EQ(imms[2], -42);
  EXPECT_EQ(ops[3], Op::kI32Add);
  EXPECT_EQ(ops[4], Op::kEnd);
  EXPECT_EQ(ops[5], Op::kEnd);
}

TEST(BuilderDecoder, SimdAndPrefixedOpsRoundTrip) {
  ModuleBuilder b;
  b.add_memory(1);
  auto& f = b.begin_func({{}, {ValType::kF64}}, "f");
  V128 k{};
  k.set_lane<f64, 2>(0, 1.5);
  k.set_lane<f64, 2>(1, 2.5);
  f.v128_const(k);
  f.v128_const(k);
  f.op(Op::kF64x2Add);
  f.lane_op(Op::kF64x2ExtractLane, 1);
  f.end();
  auto bytes = b.build();
  auto result = decode_module({bytes.data(), bytes.size()});
  ASSERT_TRUE(result.ok()) << result.error;
  InstrReader r(result.module->code(0));
  InstrView v;
  r.next(v);
  EXPECT_EQ(v.op, Op::kV128Const);
  EXPECT_EQ((v.imm_v128.lane<f64, 2>(1)), 2.5);
  r.next(v);
  r.next(v);
  EXPECT_EQ(v.op, Op::kF64x2Add);
  r.next(v);
  EXPECT_EQ(v.op, Op::kF64x2ExtractLane);
  EXPECT_EQ(v.imm_i, 1);
}

TEST(DecoderFailure, BadMagic) {
  std::vector<u8> bytes{0x00, 0x61, 0x73, 0x6E, 1, 0, 0, 0};
  auto r = decode_module({bytes.data(), bytes.size()});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("magic"), std::string::npos);
}

TEST(DecoderFailure, BadVersion) {
  std::vector<u8> bytes{0x00, 0x61, 0x73, 0x6D, 2, 0, 0, 0};
  auto r = decode_module({bytes.data(), bytes.size()});
  EXPECT_FALSE(r.ok());
}

TEST(DecoderFailure, TruncatedModule) {
  auto bytes = simple_module();
  for (size_t cut : {size_t(9), bytes.size() / 2, bytes.size() - 1}) {
    std::vector<u8> trunc(bytes.begin(), bytes.begin() + cut);
    auto r = decode_module({trunc.data(), trunc.size()});
    EXPECT_FALSE(r.ok()) << "cut at " << cut << " should fail";
  }
}

TEST(DecoderFailure, SectionSizeOverrun) {
  // Type section claiming a huge size.
  std::vector<u8> bytes{0x00, 0x61, 0x73, 0x6D, 1, 0, 0, 0, 0x01, 0x7F};
  auto r = decode_module({bytes.data(), bytes.size()});
  EXPECT_FALSE(r.ok());
}

TEST(DecoderFailure, OutOfOrderSections) {
  // Function section (3) before type section (1).
  std::vector<u8> bytes{0x00, 0x61, 0x73, 0x6D, 1, 0, 0, 0,
                        0x03, 0x01, 0x00,   // function section, empty
                        0x01, 0x01, 0x00};  // type section, empty
  auto r = decode_module({bytes.data(), bytes.size()});
  EXPECT_FALSE(r.ok());
}

TEST(DecoderFailure, CodeCountMismatch) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {}}, "f");
  f.end();
  auto bytes = b.build();
  // Corrupt the code section count (find section id 10 and bump the count).
  for (size_t i = 8; i + 2 < bytes.size(); ++i) {
    if (bytes[i] == 10) {  // code section id at a section boundary
      bytes[i + 2] = 2;    // count: 1 -> 2
      break;
    }
  }
  auto r = decode_module({bytes.data(), bytes.size()});
  EXPECT_FALSE(r.ok());
}

TEST(DecoderFailure, HostileCountsAreErrorsNotReservations) {
  // Each section claims 0x0FFFFFFF entries (LEB FF FF FF 7F) and holds a
  // byte or two; reserving that many entries would ask for gigabytes.
  const u8 kHuge[] = {0xFF, 0xFF, 0xFF, 0x7F};
  auto with_count = [&](std::vector<u8> before, std::vector<u8> after) {
    before.insert(before.end(), std::begin(kHuge), std::end(kHuge));
    before.insert(before.end(), after.begin(), after.end());
    return before;
  };
  struct Case {
    const char* what;
    std::vector<u8> bytes;
  };
  const Case cases[] = {
      {"types", raw_module(with_count({0x01, 0x05}, {0x60}))},
      {"functions", raw_module(with_count({0x03, 0x05}, {0x00}))},
      {"element function indices",
       raw_module({0x01, 0x04, 0x01, 0x60, 0x00, 0x00,  // () -> ()
                   0x03, 0x02, 0x01, 0x00,              // one function
                   0x04, 0x04, 0x01, 0x70, 0x00, 0x01,  // table, min 1
                   0x09, 0x0A, 0x01, 0x00, 0x41, 0x00, 0x0B, 0xFF, 0xFF,
                   0xFF, 0x7F, 0x00})},
      {"bodies", raw_module(with_count({0x0A, 0x05}, {0x00}))},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const DecodeResult r = decode_capped(c.bytes);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(DecoderFailure, BodyChecksAtDecodeTime) {
  // One () -> () function; the code section varies.
  auto with_code = [](std::vector<u8> code_section) {
    std::vector<u8> s{0x01, 0x04, 0x01, 0x60, 0x00, 0x00,  // () -> ()
                      0x03, 0x02, 0x01, 0x00};             // one function
    s.insert(s.end(), code_section.begin(), code_section.end());
    return raw_module(s);
  };
  struct Case {
    const char* error;
    std::vector<u8> code_section;
  };
  const Case cases[] = {
      // 50,001 i32 locals (LEB D1 86 03).
      {"too many locals",
       {0x0A, 0x08, 0x01, 0x06, 0x01, 0xD1, 0x86, 0x03, 0x7F, 0x0B}},
      // Two runs of 25,000 and 25,001.
      {"too many locals",
       {0x0A, 0x0C, 0x01, 0x0A, 0x02, 0xA8, 0xC3, 0x01, 0x7F, 0xA9, 0xC3,
        0x01, 0x7E, 0x0B}},
      // A 2-byte body whose prelude takes 3.
      {"locals overrun body", {0x0A, 0x05, 0x01, 0x02, 0x01, 0x05, 0x7F}},
      {"function body must end with end opcode",
       {0x0A, 0x04, 0x01, 0x02, 0x00, 0x01}},
      {"function body must end with end opcode", {0x0A, 0x03, 0x01, 0x01, 0x00}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.error);
    const std::vector<u8> bytes = with_code(c.code_section);
    const DecodeResult r = decode_module({bytes.data(), bytes.size()});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error, c.error);
  }
  // 50,000 locals is the cap, not past it.
  const std::vector<u8> at_cap = with_code(
      {0x0A, 0x08, 0x01, 0x06, 0x01, 0xD0, 0x86, 0x03, 0x7F, 0x0B});
  const DecodeResult r = decode_module({at_cap.data(), at_cap.size()});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.module->bodies[0].num_locals, 50000u);
}

TEST(BuilderDecoder, BodiesBorrowTheModuleBytes) {
  ModuleBuilder b;
  auto& f = b.begin_func({{ValType::kI32}, {ValType::kI32}}, "f");
  const u32 x = f.add_local(ValType::kI64);
  f.add_local(ValType::kI64);
  f.add_local(ValType::kF64);
  f.local_get(0);
  f.op(Op::kI64ExtendI32S);
  f.local_set(x);
  f.local_get(0);
  f.end();
  auto& g = b.begin_func({{}, {}}, "g");
  g.end();
  const std::vector<u8> bytes = b.build();
  auto result = decode_module({bytes.data(), bytes.size()});
  ASSERT_TRUE(result.ok()) << result.error;
  std::optional<Module> m = std::move(result.module);
  EXPECT_EQ(m->bytes, bytes);
  // Locals as runs, in declaration order.
  ASSERT_EQ(m->locals(0).size(), 2u);
  EXPECT_EQ(m->locals(0)[0].count, 2u);
  EXPECT_EQ(m->locals(0)[0].type, ValType::kI64);
  EXPECT_EQ(m->locals(0)[1].count, 1u);
  EXPECT_EQ(m->locals(0)[1].type, ValType::kF64);
  EXPECT_EQ(m->bodies[0].num_locals, 3u);
  EXPECT_TRUE(m->locals(1).empty());
  EXPECT_EQ(m->bodies[1].num_locals, 0u);
  // Each body is its slice of the binary: the instructions without the
  // prelude, ending with End.
  const std::vector<u8> g_code(m->code(1).begin(), m->code(1).end());
  EXPECT_EQ(g_code, std::vector<u8>{u8(Op::kEnd)});
  EXPECT_EQ(m->code(0).back(), u8(Op::kEnd));
  EXPECT_EQ(m->code(0).data(), m->bytes.data() + m->bodies[0].offset);
  // A copy reads its own bytes once the original is gone.
  const std::vector<u8> f_code(m->code(0).begin(), m->code(0).end());
  const Module copy = *m;
  m.reset();
  EXPECT_EQ(std::vector<u8>(copy.code(0).begin(), copy.code(0).end()), f_code);
  EXPECT_EQ(copy.code(0).data(), copy.bytes.data() + copy.bodies[0].offset);
}

TEST(DecoderFailure, UnknownOpcodeInBody) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {}}, "f");
  f.end();
  auto bytes = b.build();
  auto result = decode_module({bytes.data(), bytes.size()});
  ASSERT_TRUE(result.ok());
  // Inject an unknown opcode directly into the decoded body and re-walk it.
  std::span<const u8> body = result.module->code(0);
  std::vector<u8> code(body.begin(), body.end());
  code.insert(code.begin(), 0xFE);
  InstrReader r(code);
  InstrView v;
  EXPECT_THROW({ while (!r.done()) r.next(v); }, DecodeError);
}

// Every code of the four opcode spaces, in table order.
std::vector<u16> all_codes() {
  std::vector<u16> codes;
  for (u32 space = 0; space < kNoOpSpace; ++space)
    for (u32 lo = 0; lo < 256; ++lo)
      codes.push_back(space == 0 ? u16(lo) : u16(((0xFB + space) << 8) | lo));
  return codes;
}

void expect_same_view(const InstrView& got, const InstrView& want) {
  SCOPED_TRACE(op_name(want.op));
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.imm_i, want.imm_i);
  EXPECT_EQ(std::bit_cast<u32>(got.imm_f32), std::bit_cast<u32>(want.imm_f32));
  EXPECT_EQ(std::bit_cast<u64>(got.imm_f64), std::bit_cast<u64>(want.imm_f64));
  EXPECT_EQ(got.mem_align, want.mem_align);
  EXPECT_EQ(got.mem_offset, want.mem_offset);
  EXPECT_EQ(got.indirect_type_index, want.indirect_type_index);
  EXPECT_EQ(got.block_type, want.block_type);
  EXPECT_EQ(got.br_targets, want.br_targets);
  EXPECT_EQ(got.br_default, want.br_default);
  const ImmKind k = op_imm_kind(want.op);
  if (k == ImmKind::kV128Const || k == ImmKind::kShuffle16) {
    EXPECT_EQ(std::memcmp(got.imm_v128.bytes, want.imm_v128.bytes, 16), 0);
  }
}

TEST(OpTable, EveryKnownCodeHasANameAndEveryNameIsUnique) {
  std::set<std::string> names;
  u32 known = 0;
  for (u16 code : all_codes()) {
    if (!op_is_known(code)) {
      EXPECT_STREQ(op_name(Op(code)), "<unknown>");
      continue;
    }
    ++known;
    ASSERT_NE(op_info(code).name, nullptr);
    EXPECT_TRUE(names.insert(op_name(Op(code))).second) << op_name(Op(code));
  }
  EXPECT_GT(known, 300u);
  // Any high byte other than 0 and the three prefixes maps to no opcode.
  EXPECT_FALSE(op_is_known(0x0100));
  EXPECT_FALSE(op_is_known(0xFB0A));
  EXPECT_FALSE(op_is_known(0xFF00));
}

// Every opcode in the table goes through ModuleBuilder and back through one
// InstrReader view with a distinct immediate, so a field the reader fails
// to write or to reset shows as a mismatch on the next instruction.
TEST(InstrReader, EveryTableOpcodeRoundTripsWithItsImmediates) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {}}, "f");
  std::vector<InstrView> want;
  u32 n = 0;  // varies the immediates from one opcode to the next
  for (u16 code : all_codes()) {
    if (!op_is_known(code) || Op(code) == Op::kEnd) continue;  // end: below
    const Op o = Op(code);
    ++n;
    InstrView w;
    w.op = o;
    switch (op_imm_kind(o)) {
      case ImmKind::kNone:
      case ImmKind::kMemIdx:
      case ImmKind::kMemCopy:
      case ImmKind::kAtomicFence:
        f.op(o);  // the builder writes the reserved zero bytes
        break;
      case ImmKind::kBlockType: {
        w.block_type = u8(n % 2 ? ValType::kF64 : ValType::kV128);
        if (o == Op::kBlock) f.block(w.block_type);
        if (o == Op::kLoop) f.loop(w.block_type);
        if (o == Op::kIf) f.if_(w.block_type);
        want.push_back(w);
        w = InstrView{};
        w.op = Op::kEnd;
        f.end();
        break;
      }
      case ImmKind::kLabel:
        w.imm_i = 128 + n;
        if (o == Op::kBr) f.br(w.idx());
        if (o == Op::kBrIf) f.br_if(w.idx());
        break;
      case ImmKind::kBrTable:
        w.br_targets = {n, 300, 0};
        w.br_default = 70000;
        f.br_table(w.br_targets, w.br_default);
        break;
      case ImmKind::kFuncIdx:
        w.imm_i = (1 << 20) + n;
        f.call(w.idx());
        break;
      case ImmKind::kCallIndirect:
        w.indirect_type_index = 200 + n;
        f.call_indirect(w.indirect_type_index);
        break;
      case ImmKind::kLocalIdx:
        w.imm_i = 1000 + n;
        if (o == Op::kLocalGet) f.local_get(w.idx());
        if (o == Op::kLocalSet) f.local_set(w.idx());
        if (o == Op::kLocalTee) f.local_tee(w.idx());
        break;
      case ImmKind::kGlobalIdx:
        w.imm_i = 60 + n;
        if (o == Op::kGlobalGet) f.global_get(w.idx());
        if (o == Op::kGlobalSet) f.global_set(w.idx());
        break;
      case ImmKind::kMemArg:
        w.mem_align = n % 5;
        w.mem_offset = 0xFFFF0000u + n;
        f.mem_op(o, w.mem_offset, i32(w.mem_align));
        break;
      case ImmKind::kI32Const:
        w.imm_i = INT32_MIN;
        f.i32_const(INT32_MIN);
        break;
      case ImmKind::kI64Const:
        w.imm_i = INT64_MIN + 1;
        f.i64_const(INT64_MIN + 1);
        break;
      case ImmKind::kF32Const:
        w.imm_f32 = -1.25f;
        f.f32_const(w.imm_f32);
        break;
      case ImmKind::kF64Const:
        w.imm_f64 = 6.02e23;
        f.f64_const(w.imm_f64);
        break;
      case ImmKind::kV128Const:
        for (int k = 0; k < 16; ++k) w.imm_v128.bytes[k] = u8(n + k);
        f.v128_const(w.imm_v128);
        break;
      case ImmKind::kLaneIdx:
        w.imm_i = n % 16;
        f.lane_op(o, u8(w.imm_i));
        break;
      case ImmKind::kShuffle16: {
        u8 lanes[16];
        for (int k = 0; k < 16; ++k) lanes[k] = u8(31 - k);
        std::memcpy(w.imm_v128.bytes, lanes, 16);
        f.i8x16_shuffle(lanes);
        break;
      }
      case ImmKind::kMemArgLane:
        ADD_FAILURE() << op_name(o) << ": no opcode should use kMemArgLane";
        break;
    }
    want.push_back(w);
  }
  f.end();
  want.push_back(InstrView{});
  want.back().op = Op::kEnd;

  auto bytes = b.build();
  auto result = decode_module({bytes.data(), bytes.size()});
  ASSERT_TRUE(result.ok()) << result.error;
  InstrReader r(result.module->code(0));
  InstrView got;  // one view for the whole body
  size_t i = 0;
  for (; !r.done() && i < want.size(); ++i) {
    const size_t pc = r.pos();
    r.next(got);
    EXPECT_EQ(got.pc, pc);
    EXPECT_EQ(got.next_pc, r.pos());
    expect_same_view(got, want[i]);
  }
  EXPECT_EQ(i, want.size());
  EXPECT_TRUE(r.done());
}

TEST(InstrReader, RejectsEveryCodeOutsideTheTable) {
  u32 rejected = 0;
  for (u16 code : all_codes()) {
    if (op_is_known(code)) continue;
    const u8 hi = u8(code >> 8);
    const u8 lo = u8(code);
    ByteWriter w;
    if (hi != 0) w.write_u8(hi);
    if (hi != 0) w.write_leb_u32(lo);
    if (hi == 0) w.write_u8(lo);
    const std::vector<u8> bytes = w.take();
    InstrReader r({bytes.data(), bytes.size()});
    InstrView v;
    try {
      r.next(v);
      ADD_FAILURE() << "code 0x" << std::hex << code << " accepted";
    } catch (const DecodeError& e) {
      // A lone prefix byte is read as a prefix whose sub-opcode is missing.
      const bool prefix = hi == 0 && lo >= 0xFC && lo <= 0xFE;
      EXPECT_STREQ(e.what(), prefix ? "unexpected end of input" : "unknown opcode")
          << "code 0x" << std::hex << code;
    }
    ++rejected;
  }
  EXPECT_GT(rejected, 500u);
  // A sub-opcode past one byte is out of every opcode space.
  const std::vector<u8> wide{0xFD, 0x80, 0x02};
  InstrReader r({wide.data(), wide.size()});
  InstrView v;
  try {
    r.next(v);
    ADD_FAILURE() << "sub-opcode 0x100 accepted";
  } catch (const DecodeError& e) {
    EXPECT_STREQ(e.what(), "prefixed opcode out of range");
  }
}

// One view read over instructions that carry an immediate and then over
// ones that lack it: nothing of the earlier instruction shows.
TEST(InstrReader, AReusedViewCarriesNothingOver) {
  ModuleBuilder b;
  b.add_memory(1);
  auto& f = b.begin_func({{ValType::kI32}, {}}, "f");
  f.block(ValType::kI32);  // typed block ...
  f.i32_const(-5);
  f.end();
  f.op(Op::kDrop);
  f.block();  // ... then an empty one
  f.end();
  f.block();
  f.local_get(0);
  f.br_table({0, 0, 0}, 0);  // three targets ...
  f.end();
  f.block();
  f.local_get(0);
  f.br_table({0}, 0);  // ... then one ...
  f.end();
  f.block();
  f.local_get(0);
  f.br_table({}, 0);  // ... then none
  f.end();
  f.i32_const(0);
  f.mem_op(Op::kI32Load, 64);
  f.op(Op::kDrop);
  f.f64_const(2.5);
  f.op(Op::kDrop);
  f.end();
  auto bytes = b.build();
  auto result = decode_module({bytes.data(), bytes.size()});
  ASSERT_TRUE(result.ok()) << result.error;
  InstrReader r(result.module->code(0));
  InstrView v;
  std::vector<u8> block_types;
  std::vector<std::vector<u32>> tables;
  while (!r.done()) {
    r.next(v);
    SCOPED_TRACE(op_name(v.op));
    if (v.op == Op::kBlock) block_types.push_back(v.block_type);
    if (v.op == Op::kBrTable) tables.push_back(v.br_targets);
    if (op_imm_kind(v.op) != ImmKind::kNone) continue;
    // An instruction without immediates reads as all zero.
    EXPECT_EQ(v.imm_i, 0);
    EXPECT_EQ(v.imm_f64, 0.0);
    EXPECT_EQ(v.mem_align, 0u);
    EXPECT_EQ(v.mem_offset, 0u);
    EXPECT_EQ(v.block_type, kBlockTypeEmpty);
    EXPECT_TRUE(v.br_targets.empty());
    EXPECT_EQ(v.br_default, 0u);
  }
  EXPECT_EQ(block_types, (std::vector<u8>{u8(ValType::kI32), kBlockTypeEmpty,
                                          kBlockTypeEmpty, kBlockTypeEmpty,
                                          kBlockTypeEmpty}));
  EXPECT_EQ(tables, (std::vector<std::vector<u32>>{{0, 0, 0}, {0}, {}}));
}

TEST(Wat, PrintsPaperStyleListing) {
  auto bytes = simple_module();
  auto result = decode_module({bytes.data(), bytes.size()});
  ASSERT_TRUE(result.ok());
  std::string wat = to_wat(*result.module);
  EXPECT_NE(wat.find("(import \"env\" \"MPI_Init\" (func (type"), std::string::npos);
  EXPECT_NE(wat.find("(export \"_start\" (func"), std::string::npos);
  EXPECT_NE(wat.find("(memory (;0;) 2 10)"), std::string::npos);
  EXPECT_NE(wat.find("i32.const"), std::string::npos);
}

TEST(Wat, ExpandsLocalRuns) {
  ModuleBuilder b;
  auto& f = b.begin_func({{ValType::kI32}, {}}, "f");
  f.add_local(ValType::kI64);
  f.add_local(ValType::kI64);
  f.add_local(ValType::kF32);
  f.end();
  auto bytes = b.build();
  auto result = decode_module({bytes.data(), bytes.size()});
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_NE(to_wat(*result.module).find("(local i64 i64 f32)"),
            std::string::npos);
}

TEST(Wat, TruncatesLongBodies) {
  ModuleBuilder b;
  auto& f = b.begin_func({{}, {}}, "f");
  for (int i = 0; i < 100; ++i) {
    f.i32_const(i);
    f.op(Op::kDrop);
  }
  f.end();
  auto bytes = b.build();
  auto result = decode_module({bytes.data(), bytes.size()});
  ASSERT_TRUE(result.ok());
  WatOptions opts;
  opts.max_code_lines = 5;
  std::string wat = to_wat(*result.module, opts);
  EXPECT_NE(wat.find(";; ..."), std::string::npos);
}

}  // namespace
}  // namespace mpiwasm::wasm
