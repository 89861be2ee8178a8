#include "runtime/optimizer.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <unordered_map>
#include <vector>

#include "runtime/arith.h"

namespace mpiwasm::rt {
namespace {

/// Rounds of the pass pipeline before it stops short of a fixpoint.
constexpr u32 kMaxRounds = 4;

}  // namespace

void collect_reads(const RInstr& in, std::vector<u32>& out) {
  out.clear();
  // Atomics: loads read the address (b); rmw additionally the operand (c);
  // cmpxchg and wait also read d; stores read address (a) and value (b).
  if (rop_is_atomic(in.op)) {
    switch (in.op) {
      case ROp::kAtomicFence:
        break;
      case ROp::kAtomicNotify:
        out.push_back(in.b); out.push_back(in.c);
        break;
      case ROp::kAtomicWait32: case ROp::kAtomicWait64:
        out.push_back(in.b); out.push_back(in.c); out.push_back(in.d);
        break;
      default:
        if (in.op >= ROp::kI32AtomicLoad && in.op <= ROp::kI64AtomicLoad32U) {
          out.push_back(in.b);
        } else if (in.op >= ROp::kI32AtomicStore &&
                   in.op <= ROp::kI64AtomicStore32) {
          out.push_back(in.a); out.push_back(in.b);
        } else if (in.op >= ROp::kI32AtomicRmwCmpxchg) {
          out.push_back(in.b); out.push_back(in.c); out.push_back(in.d);
        } else {
          out.push_back(in.b); out.push_back(in.c);  // rmw
        }
        break;
    }
    return;
  }
  switch (in.op) {
    case ROp::kNop: case ROp::kConst: case ROp::kConstV128:
    case ROp::kGlobalGet: case ROp::kBr: case ROp::kReturnVoid:
    case ROp::kUnreachable: case ROp::kMemorySize:
      break;
    case ROp::kMov:
      out.push_back(in.b);
      break;
    // Select-shaped ops: a is both a source and the destination.
    case ROp::kSelect: case ROp::kV128Bitselect:
      out.push_back(in.a); out.push_back(in.b); out.push_back(in.c);
      break;
    case ROp::kGlobalSet: case ROp::kBrIf: case ROp::kBrIfNot:
    case ROp::kBrTable: case ROp::kReturn: case ROp::kMemoryGrow:
      out.push_back(in.a);
      break;
    case ROp::kMemoryCopy: case ROp::kMemoryFill:
      out.push_back(in.a); out.push_back(in.b); out.push_back(in.c);
      break;
    case ROp::kCall:
      for (u32 i = 0; i < in.b; ++i) out.push_back(in.a + i);
      break;
    case ROp::kCallIndirect:
      for (u32 i = 0; i < in.b + 1; ++i) out.push_back(in.a + i);
      break;
    case ROp::kBrIfI32Eq: case ROp::kBrIfI32Ne: case ROp::kBrIfI32LtS:
    case ROp::kBrIfI32LtU: case ROp::kBrIfI32GtS: case ROp::kBrIfI32GtU:
    case ROp::kBrIfI32LeS: case ROp::kBrIfI32LeU: case ROp::kBrIfI32GeS:
    case ROp::kBrIfI32GeU:
      out.push_back(in.a); out.push_back(in.b);
      break;
    case ROp::kF64MulAdd: case ROp::kF32MulAdd:
      out.push_back(in.b); out.push_back(in.c); out.push_back(in.d);
      break;
    case ROp::kI32AddImm: case ROp::kI64AddImm: case ROp::kI32ShlImm:
    case ROp::kI32ShrUImm: case ROp::kI32AndImm: case ROp::kI32MulImm:
      out.push_back(in.b);
      break;
    // Loads read the address in b; indexed loads read base (b) and index
    // (c), d is the shift amount.
    case ROp::kI32Load: case ROp::kI64Load: case ROp::kF32Load:
    case ROp::kF64Load: case ROp::kI32Load8S: case ROp::kI32Load8U:
    case ROp::kI32Load16S: case ROp::kI32Load16U: case ROp::kI64Load8S:
    case ROp::kI64Load8U: case ROp::kI64Load16S: case ROp::kI64Load16U:
    case ROp::kI64Load32S: case ROp::kI64Load32U: case ROp::kV128Load:
    case ROp::kV128Load32Splat: case ROp::kV128Load64Splat:
      out.push_back(in.b);
      break;
    case ROp::kI32LoadIx: case ROp::kI64LoadIx: case ROp::kF32LoadIx:
    case ROp::kF64LoadIx: case ROp::kV128LoadIx:
      out.push_back(in.b); out.push_back(in.c);
      break;
    // Stores read address (a) and value (b); indexed stores additionally
    // read the index (c).
    case ROp::kI32Store: case ROp::kI64Store: case ROp::kF32Store:
    case ROp::kF64Store: case ROp::kI32Store8: case ROp::kI32Store16:
    case ROp::kI64Store8: case ROp::kI64Store16: case ROp::kI64Store32:
    case ROp::kV128Store:
      out.push_back(in.a); out.push_back(in.b);
      break;
    case ROp::kI32StoreIx: case ROp::kI64StoreIx: case ROp::kF32StoreIx:
    case ROp::kF64StoreIx: case ROp::kV128StoreIx:
      out.push_back(in.a); out.push_back(in.b); out.push_back(in.c);
      break;
    default:
      // Numeric ops: unops read b; binops read b and c. We conservatively
      // report both; b==c for unops is harmless.
      out.push_back(in.b);
      out.push_back(in.c);
      break;
  }
}

bool writes_dest(const RInstr& in) {
  // Atomic stores and the fence produce no register result; every other
  // atomic (loads, rmw, cmpxchg, wait, notify) writes the old/outcome
  // value to a.
  if (in.op == ROp::kAtomicFence ||
      (in.op >= ROp::kI32AtomicStore && in.op <= ROp::kI64AtomicStore32))
    return false;
  switch (in.op) {
    case ROp::kNop: case ROp::kGlobalSet: case ROp::kBr: case ROp::kBrIf:
    case ROp::kBrIfNot: case ROp::kBrTable: case ROp::kReturn:
    case ROp::kReturnVoid: case ROp::kUnreachable: case ROp::kMemoryCopy:
    case ROp::kMemoryFill:
    case ROp::kI32Store: case ROp::kI64Store: case ROp::kF32Store:
    case ROp::kF64Store: case ROp::kI32Store8: case ROp::kI32Store16:
    case ROp::kI64Store8: case ROp::kI64Store16: case ROp::kI64Store32:
    case ROp::kV128Store:
    case ROp::kI32StoreIx: case ROp::kI64StoreIx: case ROp::kF32StoreIx:
    case ROp::kF64StoreIx: case ROp::kV128StoreIx:
    case ROp::kBrIfI32Eq: case ROp::kBrIfI32Ne: case ROp::kBrIfI32LtS:
    case ROp::kBrIfI32LtU: case ROp::kBrIfI32GtS: case ROp::kBrIfI32GtU:
    case ROp::kBrIfI32LeS: case ROp::kBrIfI32LeU: case ROp::kBrIfI32GeS:
    case ROp::kBrIfI32GeU:
      return false;
    default:
      return true;
  }
}

namespace {

/// Ops whose d field names a register (not a shift amount / flag word).
bool reads_d_reg(ROp op) {
  return op == ROp::kF64MulAdd || op == ROp::kF32MulAdd ||
         op == ROp::kAtomicWait32 || op == ROp::kAtomicWait64 ||
         (op >= ROp::kI32AtomicRmwCmpxchg &&
          op <= ROp::kI64AtomicRmw32CmpxchgU);
}

/// Instructions that may be removed when their destination is dead: no
/// traps, no control flow, no stores/calls/global writes.
bool is_pure(ROp op) {
  switch (op) {
    case ROp::kMov: case ROp::kConst: case ROp::kConstV128: case ROp::kSelect:
    case ROp::kGlobalGet:
    case ROp::kI32Eqz: case ROp::kI32Eq: case ROp::kI32Ne: case ROp::kI32LtS:
    case ROp::kI32LtU: case ROp::kI32GtS: case ROp::kI32GtU: case ROp::kI32LeS:
    case ROp::kI32LeU: case ROp::kI32GeS: case ROp::kI32GeU:
    case ROp::kI64Eqz: case ROp::kI64Eq: case ROp::kI64Ne: case ROp::kI64LtS:
    case ROp::kI64LtU: case ROp::kI64GtS: case ROp::kI64GtU: case ROp::kI64LeS:
    case ROp::kI64LeU: case ROp::kI64GeS: case ROp::kI64GeU:
    case ROp::kF32Eq: case ROp::kF32Ne: case ROp::kF32Lt: case ROp::kF32Gt:
    case ROp::kF32Le: case ROp::kF32Ge:
    case ROp::kF64Eq: case ROp::kF64Ne: case ROp::kF64Lt: case ROp::kF64Gt:
    case ROp::kF64Le: case ROp::kF64Ge:
    case ROp::kI32Clz: case ROp::kI32Ctz: case ROp::kI32Popcnt:
    case ROp::kI32Add: case ROp::kI32Sub: case ROp::kI32Mul:
    case ROp::kI32And: case ROp::kI32Or: case ROp::kI32Xor: case ROp::kI32Shl:
    case ROp::kI32ShrS: case ROp::kI32ShrU: case ROp::kI32Rotl: case ROp::kI32Rotr:
    case ROp::kI64Clz: case ROp::kI64Ctz: case ROp::kI64Popcnt:
    case ROp::kI64Add: case ROp::kI64Sub: case ROp::kI64Mul:
    case ROp::kI64And: case ROp::kI64Or: case ROp::kI64Xor: case ROp::kI64Shl:
    case ROp::kI64ShrS: case ROp::kI64ShrU: case ROp::kI64Rotl: case ROp::kI64Rotr:
    case ROp::kF32Abs: case ROp::kF32Neg: case ROp::kF32Ceil: case ROp::kF32Floor:
    case ROp::kF32Trunc: case ROp::kF32Nearest: case ROp::kF32Sqrt:
    case ROp::kF32Add: case ROp::kF32Sub: case ROp::kF32Mul: case ROp::kF32Div:
    case ROp::kF32Min: case ROp::kF32Max: case ROp::kF32Copysign:
    case ROp::kF64Abs: case ROp::kF64Neg: case ROp::kF64Ceil: case ROp::kF64Floor:
    case ROp::kF64Trunc: case ROp::kF64Nearest: case ROp::kF64Sqrt:
    case ROp::kF64Add: case ROp::kF64Sub: case ROp::kF64Mul: case ROp::kF64Div:
    case ROp::kF64Min: case ROp::kF64Max: case ROp::kF64Copysign:
    case ROp::kI32WrapI64: case ROp::kI64ExtendI32S: case ROp::kI64ExtendI32U:
    case ROp::kF32ConvertI32S: case ROp::kF32ConvertI32U:
    case ROp::kF32ConvertI64S: case ROp::kF32ConvertI64U: case ROp::kF32DemoteF64:
    case ROp::kF64ConvertI32S: case ROp::kF64ConvertI32U:
    case ROp::kF64ConvertI64S: case ROp::kF64ConvertI64U: case ROp::kF64PromoteF32:
    case ROp::kI32ReinterpretF32: case ROp::kI64ReinterpretF64:
    case ROp::kF32ReinterpretI32: case ROp::kF64ReinterpretI64:
    case ROp::kI32Extend8S: case ROp::kI32Extend16S: case ROp::kI64Extend8S:
    case ROp::kI64Extend16S: case ROp::kI64Extend32S:
    case ROp::kI8x16Splat: case ROp::kI16x8Splat: case ROp::kI32x4Splat:
    case ROp::kI64x2Splat: case ROp::kF32x4Splat: case ROp::kF64x2Splat:
    case ROp::kI8x16ExtractLaneS: case ROp::kI8x16ExtractLaneU:
    case ROp::kI16x8ExtractLaneS: case ROp::kI16x8ExtractLaneU:
    case ROp::kI32x4ExtractLane: case ROp::kI64x2ExtractLane:
    case ROp::kF32x4ExtractLane: case ROp::kF64x2ExtractLane:
    case ROp::kI8x16ReplaceLane: case ROp::kI16x8ReplaceLane:
    case ROp::kI32x4ReplaceLane: case ROp::kI64x2ReplaceLane:
    case ROp::kF32x4ReplaceLane: case ROp::kF64x2ReplaceLane:
    case ROp::kI8x16Shuffle: case ROp::kI8x16Swizzle:
    case ROp::kI8x16Eq: case ROp::kI8x16Ne: case ROp::kI8x16LtS:
    case ROp::kI8x16LtU: case ROp::kI8x16GtS: case ROp::kI8x16GtU:
    case ROp::kI8x16LeS: case ROp::kI8x16LeU: case ROp::kI8x16GeS:
    case ROp::kI8x16GeU:
    case ROp::kI16x8Eq: case ROp::kI16x8Ne: case ROp::kI16x8LtS:
    case ROp::kI16x8LtU: case ROp::kI16x8GtS: case ROp::kI16x8GtU:
    case ROp::kI16x8LeS: case ROp::kI16x8LeU: case ROp::kI16x8GeS:
    case ROp::kI16x8GeU:
    case ROp::kI32x4Eq: case ROp::kI32x4Ne: case ROp::kI32x4LtS:
    case ROp::kI32x4LtU: case ROp::kI32x4GtS: case ROp::kI32x4GtU:
    case ROp::kI32x4LeS: case ROp::kI32x4LeU: case ROp::kI32x4GeS:
    case ROp::kI32x4GeU:
    case ROp::kF32x4Eq: case ROp::kF32x4Ne: case ROp::kF32x4Lt:
    case ROp::kF32x4Gt: case ROp::kF32x4Le: case ROp::kF32x4Ge:
    case ROp::kF64x2Eq: case ROp::kF64x2Ne: case ROp::kF64x2Lt:
    case ROp::kF64x2Gt: case ROp::kF64x2Le: case ROp::kF64x2Ge:
    case ROp::kV128Not: case ROp::kV128And: case ROp::kV128AndNot:
    case ROp::kV128Or: case ROp::kV128Xor: case ROp::kV128AnyTrue:
    case ROp::kV128Bitselect:
    case ROp::kI8x16Abs: case ROp::kI8x16Neg: case ROp::kI8x16AllTrue:
    case ROp::kI8x16Add: case ROp::kI8x16Sub:
    case ROp::kI16x8Abs: case ROp::kI16x8Neg: case ROp::kI16x8AllTrue:
    case ROp::kI16x8Add: case ROp::kI16x8Sub: case ROp::kI16x8Mul:
    case ROp::kI32x4Abs: case ROp::kI32x4Neg: case ROp::kI32x4AllTrue:
    case ROp::kI32x4Shl: case ROp::kI32x4ShrS: case ROp::kI32x4ShrU:
    case ROp::kI32x4Add: case ROp::kI32x4Sub: case ROp::kI32x4Mul:
    case ROp::kI32x4MinS: case ROp::kI32x4MinU: case ROp::kI32x4MaxS:
    case ROp::kI32x4MaxU:
    case ROp::kI64x2Abs: case ROp::kI64x2Neg: case ROp::kI64x2AllTrue:
    case ROp::kI64x2Shl: case ROp::kI64x2ShrS: case ROp::kI64x2ShrU:
    case ROp::kI64x2Add: case ROp::kI64x2Sub: case ROp::kI64x2Mul:
    case ROp::kF32x4Abs: case ROp::kF32x4Neg: case ROp::kF32x4Sqrt:
    case ROp::kF32x4Add: case ROp::kF32x4Sub: case ROp::kF32x4Mul:
    case ROp::kF32x4Div:
    case ROp::kF32x4Min: case ROp::kF32x4Max: case ROp::kF32x4Pmin:
    case ROp::kF32x4Pmax:
    case ROp::kF64x2Abs: case ROp::kF64x2Neg: case ROp::kF64x2Sqrt:
    case ROp::kF64x2Add: case ROp::kF64x2Sub: case ROp::kF64x2Mul:
    case ROp::kF64x2Div:
    case ROp::kF64x2Min: case ROp::kF64x2Max: case ROp::kF64x2Pmin:
    case ROp::kF64x2Pmax:
    case ROp::kI32AddImm: case ROp::kI64AddImm: case ROp::kI32ShlImm:
    case ROp::kI32ShrUImm: case ROp::kI32AndImm: case ROp::kI32MulImm:
    case ROp::kF64MulAdd: case ROp::kF32MulAdd:
      return true;
    default:
      return false;  // div/rem/trunc trap; loads trap; calls/stores effect
  }
}

std::vector<u32> branch_targets(const RFunc& f, const RInstr& in) {
  std::vector<u32> out;
  if (in.op == ROp::kBrTable) {
    for (u32 t : f.br_pool[in.imm]) out.push_back(t);
  } else if (rop_is_jump(in.op)) {
    out.push_back(u32(in.imm));
  }
  return out;
}

}  // namespace

Cfg build_cfg(const RFunc& f) {
  const size_t n = f.code.size();
  std::vector<bool> leader(n + 1, false);
  leader[0] = true;
  for (size_t i = 0; i < n; ++i) {
    const RInstr& in = f.code[i];
    if (rop_is_jump(in.op) || rop_is_terminator(in.op)) {
      for (u32 t : branch_targets(f, in)) {
        MW_CHECK(t <= n, "branch target out of range");
        if (t < n) leader[t] = true;
      }
      if (i + 1 < n) leader[i + 1] = true;
    }
  }
  Cfg cfg;
  cfg.block_of.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (leader[i]) cfg.leaders.push_back(i);
    cfg.block_of[i] = cfg.leaders.size() - 1;
  }
  cfg.successors.resize(cfg.leaders.size());
  for (size_t b = 0; b < cfg.leaders.size(); ++b) {
    size_t last = cfg.block_end(b, n) - 1;
    const RInstr& in = f.code[last];
    if (rop_is_terminator(in.op)) {
      for (u32 t : branch_targets(f, in))
        if (t < n) cfg.successors[b].push_back(u32(cfg.block_of[t]));
    } else {
      if (rop_is_jump(in.op))
        for (u32 t : branch_targets(f, in))
          if (t < n) cfg.successors[b].push_back(u32(cfg.block_of[t]));
      if (last + 1 < n) cfg.successors[b].push_back(u32(cfg.block_of[last + 1]));
    }
  }
  return cfg;
}

namespace {

// ---- Pass 1+2: block-local copy propagation & constant folding -----------

/// Interns `v` in the function's v128 pool, reusing an existing entry so
/// repeated folds cannot grow the pool without bound.
u32 intern_v128(RFunc& f, const wasm::V128& v) {
  for (u32 i = 0; i < f.v128_pool.size(); ++i)
    if (f.v128_pool[i] == v) return i;
  f.v128_pool.push_back(v);
  return u32(f.v128_pool.size() - 1);
}

/// Splat of a known scalar constant -> v128 constant. Float splats copy the
/// raw bit pattern, exactly like the runtime handler, so folding is
/// bit-identical even for NaN payloads.
std::optional<wasm::V128> fold_splat(ROp op, u64 bits) {
  using wasm::V128;
  switch (op) {
    case ROp::kI8x16Splat: return V128::splat<u8>(u8(bits));
    case ROp::kI16x8Splat: return V128::splat<u16>(u16(bits));
    case ROp::kI32x4Splat: case ROp::kF32x4Splat:
      return V128::splat<u32>(u32(bits));
    case ROp::kI64x2Splat: case ROp::kF64x2Splat:
      return V128::splat<u64>(bits);
    default: return std::nullopt;
  }
}

/// v128 binop over two known-constant vectors. Restricted to bitwise ops
/// and wrapping integer lane arithmetic: those are environment-independent,
/// so compile-time evaluation can never disagree with the executor.
std::optional<wasm::V128> fold_v128_binop(ROp op, const wasm::V128& x,
                                          const wasm::V128& y) {
  using namespace arith;
  switch (op) {
    case ROp::kV128And: return v128_bitop_and(x, y);
    case ROp::kV128AndNot: return v128_bitop_andnot(x, y);
    case ROp::kV128Or: return v128_bitop_or(x, y);
    case ROp::kV128Xor: return v128_bitop_xor(x, y);
    case ROp::kI8x16Add:
      return v128_binop<u8, 16>(x, y, [](u8 a, u8 b) { return u8(a + b); });
    case ROp::kI8x16Sub:
      return v128_binop<u8, 16>(x, y, [](u8 a, u8 b) { return u8(a - b); });
    case ROp::kI16x8Add:
      return v128_binop<u16, 8>(x, y, [](u16 a, u16 b) { return u16(a + b); });
    case ROp::kI16x8Sub:
      return v128_binop<u16, 8>(x, y, [](u16 a, u16 b) { return u16(a - b); });
    case ROp::kI16x8Mul:
      return v128_binop<u16, 8>(x, y, [](u16 a, u16 b) { return u16(a * b); });
    case ROp::kI32x4Add:
      return v128_binop<u32, 4>(x, y, [](u32 a, u32 b) { return a + b; });
    case ROp::kI32x4Sub:
      return v128_binop<u32, 4>(x, y, [](u32 a, u32 b) { return a - b; });
    case ROp::kI32x4Mul:
      return v128_binop<u32, 4>(x, y, [](u32 a, u32 b) { return a * b; });
    case ROp::kI64x2Add:
      return v128_binop<u64, 2>(x, y, [](u64 a, u64 b) { return a + b; });
    case ROp::kI64x2Sub:
      return v128_binop<u64, 2>(x, y, [](u64 a, u64 b) { return a - b; });
    case ROp::kI64x2Mul:
      return v128_binop<u64, 2>(x, y, [](u64 a, u64 b) { return a * b; });
    default: return std::nullopt;
  }
}

std::optional<u64> fold_binop(ROp op, u64 x, u64 y) {
  using namespace arith;
  auto xi32 = i32(u32(x)); auto yi32 = i32(u32(y));
  auto xu32 = u32(x); auto yu32 = u32(y);
  switch (op) {
    // Wrapping arithmetic in unsigned types: signed overflow would be UB.
    case ROp::kI32Add: return u64(u32(xu32 + yu32));
    case ROp::kI32Sub: return u64(u32(xu32 - yu32));
    case ROp::kI32Mul: return u64(u32(xu32 * yu32));
    case ROp::kI32And: return u64(xu32 & yu32);
    case ROp::kI32Or: return u64(xu32 | yu32);
    case ROp::kI32Xor: return u64(xu32 ^ yu32);
    case ROp::kI32Shl: return u64(i32_shl(xu32, yu32));
    case ROp::kI32ShrS: return u64(u32(i32_shr_s(xi32, yu32)));
    case ROp::kI32ShrU: return u64(i32_shr_u(xu32, yu32));
    case ROp::kI32Eq: return u64(xi32 == yi32);
    case ROp::kI32Ne: return u64(xi32 != yi32);
    case ROp::kI32LtS: return u64(xi32 < yi32);
    case ROp::kI32LtU: return u64(xu32 < yu32);
    case ROp::kI32GtS: return u64(xi32 > yi32);
    case ROp::kI32GtU: return u64(xu32 > yu32);
    case ROp::kI32LeS: return u64(xi32 <= yi32);
    case ROp::kI32LeU: return u64(xu32 <= yu32);
    case ROp::kI32GeS: return u64(xi32 >= yi32);
    case ROp::kI32GeU: return u64(xu32 >= yu32);
    case ROp::kI64Add: return x + y;
    case ROp::kI64Sub: return x - y;
    case ROp::kI64Mul: return x * y;
    case ROp::kI64And: return x & y;
    case ROp::kI64Or: return x | y;
    case ROp::kI64Xor: return x ^ y;
    case ROp::kI64Shl: return i64_shl(x, y);
    default: return std::nullopt;
  }
}

/// Folds an *Imm op whose register operand is itself a known constant
/// (arises when lowering already emitted the fused form).
std::optional<u64> fold_immop(ROp op, u64 x, u64 imm) {
  using namespace arith;
  switch (op) {
    case ROp::kI32AddImm: return u64(u32(u32(x) + u32(imm)));
    case ROp::kI64AddImm: return x + imm;
    case ROp::kI32ShlImm: return u64(i32_shl(u32(x), u32(imm)));
    case ROp::kI32ShrUImm: return u64(i32_shr_u(u32(x), u32(imm)));
    case ROp::kI32AndImm: return u64(u32(x) & u32(imm));
    case ROp::kI32MulImm: return u64(u32(u32(x) * u32(imm)));
    default: return std::nullopt;
  }
}

struct ImmFusion {
  ROp fused;
  bool commutative;
};

std::optional<ImmFusion> imm_fusable(ROp op) {
  switch (op) {
    case ROp::kI32Add: return ImmFusion{ROp::kI32AddImm, true};
    case ROp::kI64Add: return ImmFusion{ROp::kI64AddImm, true};
    case ROp::kI32Shl: return ImmFusion{ROp::kI32ShlImm, false};
    case ROp::kI32ShrU: return ImmFusion{ROp::kI32ShrUImm, false};
    case ROp::kI32And: return ImmFusion{ROp::kI32AndImm, true};
    case ROp::kI32Mul: return ImmFusion{ROp::kI32MulImm, true};
    default: return std::nullopt;
  }
}

u32 local_forward_pass(RFunc& f, const Cfg& cfg) {
  u32 changes = 0;
  std::vector<u32> reads;
  const size_t n = f.code.size();
  for (size_t b = 0; b < cfg.leaders.size(); ++b) {
    std::unordered_map<u32, u32> copy_of;   // reg -> original reg
    std::unordered_map<u32, u64> const_of;  // reg -> constant bits
    std::unordered_map<u32, u32> v128_of;   // reg -> v128_pool index
    auto resolve = [&](u32 r) {
      auto it = copy_of.find(r);
      return it == copy_of.end() ? r : it->second;
    };
    auto kill = [&](u32 r) {
      copy_of.erase(r);
      const_of.erase(r);
      v128_of.erase(r);
      for (auto it = copy_of.begin(); it != copy_of.end();) {
        if (it->second == r) it = copy_of.erase(it);
        else ++it;
      }
    };
    for (size_t i = cfg.block_start(b); i < cfg.block_end(b, n); ++i) {
      RInstr& in = f.code[i];
      // Copy propagation on register operands.
      switch (in.op) {
        case ROp::kMov: {
          u32 src = resolve(in.b);
          if (src != in.b) { in.b = src; ++changes; }
          break;
        }
        case ROp::kCall: case ROp::kCallIndirect:
          break;  // contiguous arg window: cannot rewrite operands
        case ROp::kSelect: case ROp::kV128Bitselect:
          // a is both source and dest; only b/c are rewritable.
          if (resolve(in.b) != in.b) { in.b = resolve(in.b); ++changes; }
          if (resolve(in.c) != in.c) { in.c = resolve(in.c); ++changes; }
          break;
        default: {
          collect_reads(in, reads);
          bool dest_written = writes_dest(in);
          for (u32 r : reads) {
            u32 rr = resolve(r);
            if (rr == r) continue;
            // Rewrite matching operand fields (careful: dest alias in.a).
            if (!dest_written && in.a == r) { in.a = rr; ++changes; }
            if (reads_d_reg(in.op)) {
              if (in.b == r) { in.b = rr; ++changes; }
              if (in.c == r) { in.c = rr; ++changes; }
              if (in.d == r) { in.d = rr; ++changes; }
            } else {
              if (in.b == r) { in.b = rr; ++changes; }
              if (writes_dest(in) && in.c == r &&
                  in.op != ROp::kMov) { in.c = rr; ++changes; }
              if (!writes_dest(in) && in.c == r) { in.c = rr; ++changes; }
            }
          }
          break;
        }
      }
      // Constant folding.
      if (writes_dest(in)) {
        bool b_const = const_of.count(in.b) != 0;
        bool c_const = const_of.count(in.c) != 0;
        if (in.op != ROp::kMov && in.op != ROp::kConst &&
            in.op != ROp::kConstV128 && in.op != ROp::kSelect &&
            in.op != ROp::kCall && in.op != ROp::kCallIndirect) {
          if (b_const && c_const) {
            if (auto v = fold_binop(in.op, const_of[in.b], const_of[in.c])) {
              in = RInstr{ROp::kConst, in.a, 0, 0, 0, *v};
              ++changes;
            }
          } else if (c_const) {
            if (auto fu = imm_fusable(in.op)) {
              in = RInstr{fu->fused, in.a, in.b, 0, 0, const_of[in.c]};
              ++changes;
            }
          } else if (b_const) {
            if (auto fu = imm_fusable(in.op); fu && fu->commutative) {
              in = RInstr{fu->fused, in.a, in.c, 0, 0, const_of[in.b]};
              ++changes;
            }
          }
        }
        if (in.op == ROp::kMov && const_of.count(in.b)) {
          in = RInstr{ROp::kConst, in.a, 0, 0, 0, const_of[in.b]};
          ++changes;
        }
        if (const_of.count(in.b)) {
          if (auto v = fold_immop(in.op, const_of[in.b], in.imm)) {
            in = RInstr{ROp::kConst, in.a, 0, 0, 0, *v};
            ++changes;
          }
        }
        // SIMD folding: splat-of-constant and integer/bitwise v128 binops
        // with two known-constant vectors collapse into pooled constants.
        if (const_of.count(in.b)) {
          if (auto v = fold_splat(in.op, const_of[in.b])) {
            in = RInstr{ROp::kConstV128, in.a, 0, 0, 0, intern_v128(f, *v)};
            ++changes;
          }
        }
        if (v128_of.count(in.b) && v128_of.count(in.c)) {
          if (auto v = fold_v128_binop(in.op, f.v128_pool[v128_of[in.b]],
                                       f.v128_pool[v128_of[in.c]])) {
            in = RInstr{ROp::kConstV128, in.a, 0, 0, 0, intern_v128(f, *v)};
            ++changes;
          }
        }
        // Strength reduction: mul by a power of two becomes a shift (also
        // the shape the indexed-address fusion matches on).
        if (in.op == ROp::kI32MulImm) {
          u32 m = u32(in.imm);
          if (m != 0 && (m & (m - 1)) == 0) {
            in.op = ROp::kI32ShlImm;
            in.imm = u64(std::countr_zero(m));
            ++changes;
          }
        }
      }
      // Update maps.
      if (writes_dest(in)) {
        kill(in.a);
        if (in.op == ROp::kConst) const_of[in.a] = in.imm;
        else if (in.op == ROp::kConstV128) v128_of[in.a] = u32(in.imm);
        else if (in.op == ROp::kMov && in.a != in.b) copy_of[in.a] = resolve(in.b);
      }
      if (in.op == ROp::kMemoryGrow) kill(in.a);
    }
  }
  return changes;
}

// ---- Pass 3: peephole fusion ----------------------------------------------

std::optional<ROp> fused_brif(ROp cmp, bool negate) {
  switch (cmp) {
    case ROp::kI32Eq: return negate ? ROp::kBrIfI32Ne : ROp::kBrIfI32Eq;
    case ROp::kI32Ne: return negate ? ROp::kBrIfI32Eq : ROp::kBrIfI32Ne;
    case ROp::kI32LtS: return negate ? ROp::kBrIfI32GeS : ROp::kBrIfI32LtS;
    case ROp::kI32LtU: return negate ? ROp::kBrIfI32GeU : ROp::kBrIfI32LtU;
    case ROp::kI32GtS: return negate ? ROp::kBrIfI32LeS : ROp::kBrIfI32GtS;
    case ROp::kI32GtU: return negate ? ROp::kBrIfI32LeU : ROp::kBrIfI32GtU;
    case ROp::kI32LeS: return negate ? ROp::kBrIfI32GtS : ROp::kBrIfI32LeS;
    case ROp::kI32LeU: return negate ? ROp::kBrIfI32GtU : ROp::kBrIfI32LeU;
    case ROp::kI32GeS: return negate ? ROp::kBrIfI32LtS : ROp::kBrIfI32GeS;
    case ROp::kI32GeU: return negate ? ROp::kBrIfI32LtU : ROp::kBrIfI32GeU;
    default: return std::nullopt;
  }
}

}  // namespace

// ---- Liveness ---------------------------------------------------------------

Liveness compute_liveness(const RFunc& f, const Cfg& cfg, ReadsFn reads_of) {
  const size_t n = f.code.size();
  const size_t nb = cfg.leaders.size();
  const u32 w = (f.num_regs + 63) / 64;
  std::vector<u32> reads;
  auto bit = [](u32 r) { return u64(1) << (r % 64); };

  // Each block's transfer function in = use | (out & ~def), composed
  // backward from its instructions' (def, use) once; the fixpoint below
  // then runs on whole-block bitsets.
  std::vector<u64> use(nb * w, 0), def(nb * w, 0);
  for (size_t b = 0; b < nb; ++b) {
    u64* ub = &use[b * w];
    u64* db = &def[b * w];
    for (size_t i = cfg.block_end(b, n); i-- > cfg.block_start(b);) {
      const RInstr& instr = f.code[i];
      if (writes_dest(instr)) {
        db[instr.a / 64] |= bit(instr.a);
        ub[instr.a / 64] &= ~bit(instr.a);
      }
      reads_of(instr, reads);
      for (u32 r : reads) ub[r / 64] |= bit(r);
    }
  }
  std::vector<u64> live_in(nb * w, 0), block_out(nb * w, 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t b = nb; b-- > 0;) {
      u64* out = &block_out[b * w];
      std::fill(out, out + w, 0);
      for (u32 s : cfg.successors[b])
        for (u32 k = 0; k < w; ++k) out[k] |= live_in[s * w + k];
      for (u32 k = 0; k < w; ++k) {
        const u64 in = use[b * w + k] | (out[k] & ~def[b * w + k]);
        if (in != live_in[b * w + k]) {
          live_in[b * w + k] = in;
          changed = true;
        }
      }
    }
  }

  Liveness lv;
  lv.words = w;
  lv.out.assign(n * w, 0);
  std::vector<u64> live(w);
  for (size_t b = 0; b < nb; ++b) {
    std::copy(&block_out[b * w], &block_out[b * w] + w, live.begin());
    for (size_t i = cfg.block_end(b, n); i-- > cfg.block_start(b);) {
      const RInstr& instr = f.code[i];
      std::copy(live.begin(), live.end(), &lv.out[i * w]);
      if (writes_dest(instr)) live[instr.a / 64] &= ~bit(instr.a);
      reads_of(instr, reads);
      for (u32 r : reads) live[r / 64] |= bit(r);
    }
  }
  return lv;
}

namespace {

// ---- Pass 3: peephole fusion ----------------------------------------------

/// Ops whose a field is a pure destination that can be renamed: excludes
/// ops that read r[a] (select family, memory.grow) and the calls, whose a
/// anchors the contiguous argument window.
bool dest_retargetable(ROp op) {
  // Atomics are optimization barriers: leave them untouched by every
  // rewrite, including destination renaming.
  if (rop_is_atomic(op)) return false;
  if (!writes_dest(RInstr{op})) return false;
  switch (op) {
    case ROp::kSelect: case ROp::kV128Bitselect: case ROp::kMemoryGrow:
    case ROp::kCall: case ROp::kCallIndirect:
      return false;
    default:
      return true;
  }
}

u32 peephole_pass(RFunc& f, const Cfg& cfg, const Liveness& lv) {
  u32 changes = 0;
  const size_t n = f.code.size();
  for (size_t b = 0; b < cfg.leaders.size(); ++b) {
    for (size_t i = cfg.block_start(b); i + 1 < cfg.block_end(b, n); ++i) {
      RInstr& a = f.code[i];
      RInstr& next = f.code[i + 1];
      // op t <- ... ; mov d, t  -->  op d <- ...   (t dead after the mov;
      // both in one block, so nothing can branch between them)
      if (next.op == ROp::kMov && next.b == a.a && next.a != a.a &&
          dest_retargetable(a.op) && !lv.live_after(i + 1, a.a)) {
        a.a = next.a;
        next = RInstr{ROp::kNop};
        ++changes;
        continue;
      }
      // cmp t <- x, y ; br_if t  -->  br_if_cmp x, y   (t dead after br_if)
      if ((next.op == ROp::kBrIf || next.op == ROp::kBrIfNot) &&
          next.a == a.a && writes_dest(a) && !lv.live_after(i + 1, a.a)) {
        if (auto fop = fused_brif(a.op, next.op == ROp::kBrIfNot)) {
          next = RInstr{*fop, a.b, a.c, 0, 0, next.imm};
          a = RInstr{ROp::kNop};
          ++changes;
          continue;
        }
        // eqz t <- x ; br_if t  -->  br_if_not x  (and the inverse)
        if (a.op == ROp::kI32Eqz) {
          next.op = next.op == ROp::kBrIf ? ROp::kBrIfNot : ROp::kBrIf;
          next.a = a.b;
          a = RInstr{ROp::kNop};
          ++changes;
          continue;
        }
      }
      // f64.mul t <- x, y ; f64.add d <- t, z  -->  fma d <- x, y, z
      // (and the f32 twin). Legal when the mul's value dies at the add:
      // either the add overwrites t, or t is not live past the add.
      bool is_f64_ma = a.op == ROp::kF64Mul && next.op == ROp::kF64Add;
      bool is_f32_ma = a.op == ROp::kF32Mul && next.op == ROp::kF32Add;
      if ((is_f64_ma || is_f32_ma) &&
          (next.a == a.a || !lv.live_after(i + 1, a.a))) {
        ROp fma = is_f64_ma ? ROp::kF64MulAdd : ROp::kF32MulAdd;
        u32 t = a.a;
        if (next.b == t && next.c != t) {
          next = RInstr{fma, next.a, a.b, a.c, next.c, 0};
          a = RInstr{ROp::kNop};
          ++changes;
        } else if (next.c == t && next.b != t) {
          next = RInstr{fma, next.a, a.b, a.c, next.b, 0};
          a = RInstr{ROp::kNop};
          ++changes;
        }
      }
    }
  }
  return changes;
}

// ---- Pass 4: indexed-address fusion ---------------------------------------
//
// Folds the address arithmetic of a scalar or v128 load/store into the
// access: base + (index << scale) + imm, which native code emits as one x86
// addressing mode. Every rewrite deletes the producing instruction(s)
// entirely, so the access reads its register operands with exactly the
// values the deleted producers saw; the liveness preconditions guarantee
// nothing else observed the deleted temporaries.

std::optional<ROp> indexed_load(ROp op) {
  switch (op) {
    case ROp::kI32Load: return ROp::kI32LoadIx;
    case ROp::kI64Load: return ROp::kI64LoadIx;
    case ROp::kF32Load: return ROp::kF32LoadIx;
    case ROp::kF64Load: return ROp::kF64LoadIx;
    case ROp::kV128Load: return ROp::kV128LoadIx;
    default: return std::nullopt;
  }
}

std::optional<ROp> indexed_store(ROp op) {
  switch (op) {
    case ROp::kI32Store: return ROp::kI32StoreIx;
    case ROp::kI64Store: return ROp::kI64StoreIx;
    case ROp::kF32Store: return ROp::kF32StoreIx;
    case ROp::kF64Store: return ROp::kF64StoreIx;
    case ROp::kV128Store: return ROp::kV128StoreIx;
    default: return std::nullopt;
  }
}

u32 indexed_address_pass(RFunc& f, const Cfg& cfg, const Liveness& lv) {
  u32 changes = 0;
  const size_t n = f.code.size();
  for (size_t b = 0; b < cfg.leaders.size(); ++b) {
    const size_t bend = cfg.block_end(b, n);
    // --- 3-instruction window: indexed addressing with a scale ---
    // shl t1 <- idx, s ; add t2 <- base, t1 ; mem[t2 + imm] ...
    for (size_t i = cfg.block_start(b); i + 2 < bend; ++i) {
      RInstr& sh = f.code[i];
      RInstr& ad = f.code[i + 1];
      RInstr& m = f.code[i + 2];
      if (sh.op != ROp::kI32ShlImm || sh.imm > 4) continue;
      if (ad.op != ROp::kI32Add) continue;
      u32 t1 = sh.a;
      u32 base, idx = sh.b, shift = u32(sh.imm);
      if (ad.b == t1 && ad.c != t1) base = ad.c;
      else if (ad.c == t1 && ad.b != t1) base = ad.b;
      else continue;
      if (lv.live_after(i + 1, t1)) continue;
      u32 t2 = ad.a;
      // The load's destination may legally overwrite the address temp.
      if (auto lop = indexed_load(m.op);
          lop && m.b == t2 && (m.a == t2 || !lv.live_after(i + 2, t2))) {
        m = RInstr{*lop, m.a, base, idx, shift, m.imm};
        sh = RInstr{ROp::kNop};
        ad = RInstr{ROp::kNop};
        ++changes;
        continue;
      }
      if (auto sop = indexed_store(m.op);
          sop && m.a == t2 && m.b != t1 && m.b != t2 &&
          !lv.live_after(i + 2, t2)) {
        m = RInstr{*sop, base, m.b, idx, shift, m.imm};
        sh = RInstr{ROp::kNop};
        ad = RInstr{ROp::kNop};
        ++changes;
        continue;
      }
    }
    // --- 2-instruction window: add t2 <- x, y ; mem[t2 + imm]  -->
    // indexed access with shift 0 ---
    for (size_t i = cfg.block_start(b); i + 1 < bend; ++i) {
      RInstr& a = f.code[i];
      RInstr& next = f.code[i + 1];
      if (a.op != ROp::kI32Add) continue;
      u32 t2 = a.a;
      if (auto lop = indexed_load(next.op);
          lop && next.b == t2 &&
          (next.a == t2 || !lv.live_after(i + 1, t2))) {
        next = RInstr{*lop, next.a, a.b, a.c, 0, next.imm};
        a = RInstr{ROp::kNop};
        ++changes;
        continue;
      }
      if (auto sop = indexed_store(next.op);
          sop && next.a == t2 && next.b != t2 &&
          !lv.live_after(i + 1, t2)) {
        next = RInstr{*sop, a.b, next.b, a.c, 0, next.imm};
        a = RInstr{ROp::kNop};
        ++changes;
      }
    }
  }
  return changes;
}

// ---- Pass 5: DCE ------------------------------------------------------------

u32 dce_pass(RFunc& f, const Liveness& lv) {
  u32 changes = 0;
  for (size_t i = 0; i < f.code.size(); ++i) {
    RInstr& in = f.code[i];
    if (in.op == ROp::kNop) continue;
    if (is_pure(in.op) && writes_dest(in) && !lv.live_after(i, in.a)) {
      in = RInstr{ROp::kNop};
      ++changes;
    }
    if (in.op == ROp::kMov && in.a == in.b) {
      in = RInstr{ROp::kNop};
      ++changes;
    }
  }
  return changes;
}

// ---- Pass 6: branch threading + compaction --------------------------------

void thread_branches(RFunc& f) {
  auto final_target = [&](u32 t) {
    u32 seen = 0;
    while (t < f.code.size() && f.code[t].op == ROp::kBr && seen < 8) {
      t = u32(f.code[t].imm);
      ++seen;
    }
    return t;
  };
  for (auto& in : f.code) {
    if (rop_is_jump(in.op))
      in.imm = final_target(u32(in.imm));
  }
  for (auto& pool : f.br_pool)
    for (u32& t : pool) t = final_target(t);
}

void compact(RFunc& f) {
  const size_t n = f.code.size();
  std::vector<u32> remap(n + 1, 0);
  u32 next = 0;
  for (size_t i = 0; i < n; ++i) {
    remap[i] = next;
    if (f.code[i].op != ROp::kNop) ++next;
  }
  remap[n] = next;
  std::vector<RInstr> out;
  out.reserve(next);
  for (const auto& in : f.code)
    if (in.op != ROp::kNop) out.push_back(in);
  for (auto& in : out) {
    if (rop_is_jump(in.op)) in.imm = remap[in.imm];
  }
  for (auto& pool : f.br_pool)
    for (u32& t : pool) t = remap[t];
  f.code = std::move(out);
}

}  // namespace

OptStats optimize_function(RFunc& f) {
  OptStats stats;
  stats.instrs_before = f.code.size();
  for (u32 round = 0; round < kMaxRounds; ++round) {
    ++stats.rounds;
    Cfg cfg = build_cfg(f);
    u32 changes = local_forward_pass(f, cfg);
    Liveness live = compute_liveness(f, cfg);
    changes += peephole_pass(f, cfg, live);
    // Peephole invalidates liveness; recompute before the next pass.
    live = compute_liveness(f, cfg);
    const u32 fused = indexed_address_pass(f, cfg, live);
    changes += fused;
    stats.fused_indexed += fused;
    if (fused != 0) live = compute_liveness(f, cfg);
    changes += dce_pass(f, live);
    thread_branches(f);
    compact(f);
    if (changes == 0) break;
  }
  stats.instrs_after = f.code.size();
  return stats;
}

}  // namespace mpiwasm::rt
