#include "runtime/lowering.h"

#include <algorithm>

#include "wasm/decoder.h"

namespace mpiwasm::rt {
namespace {

using wasm::InstrView;
using wasm::Op;

/// Maps a plain Wasm opcode to its RegCode twin for uniform numeric ops.
/// Returns ROp::kCount for ops needing bespoke lowering.
ROp simple_rop(Op op) {
  switch (op) {
#define CASE1(W, R) case Op::k##W: return ROp::k##R;
    CASE1(I32Eqz, I32Eqz) CASE1(I32Eq, I32Eq) CASE1(I32Ne, I32Ne)
    CASE1(I32LtS, I32LtS) CASE1(I32LtU, I32LtU) CASE1(I32GtS, I32GtS)
    CASE1(I32GtU, I32GtU) CASE1(I32LeS, I32LeS) CASE1(I32LeU, I32LeU)
    CASE1(I32GeS, I32GeS) CASE1(I32GeU, I32GeU)
    CASE1(I64Eqz, I64Eqz) CASE1(I64Eq, I64Eq) CASE1(I64Ne, I64Ne)
    CASE1(I64LtS, I64LtS) CASE1(I64LtU, I64LtU) CASE1(I64GtS, I64GtS)
    CASE1(I64GtU, I64GtU) CASE1(I64LeS, I64LeS) CASE1(I64LeU, I64LeU)
    CASE1(I64GeS, I64GeS) CASE1(I64GeU, I64GeU)
    CASE1(F32Eq, F32Eq) CASE1(F32Ne, F32Ne) CASE1(F32Lt, F32Lt)
    CASE1(F32Gt, F32Gt) CASE1(F32Le, F32Le) CASE1(F32Ge, F32Ge)
    CASE1(F64Eq, F64Eq) CASE1(F64Ne, F64Ne) CASE1(F64Lt, F64Lt)
    CASE1(F64Gt, F64Gt) CASE1(F64Le, F64Le) CASE1(F64Ge, F64Ge)
    CASE1(I32Clz, I32Clz) CASE1(I32Ctz, I32Ctz) CASE1(I32Popcnt, I32Popcnt)
    CASE1(I32Add, I32Add) CASE1(I32Sub, I32Sub) CASE1(I32Mul, I32Mul)
    CASE1(I32DivS, I32DivS) CASE1(I32DivU, I32DivU) CASE1(I32RemS, I32RemS)
    CASE1(I32RemU, I32RemU) CASE1(I32And, I32And) CASE1(I32Or, I32Or)
    CASE1(I32Xor, I32Xor) CASE1(I32Shl, I32Shl) CASE1(I32ShrS, I32ShrS)
    CASE1(I32ShrU, I32ShrU) CASE1(I32Rotl, I32Rotl) CASE1(I32Rotr, I32Rotr)
    CASE1(I64Clz, I64Clz) CASE1(I64Ctz, I64Ctz) CASE1(I64Popcnt, I64Popcnt)
    CASE1(I64Add, I64Add) CASE1(I64Sub, I64Sub) CASE1(I64Mul, I64Mul)
    CASE1(I64DivS, I64DivS) CASE1(I64DivU, I64DivU) CASE1(I64RemS, I64RemS)
    CASE1(I64RemU, I64RemU) CASE1(I64And, I64And) CASE1(I64Or, I64Or)
    CASE1(I64Xor, I64Xor) CASE1(I64Shl, I64Shl) CASE1(I64ShrS, I64ShrS)
    CASE1(I64ShrU, I64ShrU) CASE1(I64Rotl, I64Rotl) CASE1(I64Rotr, I64Rotr)
    CASE1(F32Abs, F32Abs) CASE1(F32Neg, F32Neg) CASE1(F32Ceil, F32Ceil)
    CASE1(F32Floor, F32Floor) CASE1(F32Trunc, F32Trunc)
    CASE1(F32Nearest, F32Nearest) CASE1(F32Sqrt, F32Sqrt)
    CASE1(F32Add, F32Add) CASE1(F32Sub, F32Sub) CASE1(F32Mul, F32Mul)
    CASE1(F32Div, F32Div) CASE1(F32Min, F32Min) CASE1(F32Max, F32Max)
    CASE1(F32Copysign, F32Copysign)
    CASE1(F64Abs, F64Abs) CASE1(F64Neg, F64Neg) CASE1(F64Ceil, F64Ceil)
    CASE1(F64Floor, F64Floor) CASE1(F64Trunc, F64Trunc)
    CASE1(F64Nearest, F64Nearest) CASE1(F64Sqrt, F64Sqrt)
    CASE1(F64Add, F64Add) CASE1(F64Sub, F64Sub) CASE1(F64Mul, F64Mul)
    CASE1(F64Div, F64Div) CASE1(F64Min, F64Min) CASE1(F64Max, F64Max)
    CASE1(F64Copysign, F64Copysign)
    CASE1(I32WrapI64, I32WrapI64)
    CASE1(I32TruncF32S, I32TruncF32S) CASE1(I32TruncF32U, I32TruncF32U)
    CASE1(I32TruncF64S, I32TruncF64S) CASE1(I32TruncF64U, I32TruncF64U)
    CASE1(I64ExtendI32S, I64ExtendI32S) CASE1(I64ExtendI32U, I64ExtendI32U)
    CASE1(I64TruncF32S, I64TruncF32S) CASE1(I64TruncF32U, I64TruncF32U)
    CASE1(I64TruncF64S, I64TruncF64S) CASE1(I64TruncF64U, I64TruncF64U)
    CASE1(F32ConvertI32S, F32ConvertI32S) CASE1(F32ConvertI32U, F32ConvertI32U)
    CASE1(F32ConvertI64S, F32ConvertI64S) CASE1(F32ConvertI64U, F32ConvertI64U)
    CASE1(F32DemoteF64, F32DemoteF64)
    CASE1(F64ConvertI32S, F64ConvertI32S) CASE1(F64ConvertI32U, F64ConvertI32U)
    CASE1(F64ConvertI64S, F64ConvertI64S) CASE1(F64ConvertI64U, F64ConvertI64U)
    CASE1(F64PromoteF32, F64PromoteF32)
    CASE1(I32ReinterpretF32, I32ReinterpretF32)
    CASE1(I64ReinterpretF64, I64ReinterpretF64)
    CASE1(F32ReinterpretI32, F32ReinterpretI32)
    CASE1(F64ReinterpretI64, F64ReinterpretI64)
    CASE1(I32Extend8S, I32Extend8S) CASE1(I32Extend16S, I32Extend16S)
    CASE1(I64Extend8S, I64Extend8S) CASE1(I64Extend16S, I64Extend16S)
    CASE1(I64Extend32S, I64Extend32S)
    CASE1(I8x16Splat, I8x16Splat) CASE1(I16x8Splat, I16x8Splat)
    CASE1(I32x4Splat, I32x4Splat)
    CASE1(I64x2Splat, I64x2Splat) CASE1(F32x4Splat, F32x4Splat)
    CASE1(F64x2Splat, F64x2Splat)
    CASE1(I8x16Swizzle, I8x16Swizzle)
    CASE1(I8x16Eq, I8x16Eq) CASE1(I8x16Ne, I8x16Ne)
    CASE1(I8x16LtS, I8x16LtS) CASE1(I8x16LtU, I8x16LtU)
    CASE1(I8x16GtS, I8x16GtS) CASE1(I8x16GtU, I8x16GtU)
    CASE1(I8x16LeS, I8x16LeS) CASE1(I8x16LeU, I8x16LeU)
    CASE1(I8x16GeS, I8x16GeS) CASE1(I8x16GeU, I8x16GeU)
    CASE1(I16x8Eq, I16x8Eq) CASE1(I16x8Ne, I16x8Ne)
    CASE1(I16x8LtS, I16x8LtS) CASE1(I16x8LtU, I16x8LtU)
    CASE1(I16x8GtS, I16x8GtS) CASE1(I16x8GtU, I16x8GtU)
    CASE1(I16x8LeS, I16x8LeS) CASE1(I16x8LeU, I16x8LeU)
    CASE1(I16x8GeS, I16x8GeS) CASE1(I16x8GeU, I16x8GeU)
    CASE1(I32x4Eq, I32x4Eq) CASE1(I32x4Ne, I32x4Ne)
    CASE1(I32x4LtS, I32x4LtS) CASE1(I32x4LtU, I32x4LtU)
    CASE1(I32x4GtS, I32x4GtS) CASE1(I32x4GtU, I32x4GtU)
    CASE1(I32x4LeS, I32x4LeS) CASE1(I32x4LeU, I32x4LeU)
    CASE1(I32x4GeS, I32x4GeS) CASE1(I32x4GeU, I32x4GeU)
    CASE1(F32x4Eq, F32x4Eq) CASE1(F32x4Ne, F32x4Ne) CASE1(F32x4Lt, F32x4Lt)
    CASE1(F32x4Gt, F32x4Gt) CASE1(F32x4Le, F32x4Le) CASE1(F32x4Ge, F32x4Ge)
    CASE1(F64x2Eq, F64x2Eq) CASE1(F64x2Ne, F64x2Ne) CASE1(F64x2Lt, F64x2Lt)
    CASE1(F64x2Gt, F64x2Gt) CASE1(F64x2Le, F64x2Le) CASE1(F64x2Ge, F64x2Ge)
    CASE1(V128Not, V128Not) CASE1(V128And, V128And)
    CASE1(V128AndNot, V128AndNot)
    CASE1(V128Or, V128Or) CASE1(V128Xor, V128Xor) CASE1(V128AnyTrue, V128AnyTrue)
    CASE1(I8x16Abs, I8x16Abs) CASE1(I8x16Neg, I8x16Neg)
    CASE1(I8x16AllTrue, I8x16AllTrue)
    CASE1(I8x16Add, I8x16Add) CASE1(I8x16Sub, I8x16Sub)
    CASE1(I16x8Abs, I16x8Abs) CASE1(I16x8Neg, I16x8Neg)
    CASE1(I16x8AllTrue, I16x8AllTrue)
    CASE1(I16x8Add, I16x8Add) CASE1(I16x8Sub, I16x8Sub)
    CASE1(I16x8Mul, I16x8Mul)
    CASE1(I32x4Abs, I32x4Abs) CASE1(I32x4Neg, I32x4Neg)
    CASE1(I32x4AllTrue, I32x4AllTrue)
    CASE1(I32x4Shl, I32x4Shl) CASE1(I32x4ShrS, I32x4ShrS)
    CASE1(I32x4ShrU, I32x4ShrU)
    CASE1(I32x4Add, I32x4Add) CASE1(I32x4Sub, I32x4Sub) CASE1(I32x4Mul, I32x4Mul)
    CASE1(I32x4MinS, I32x4MinS) CASE1(I32x4MinU, I32x4MinU)
    CASE1(I32x4MaxS, I32x4MaxS) CASE1(I32x4MaxU, I32x4MaxU)
    CASE1(I64x2Abs, I64x2Abs) CASE1(I64x2Neg, I64x2Neg)
    CASE1(I64x2AllTrue, I64x2AllTrue)
    CASE1(I64x2Shl, I64x2Shl) CASE1(I64x2ShrS, I64x2ShrS)
    CASE1(I64x2ShrU, I64x2ShrU)
    CASE1(I64x2Add, I64x2Add) CASE1(I64x2Sub, I64x2Sub) CASE1(I64x2Mul, I64x2Mul)
    CASE1(F32x4Abs, F32x4Abs) CASE1(F32x4Neg, F32x4Neg)
    CASE1(F32x4Sqrt, F32x4Sqrt)
    CASE1(F32x4Add, F32x4Add) CASE1(F32x4Sub, F32x4Sub) CASE1(F32x4Mul, F32x4Mul)
    CASE1(F32x4Div, F32x4Div)
    CASE1(F32x4Min, F32x4Min) CASE1(F32x4Max, F32x4Max)
    CASE1(F32x4Pmin, F32x4Pmin) CASE1(F32x4Pmax, F32x4Pmax)
    CASE1(F64x2Abs, F64x2Abs) CASE1(F64x2Neg, F64x2Neg)
    CASE1(F64x2Sqrt, F64x2Sqrt)
    CASE1(F64x2Add, F64x2Add) CASE1(F64x2Sub, F64x2Sub) CASE1(F64x2Mul, F64x2Mul)
    CASE1(F64x2Div, F64x2Div)
    CASE1(F64x2Min, F64x2Min) CASE1(F64x2Max, F64x2Max)
    CASE1(F64x2Pmin, F64x2Pmin) CASE1(F64x2Pmax, F64x2Pmax)
#undef CASE1
    default: return ROp::kCount;
  }
}

bool is_unop(Op op) {
  switch (op) {
    case Op::kI32Eqz: case Op::kI64Eqz:
    case Op::kI32Clz: case Op::kI32Ctz: case Op::kI32Popcnt:
    case Op::kI64Clz: case Op::kI64Ctz: case Op::kI64Popcnt:
    case Op::kF32Abs: case Op::kF32Neg: case Op::kF32Ceil: case Op::kF32Floor:
    case Op::kF32Trunc: case Op::kF32Nearest: case Op::kF32Sqrt:
    case Op::kF64Abs: case Op::kF64Neg: case Op::kF64Ceil: case Op::kF64Floor:
    case Op::kF64Trunc: case Op::kF64Nearest: case Op::kF64Sqrt:
    case Op::kI32WrapI64: case Op::kI32TruncF32S: case Op::kI32TruncF32U:
    case Op::kI32TruncF64S: case Op::kI32TruncF64U:
    case Op::kI64ExtendI32S: case Op::kI64ExtendI32U:
    case Op::kI64TruncF32S: case Op::kI64TruncF32U:
    case Op::kI64TruncF64S: case Op::kI64TruncF64U:
    case Op::kF32ConvertI32S: case Op::kF32ConvertI32U:
    case Op::kF32ConvertI64S: case Op::kF32ConvertI64U: case Op::kF32DemoteF64:
    case Op::kF64ConvertI32S: case Op::kF64ConvertI32U:
    case Op::kF64ConvertI64S: case Op::kF64ConvertI64U: case Op::kF64PromoteF32:
    case Op::kI32ReinterpretF32: case Op::kI64ReinterpretF64:
    case Op::kF32ReinterpretI32: case Op::kF64ReinterpretI64:
    case Op::kI32Extend8S: case Op::kI32Extend16S:
    case Op::kI64Extend8S: case Op::kI64Extend16S: case Op::kI64Extend32S:
    case Op::kI8x16Splat: case Op::kI16x8Splat: case Op::kI32x4Splat:
    case Op::kI64x2Splat: case Op::kF32x4Splat: case Op::kF64x2Splat:
    case Op::kV128Not: case Op::kV128AnyTrue:
    case Op::kI8x16Abs: case Op::kI8x16Neg: case Op::kI8x16AllTrue:
    case Op::kI16x8Abs: case Op::kI16x8Neg: case Op::kI16x8AllTrue:
    case Op::kI32x4Abs: case Op::kI32x4Neg: case Op::kI32x4AllTrue:
    case Op::kI64x2Abs: case Op::kI64x2Neg: case Op::kI64x2AllTrue:
    case Op::kF32x4Abs: case Op::kF32x4Neg: case Op::kF32x4Sqrt:
    case Op::kF64x2Abs: case Op::kF64x2Neg: case Op::kF64x2Sqrt:
      return true;
    default:
      return false;
  }
}

ROp load_rop(Op op) {
  switch (op) {
    case Op::kI32Load: return ROp::kI32Load;
    case Op::kI64Load: return ROp::kI64Load;
    case Op::kF32Load: return ROp::kF32Load;
    case Op::kF64Load: return ROp::kF64Load;
    case Op::kI32Load8S: return ROp::kI32Load8S;
    case Op::kI32Load8U: return ROp::kI32Load8U;
    case Op::kI32Load16S: return ROp::kI32Load16S;
    case Op::kI32Load16U: return ROp::kI32Load16U;
    case Op::kI64Load8S: return ROp::kI64Load8S;
    case Op::kI64Load8U: return ROp::kI64Load8U;
    case Op::kI64Load16S: return ROp::kI64Load16S;
    case Op::kI64Load16U: return ROp::kI64Load16U;
    case Op::kI64Load32S: return ROp::kI64Load32S;
    case Op::kI64Load32U: return ROp::kI64Load32U;
    case Op::kV128Load: return ROp::kV128Load;
    case Op::kV128Load32Splat: return ROp::kV128Load32Splat;
    case Op::kV128Load64Splat: return ROp::kV128Load64Splat;
    default: return ROp::kCount;
  }
}

ROp store_rop(Op op) {
  switch (op) {
    case Op::kI32Store: return ROp::kI32Store;
    case Op::kI64Store: return ROp::kI64Store;
    case Op::kF32Store: return ROp::kF32Store;
    case Op::kF64Store: return ROp::kF64Store;
    case Op::kI32Store8: return ROp::kI32Store8;
    case Op::kI32Store16: return ROp::kI32Store16;
    case Op::kI64Store8: return ROp::kI64Store8;
    case Op::kI64Store16: return ROp::kI64Store16;
    case Op::kI64Store32: return ROp::kI64Store32;
    case Op::kV128Store: return ROp::kV128Store;
    default: return ROp::kCount;
  }
}

ROp lane_rop(Op op) {
  switch (op) {
    case Op::kI8x16ExtractLaneS: return ROp::kI8x16ExtractLaneS;
    case Op::kI8x16ExtractLaneU: return ROp::kI8x16ExtractLaneU;
    case Op::kI16x8ExtractLaneS: return ROp::kI16x8ExtractLaneS;
    case Op::kI16x8ExtractLaneU: return ROp::kI16x8ExtractLaneU;
    case Op::kI32x4ExtractLane: return ROp::kI32x4ExtractLane;
    case Op::kI64x2ExtractLane: return ROp::kI64x2ExtractLane;
    case Op::kF32x4ExtractLane: return ROp::kF32x4ExtractLane;
    case Op::kF64x2ExtractLane: return ROp::kF64x2ExtractLane;
    default: return ROp::kCount;
  }
}

/// Replace-lane ops: (v128, scalar) -> v128 with the lane in the imm.
ROp replace_lane_rop(Op op) {
  switch (op) {
    case Op::kI8x16ReplaceLane: return ROp::kI8x16ReplaceLane;
    case Op::kI16x8ReplaceLane: return ROp::kI16x8ReplaceLane;
    case Op::kI32x4ReplaceLane: return ROp::kI32x4ReplaceLane;
    case Op::kI64x2ReplaceLane: return ROp::kI64x2ReplaceLane;
    case Op::kF32x4ReplaceLane: return ROp::kF32x4ReplaceLane;
    case Op::kF64x2ReplaceLane: return ROp::kF64x2ReplaceLane;
    default: return ROp::kCount;
  }
}

/// 0xFE atomic ops with a memarg (loads/stores/rmw/cmpxchg); ROp names
/// mirror the Wasm names exactly. wait/notify/fence lower separately.
ROp atomic_rop(Op op) {
  switch (op) {
#define ACASE(N) case Op::k##N: return ROp::k##N;
    ACASE(I32AtomicLoad) ACASE(I64AtomicLoad)
    ACASE(I32AtomicLoad8U) ACASE(I32AtomicLoad16U)
    ACASE(I64AtomicLoad8U) ACASE(I64AtomicLoad16U) ACASE(I64AtomicLoad32U)
    ACASE(I32AtomicStore) ACASE(I64AtomicStore)
    ACASE(I32AtomicStore8) ACASE(I32AtomicStore16)
    ACASE(I64AtomicStore8) ACASE(I64AtomicStore16) ACASE(I64AtomicStore32)
    ACASE(I32AtomicRmwAdd) ACASE(I64AtomicRmwAdd)
    ACASE(I32AtomicRmw8AddU) ACASE(I32AtomicRmw16AddU)
    ACASE(I64AtomicRmw8AddU) ACASE(I64AtomicRmw16AddU)
    ACASE(I64AtomicRmw32AddU)
    ACASE(I32AtomicRmwSub) ACASE(I64AtomicRmwSub)
    ACASE(I32AtomicRmw8SubU) ACASE(I32AtomicRmw16SubU)
    ACASE(I64AtomicRmw8SubU) ACASE(I64AtomicRmw16SubU)
    ACASE(I64AtomicRmw32SubU)
    ACASE(I32AtomicRmwAnd) ACASE(I64AtomicRmwAnd)
    ACASE(I32AtomicRmw8AndU) ACASE(I32AtomicRmw16AndU)
    ACASE(I64AtomicRmw8AndU) ACASE(I64AtomicRmw16AndU)
    ACASE(I64AtomicRmw32AndU)
    ACASE(I32AtomicRmwOr) ACASE(I64AtomicRmwOr)
    ACASE(I32AtomicRmw8OrU) ACASE(I32AtomicRmw16OrU)
    ACASE(I64AtomicRmw8OrU) ACASE(I64AtomicRmw16OrU)
    ACASE(I64AtomicRmw32OrU)
    ACASE(I32AtomicRmwXor) ACASE(I64AtomicRmwXor)
    ACASE(I32AtomicRmw8XorU) ACASE(I32AtomicRmw16XorU)
    ACASE(I64AtomicRmw8XorU) ACASE(I64AtomicRmw16XorU)
    ACASE(I64AtomicRmw32XorU)
    ACASE(I32AtomicRmwXchg) ACASE(I64AtomicRmwXchg)
    ACASE(I32AtomicRmw8XchgU) ACASE(I32AtomicRmw16XchgU)
    ACASE(I64AtomicRmw8XchgU) ACASE(I64AtomicRmw16XchgU)
    ACASE(I64AtomicRmw32XchgU)
    ACASE(I32AtomicRmwCmpxchg) ACASE(I64AtomicRmwCmpxchg)
    ACASE(I32AtomicRmw8CmpxchgU) ACASE(I32AtomicRmw16CmpxchgU)
    ACASE(I64AtomicRmw8CmpxchgU) ACASE(I64AtomicRmw16CmpxchgU)
    ACASE(I64AtomicRmw32CmpxchgU)
#undef ACASE
    default: return ROp::kCount;
  }
}

bool atomic_is_load(Op op) {
  return u16(op) >= u16(Op::kI32AtomicLoad) &&
         u16(op) <= u16(Op::kI64AtomicLoad32U);
}
bool atomic_is_store(Op op) {
  return u16(op) >= u16(Op::kI32AtomicStore) &&
         u16(op) <= u16(Op::kI64AtomicStore32);
}
bool atomic_is_cmpxchg(Op op) {
  return u16(op) >= u16(Op::kI32AtomicRmwCmpxchg) &&
         u16(op) <= u16(Op::kI64AtomicRmw32CmpxchgU);
}

/// Binops the lowerer can fuse with an immediately preceding constant into
/// an *Imm form at emission time — one instruction instead of two even
/// before the optimizer runs.
ROp lowering_imm_fused(Op op) {
  switch (op) {
    case Op::kI32Add: return ROp::kI32AddImm;
    case Op::kI64Add: return ROp::kI64AddImm;
    case Op::kI32Shl: return ROp::kI32ShlImm;
    case Op::kI32ShrU: return ROp::kI32ShrUImm;
    case Op::kI32And: return ROp::kI32AndImm;
    case Op::kI32Mul: return ROp::kI32MulImm;
    default: return ROp::kCount;
  }
}

class FuncLowering {
 public:
  FuncLowering(const wasm::Module& m, u32 defined_index)
      : m_(m), code_(m.code(defined_index)) {
    const wasm::FuncType& ft =
        m.func_type(m.num_imported_funcs() + defined_index);
    out_.num_params = u32(ft.params.size());
    out_.num_locals = out_.num_params + m.bodies[defined_index].num_locals;
    out_.has_result = !ft.results.empty();
    L_ = out_.num_locals;
  }

  RFunc run() {
    push_frame(Frame::kBlock, out_.has_result, /*entered_live=*/true);
    wasm::InstrReader reader(code_);
    InstrView in;
    while (!reader.done()) {
      reader.next(in);
      if (frames_.empty()) fatal("lowering: instructions after function end");
      step(in);
    }
    MW_CHECK(frames_.empty(), "lowering: unbalanced control frames");
    out_.num_regs = L_ + max_h_ + 1;
    return std::move(out_);
  }

 private:
  struct Frame {
    enum Kind { kBlock, kLoop, kIf } kind = kBlock;
    bool has_result = false;
    bool entered_live = true;
    u32 entry_height = 0;
    size_t loop_head = 0;              // kLoop: backward target
    std::vector<size_t> br_fixups;     // forward branches to this label
    size_t else_fixup = SIZE_MAX;      // kIf: BrIfNot over the then-branch
    bool saw_else = false;
  };

  u32 reg(u32 height) const { return L_ + height; }
  u32 top() const { return reg(h_ - 1); }

  size_t emit(ROp op, u32 a = 0, u32 b = 0, u32 c = 0, u64 imm = 0, u32 d = 0) {
    out_.code.push_back(RInstr{op, a, b, c, d, imm});
    return out_.code.size() - 1;
  }

  void push(u32 n = 1) {
    h_ += n;
    max_h_ = std::max(max_h_, h_);
  }
  void pop(u32 n = 1) {
    MW_CHECK(h_ >= n, "lowering: stack underflow");
    h_ -= n;
  }

  void push_frame(Frame::Kind kind, bool has_result, bool entered_live) {
    Frame f;
    f.kind = kind;
    f.has_result = has_result;
    f.entered_live = entered_live;
    f.entry_height = h_;
    if (kind == Frame::kLoop) f.loop_head = out_.code.size();
    frames_.push_back(std::move(f));
  }

  Frame& frame_at_depth(u32 depth) {
    MW_CHECK(depth < frames_.size(), "lowering: bad branch depth");
    return frames_[frames_.size() - 1 - depth];
  }

  /// Emits the value move + jump for a branch to `depth`. Returns nothing;
  /// forward targets get fixups, loops jump backward immediately.
  void emit_branch(u32 depth) {
    Frame& f = frame_at_depth(depth);
    if (f.kind == Frame::kLoop) {
      // Loop labels take no values (block params unsupported).
      emit(ROp::kBr, 0, 0, 0, f.loop_head);
      return;
    }
    if (f.has_result) {
      u32 dst = reg(f.entry_height);
      u32 src = top();
      if (dst != src) emit(ROp::kMov, dst, src);
    }
    size_t pos = emit(ROp::kBr);
    f.br_fixups.push_back(pos);
  }

  void patch(size_t pos, size_t target) { out_.code[pos].imm = target; }

  void step(const InstrView& in);

  const wasm::Module& m_;
  std::span<const u8> code_;
  RFunc out_;
  u32 L_ = 0;
  u32 h_ = 0;
  u32 max_h_ = 0;
  bool live_ = true;
  // Index of a kConst emitted by the immediately preceding step (SIZE_MAX
  // otherwise); enables const+binop / const+local.set fusion at emission.
  size_t pending_const_ = SIZE_MAX;
  std::vector<Frame> frames_;
};

void FuncLowering::step(const InstrView& in) {
  const size_t pending_const = pending_const_;
  pending_const_ = SIZE_MAX;
  // Dead-code handling: after br/return/unreachable the validator allows
  // stack-polymorphic code; we skip emission but keep frame bookkeeping.
  if (!live_) {
    switch (in.op) {
      case Op::kBlock: case Op::kLoop: case Op::kIf:
        push_frame(in.op == Op::kLoop   ? Frame::kLoop
                   : in.op == Op::kIf   ? Frame::kIf
                                        : Frame::kBlock,
                   in.block_type != wasm::kBlockTypeEmpty,
                   /*entered_live=*/false);
        return;
      case Op::kElse: {
        Frame& f = frames_.back();
        MW_CHECK(f.kind == Frame::kIf, "else without if");
        f.saw_else = true;
        if (f.entered_live) {
          // The `if` was executed; its false edge lands here.
          if (f.else_fixup != SIZE_MAX) {
            patch(f.else_fixup, out_.code.size());
            f.else_fixup = SIZE_MAX;
          }
          h_ = f.entry_height;
          live_ = true;
        }
        return;
      }
      case Op::kEnd: {
        Frame f = frames_.back();
        frames_.pop_back();
        h_ = f.entry_height + (f.has_result ? 1 : 0);
        max_h_ = std::max(max_h_, h_);
        if (f.entered_live) {
          // Forward branches (or the if's false edge) can land here.
          for (size_t pos : f.br_fixups) patch(pos, out_.code.size());
          if (f.else_fixup != SIZE_MAX) patch(f.else_fixup, out_.code.size());
          if (frames_.empty()) {
            // Function-level end reached via only branches.
            if (out_.has_result) emit(ROp::kReturn, reg(0));
            else emit(ROp::kReturnVoid);
          }
          live_ = true;
        } else if (frames_.empty()) {
          fatal("lowering: dead function end in dead frame");
        }
        return;
      }
      default:
        return;  // skip all other dead instructions
    }
  }

  switch (in.op) {
    case Op::kUnreachable:
      emit(ROp::kUnreachable);
      live_ = false;
      break;
    case Op::kNop:
      break;
    case Op::kBlock:
      push_frame(Frame::kBlock, in.block_type != wasm::kBlockTypeEmpty, true);
      break;
    case Op::kLoop:
      push_frame(Frame::kLoop, in.block_type != wasm::kBlockTypeEmpty, true);
      break;
    case Op::kIf: {
      u32 cond = top();
      pop();
      push_frame(Frame::kIf, in.block_type != wasm::kBlockTypeEmpty, true);
      frames_.back().else_fixup = emit(ROp::kBrIfNot, cond);
      break;
    }
    case Op::kElse: {
      Frame& f = frames_.back();
      MW_CHECK(f.kind == Frame::kIf, "else without if");
      f.saw_else = true;
      // Then-branch jumps over the else-branch.
      f.br_fixups.push_back(emit(ROp::kBr));
      patch(f.else_fixup, out_.code.size());
      f.else_fixup = SIZE_MAX;
      h_ = f.entry_height;
      break;
    }
    case Op::kEnd: {
      Frame f = frames_.back();
      frames_.pop_back();
      for (size_t pos : f.br_fixups) patch(pos, out_.code.size());
      if (f.else_fixup != SIZE_MAX) patch(f.else_fixup, out_.code.size());
      h_ = f.entry_height + (f.has_result ? 1 : 0);
      max_h_ = std::max(max_h_, h_);
      if (frames_.empty()) {
        if (out_.has_result) emit(ROp::kReturn, reg(0));
        else emit(ROp::kReturnVoid);
      }
      break;
    }
    case Op::kBr:
      emit_branch(in.idx());
      live_ = false;
      break;
    case Op::kBrIf: {
      u32 cond = top();
      pop();
      Frame& f = frame_at_depth(in.idx());
      bool needs_move =
          f.kind != Frame::kLoop && f.has_result && reg(f.entry_height) != top();
      if (f.kind != Frame::kLoop && f.has_result && needs_move) {
        // Inverted lowering: skip the move+jump when the branch is not taken.
        size_t skip = emit(ROp::kBrIfNot, cond);
        emit(ROp::kMov, reg(f.entry_height), top());
        f.br_fixups.push_back(emit(ROp::kBr));
        patch(skip, out_.code.size());
      } else if (f.kind == Frame::kLoop) {
        emit(ROp::kBrIf, cond, 0, 0, f.loop_head);
      } else {
        size_t pos = emit(ROp::kBrIf, cond);
        f.br_fixups.push_back(pos);
      }
      break;
    }
    case Op::kBrTable: {
      u32 idx_reg = top();
      pop();
      // Trampolines: BrTable jumps to one per target; each fixes up values
      // for its own destination frame.
      std::vector<u32> all = in.br_targets;
      all.push_back(in.br_default);
      u32 pool_index = u32(out_.br_pool.size());
      out_.br_pool.emplace_back();
      size_t table_pos = emit(ROp::kBrTable, idx_reg, 0, 0, pool_index);
      (void)table_pos;
      for (u32 depth : all) {
        out_.br_pool[pool_index].push_back(u32(out_.code.size()));
        emit_branch(depth);
      }
      live_ = false;
      break;
    }
    case Op::kReturn:
      if (out_.has_result) emit(ROp::kReturn, top());
      else emit(ROp::kReturnVoid);
      live_ = false;
      break;
    case Op::kCall: {
      u32 fi = in.idx();
      const wasm::FuncType& ft = m_.func_type(fi);
      u32 nargs = u32(ft.params.size());
      pop(nargs);
      u32 base = reg(h_);
      emit(ROp::kCall, base, nargs, 0, fi);
      if (!ft.results.empty()) push();
      break;
    }
    case Op::kCallIndirect: {
      const wasm::FuncType& ft = m_.types.at(in.indirect_type_index);
      u32 nargs = u32(ft.params.size());
      pop(1 + nargs);
      u32 base = reg(h_);
      emit(ROp::kCallIndirect, base, nargs, 0, in.indirect_type_index);
      if (!ft.results.empty()) push();
      break;
    }
    case Op::kDrop:
      pop();
      break;
    case Op::kSelect: {
      u32 c = top();           // condition
      u32 b = reg(h_ - 2);     // value if cond == 0
      u32 a = reg(h_ - 3);     // value if cond != 0, also destination
      pop(2);
      emit(ROp::kSelect, a, b, c);
      break;
    }
    case Op::kLocalGet:
      emit(ROp::kMov, reg(h_), in.idx());
      push();
      break;
    case Op::kLocalSet:
      // const t ; local.set x  -->  const straight into x.
      if (pending_const == out_.code.size() - 1 &&
          out_.code.back().op == ROp::kConst && out_.code.back().a == top()) {
        out_.code.back().a = in.idx();
        pop();
        break;
      }
      emit(ROp::kMov, in.idx(), top());
      pop();
      break;
    case Op::kLocalTee:
      emit(ROp::kMov, in.idx(), top());
      break;
    case Op::kGlobalGet:
      emit(ROp::kGlobalGet, reg(h_), 0, 0, in.idx());
      push();
      break;
    case Op::kGlobalSet:
      emit(ROp::kGlobalSet, top(), 0, 0, in.idx());
      pop();
      break;
    case Op::kMemorySize:
      emit(ROp::kMemorySize, reg(h_));
      push();
      break;
    case Op::kMemoryGrow:
      emit(ROp::kMemoryGrow, top());
      break;
    case Op::kMemoryCopy: {
      u32 n = top(), s = reg(h_ - 2), dst = reg(h_ - 3);
      pop(3);
      emit(ROp::kMemoryCopy, dst, s, n);
      break;
    }
    case Op::kMemoryFill: {
      u32 n = top(), v = reg(h_ - 2), dst = reg(h_ - 3);
      pop(3);
      emit(ROp::kMemoryFill, dst, v, n);
      break;
    }
    case Op::kI32Const:
      emit(ROp::kConst, reg(h_), 0, 0, u64(u32(i32(in.imm_i))));
      push();
      pending_const_ = out_.code.size() - 1;
      break;
    case Op::kI64Const:
      emit(ROp::kConst, reg(h_), 0, 0, u64(in.imm_i));
      push();
      pending_const_ = out_.code.size() - 1;
      break;
    case Op::kF32Const:
      emit(ROp::kConst, reg(h_), 0, 0, u64(std::bit_cast<u32>(in.imm_f32)));
      push();
      pending_const_ = out_.code.size() - 1;
      break;
    case Op::kF64Const:
      emit(ROp::kConst, reg(h_), 0, 0, std::bit_cast<u64>(in.imm_f64));
      push();
      pending_const_ = out_.code.size() - 1;
      break;
    case Op::kV128Const: {
      u32 pool = u32(out_.v128_pool.size());
      out_.v128_pool.push_back(in.imm_v128);
      emit(ROp::kConstV128, reg(h_), 0, 0, pool);
      push();
      break;
    }
    default: {
      if (ROp r = load_rop(in.op); r != ROp::kCount) {
        emit(r, top(), top(), 0, in.mem_offset);
        break;
      }
      if (ROp r = store_rop(in.op); r != ROp::kCount) {
        u32 val = top(), addr = reg(h_ - 2);
        pop(2);
        emit(r, addr, val, 0, in.mem_offset);
        break;
      }
      if (ROp r = lane_rop(in.op); r != ROp::kCount) {
        emit(r, top(), top(), 0, u64(in.imm_i));
        break;
      }
      if (ROp r = replace_lane_rop(in.op); r != ROp::kCount) {
        u32 rhs = top(), lhs = reg(h_ - 2);
        pop();
        emit(r, lhs, lhs, rhs, u64(in.imm_i));
        break;
      }
      if (in.op == Op::kI8x16Shuffle) {
        // The 16 selector bytes live in the function's v128 pool.
        u32 rhs = top(), lhs = reg(h_ - 2);
        pop();
        u32 pool = u32(out_.v128_pool.size());
        out_.v128_pool.push_back(in.imm_v128);
        emit(ROp::kI8x16Shuffle, lhs, lhs, rhs, pool);
        break;
      }
      if (in.op == Op::kV128Bitselect) {
        u32 mask = top(), v2 = reg(h_ - 2), v1 = reg(h_ - 3);
        pop(2);
        emit(ROp::kV128Bitselect, v1, v2, mask);
        break;
      }
      if (wasm::op_is_atomic(in.op)) {
        // Atomics reuse the address slot as the destination (a == b for
        // rmw/cmpxchg/wait/notify); handlers read every input before
        // writing r[a].
        if (in.op == Op::kAtomicFence) {
          emit(ROp::kAtomicFence);
          break;
        }
        if (in.op == Op::kMemoryAtomicNotify) {
          u32 cnt = top(), addr = reg(h_ - 2);
          pop();
          emit(ROp::kAtomicNotify, addr, addr, cnt, in.mem_offset);
          break;
        }
        if (in.op == Op::kMemoryAtomicWait32 ||
            in.op == Op::kMemoryAtomicWait64) {
          u32 tmo = top(), expd = reg(h_ - 2), addr = reg(h_ - 3);
          pop(2);
          emit(in.op == Op::kMemoryAtomicWait32 ? ROp::kAtomicWait32
                                                : ROp::kAtomicWait64,
               addr, addr, expd, in.mem_offset, tmo);
          break;
        }
        ROp r = atomic_rop(in.op);
        MW_CHECK(r != ROp::kCount, std::string("unlowered atomic: ") +
                                       wasm::op_name(in.op));
        if (atomic_is_load(in.op)) {
          emit(r, top(), top(), 0, in.mem_offset);
        } else if (atomic_is_store(in.op)) {
          u32 val = top(), addr = reg(h_ - 2);
          pop(2);
          emit(r, addr, val, 0, in.mem_offset);
        } else if (atomic_is_cmpxchg(in.op)) {
          u32 repl = top(), expd = reg(h_ - 2), addr = reg(h_ - 3);
          pop(2);
          emit(r, addr, addr, expd, in.mem_offset, repl);
        } else {
          u32 operand = top(), addr = reg(h_ - 2);
          pop();
          emit(r, addr, addr, operand, in.mem_offset);
        }
        break;
      }
      ROp r = simple_rop(in.op);
      MW_CHECK(r != ROp::kCount, std::string("unlowered opcode: ") +
                                     wasm::op_name(in.op));
      if (is_unop(in.op)) {
        emit(r, top(), top());
      } else {
        u32 rhs = top(), lhs = reg(h_ - 2);
        pop();
        // const t ; binop  -->  binop_imm, when the constant was emitted by
        // the immediately preceding step and feeds only this operand.
        if (pending_const == out_.code.size() - 1 &&
            out_.code.back().op == ROp::kConst && out_.code.back().a == rhs) {
          if (ROp fop = lowering_imm_fused(in.op); fop != ROp::kCount) {
            u64 imm = out_.code.back().imm;
            out_.code.back() = RInstr{fop, lhs, lhs, 0, 0, imm};
            break;
          }
        }
        emit(r, lhs, lhs, rhs);
      }
      break;
    }
  }
}

}  // namespace

RFunc lower_function(const wasm::Module& m, u32 defined_index) {
  FuncLowering lowering(m, defined_index);
  return lowering.run();
}

}  // namespace mpiwasm::rt
