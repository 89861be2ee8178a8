// WebAssembly opcode definitions.
//
// Internal representation: a 16-bit code. Single-byte opcodes keep their
// spec byte value; 0xFC-prefixed (bulk memory), 0xFD-prefixed (SIMD) and
// 0xFE-prefixed (atomics) opcodes are encoded as (prefix << 8) | sub-opcode.
#pragma once

#include <array>
#include <cstdint>

#include "support/common.h"

namespace mpiwasm::wasm {

enum class Op : u16 {
  // Control.
  kUnreachable = 0x00,
  kNop = 0x01,
  kBlock = 0x02,
  kLoop = 0x03,
  kIf = 0x04,
  kElse = 0x05,
  kEnd = 0x0B,
  kBr = 0x0C,
  kBrIf = 0x0D,
  kBrTable = 0x0E,
  kReturn = 0x0F,
  kCall = 0x10,
  kCallIndirect = 0x11,
  // Parametric.
  kDrop = 0x1A,
  kSelect = 0x1B,
  // Variables.
  kLocalGet = 0x20,
  kLocalSet = 0x21,
  kLocalTee = 0x22,
  kGlobalGet = 0x23,
  kGlobalSet = 0x24,
  // Memory loads.
  kI32Load = 0x28,
  kI64Load = 0x29,
  kF32Load = 0x2A,
  kF64Load = 0x2B,
  kI32Load8S = 0x2C,
  kI32Load8U = 0x2D,
  kI32Load16S = 0x2E,
  kI32Load16U = 0x2F,
  kI64Load8S = 0x30,
  kI64Load8U = 0x31,
  kI64Load16S = 0x32,
  kI64Load16U = 0x33,
  kI64Load32S = 0x34,
  kI64Load32U = 0x35,
  // Memory stores.
  kI32Store = 0x36,
  kI64Store = 0x37,
  kF32Store = 0x38,
  kF64Store = 0x39,
  kI32Store8 = 0x3A,
  kI32Store16 = 0x3B,
  kI64Store8 = 0x3C,
  kI64Store16 = 0x3D,
  kI64Store32 = 0x3E,
  kMemorySize = 0x3F,
  kMemoryGrow = 0x40,
  // Constants.
  kI32Const = 0x41,
  kI64Const = 0x42,
  kF32Const = 0x43,
  kF64Const = 0x44,
  // i32 comparisons.
  kI32Eqz = 0x45,
  kI32Eq = 0x46,
  kI32Ne = 0x47,
  kI32LtS = 0x48,
  kI32LtU = 0x49,
  kI32GtS = 0x4A,
  kI32GtU = 0x4B,
  kI32LeS = 0x4C,
  kI32LeU = 0x4D,
  kI32GeS = 0x4E,
  kI32GeU = 0x4F,
  // i64 comparisons.
  kI64Eqz = 0x50,
  kI64Eq = 0x51,
  kI64Ne = 0x52,
  kI64LtS = 0x53,
  kI64LtU = 0x54,
  kI64GtS = 0x55,
  kI64GtU = 0x56,
  kI64LeS = 0x57,
  kI64LeU = 0x58,
  kI64GeS = 0x59,
  kI64GeU = 0x5A,
  // f32/f64 comparisons.
  kF32Eq = 0x5B,
  kF32Ne = 0x5C,
  kF32Lt = 0x5D,
  kF32Gt = 0x5E,
  kF32Le = 0x5F,
  kF32Ge = 0x60,
  kF64Eq = 0x61,
  kF64Ne = 0x62,
  kF64Lt = 0x63,
  kF64Gt = 0x64,
  kF64Le = 0x65,
  kF64Ge = 0x66,
  // i32 arithmetic.
  kI32Clz = 0x67,
  kI32Ctz = 0x68,
  kI32Popcnt = 0x69,
  kI32Add = 0x6A,
  kI32Sub = 0x6B,
  kI32Mul = 0x6C,
  kI32DivS = 0x6D,
  kI32DivU = 0x6E,
  kI32RemS = 0x6F,
  kI32RemU = 0x70,
  kI32And = 0x71,
  kI32Or = 0x72,
  kI32Xor = 0x73,
  kI32Shl = 0x74,
  kI32ShrS = 0x75,
  kI32ShrU = 0x76,
  kI32Rotl = 0x77,
  kI32Rotr = 0x78,
  // i64 arithmetic.
  kI64Clz = 0x79,
  kI64Ctz = 0x7A,
  kI64Popcnt = 0x7B,
  kI64Add = 0x7C,
  kI64Sub = 0x7D,
  kI64Mul = 0x7E,
  kI64DivS = 0x7F,
  kI64DivU = 0x80,
  kI64RemS = 0x81,
  kI64RemU = 0x82,
  kI64And = 0x83,
  kI64Or = 0x84,
  kI64Xor = 0x85,
  kI64Shl = 0x86,
  kI64ShrS = 0x87,
  kI64ShrU = 0x88,
  kI64Rotl = 0x89,
  kI64Rotr = 0x8A,
  // f32 arithmetic.
  kF32Abs = 0x8B,
  kF32Neg = 0x8C,
  kF32Ceil = 0x8D,
  kF32Floor = 0x8E,
  kF32Trunc = 0x8F,
  kF32Nearest = 0x90,
  kF32Sqrt = 0x91,
  kF32Add = 0x92,
  kF32Sub = 0x93,
  kF32Mul = 0x94,
  kF32Div = 0x95,
  kF32Min = 0x96,
  kF32Max = 0x97,
  kF32Copysign = 0x98,
  // f64 arithmetic.
  kF64Abs = 0x99,
  kF64Neg = 0x9A,
  kF64Ceil = 0x9B,
  kF64Floor = 0x9C,
  kF64Trunc = 0x9D,
  kF64Nearest = 0x9E,
  kF64Sqrt = 0x9F,
  kF64Add = 0xA0,
  kF64Sub = 0xA1,
  kF64Mul = 0xA2,
  kF64Div = 0xA3,
  kF64Min = 0xA4,
  kF64Max = 0xA5,
  kF64Copysign = 0xA6,
  // Conversions.
  kI32WrapI64 = 0xA7,
  kI32TruncF32S = 0xA8,
  kI32TruncF32U = 0xA9,
  kI32TruncF64S = 0xAA,
  kI32TruncF64U = 0xAB,
  kI64ExtendI32S = 0xAC,
  kI64ExtendI32U = 0xAD,
  kI64TruncF32S = 0xAE,
  kI64TruncF32U = 0xAF,
  kI64TruncF64S = 0xB0,
  kI64TruncF64U = 0xB1,
  kF32ConvertI32S = 0xB2,
  kF32ConvertI32U = 0xB3,
  kF32ConvertI64S = 0xB4,
  kF32ConvertI64U = 0xB5,
  kF32DemoteF64 = 0xB6,
  kF64ConvertI32S = 0xB7,
  kF64ConvertI32U = 0xB8,
  kF64ConvertI64S = 0xB9,
  kF64ConvertI64U = 0xBA,
  kF64PromoteF32 = 0xBB,
  kI32ReinterpretF32 = 0xBC,
  kI64ReinterpretF64 = 0xBD,
  kF32ReinterpretI32 = 0xBE,
  kF64ReinterpretI64 = 0xBF,
  // Sign extension ops.
  kI32Extend8S = 0xC0,
  kI32Extend16S = 0xC1,
  kI64Extend8S = 0xC2,
  kI64Extend16S = 0xC3,
  kI64Extend32S = 0xC4,
  // 0xFC-prefixed bulk memory.
  kMemoryCopy = 0xFC0A,
  kMemoryFill = 0xFC0B,
  // 0xFD-prefixed SIMD (the fixed-width v128 proposal's core op space:
  // loads/stores/const, shuffle/swizzle, splats, lane access, comparisons,
  // bit logic, integer/float lane arithmetic, shifts, min/max families).
  // Sub-opcode numbering matches the finalized spec exactly.
  kV128Load = 0xFD00,
  kV128Load32Splat = 0xFD09,
  kV128Load64Splat = 0xFD0A,
  kV128Store = 0xFD0B,
  kV128Const = 0xFD0C,
  kI8x16Shuffle = 0xFD0D,
  kI8x16Swizzle = 0xFD0E,
  kI8x16Splat = 0xFD0F,
  kI16x8Splat = 0xFD10,
  kI32x4Splat = 0xFD11,
  kI64x2Splat = 0xFD12,
  kF32x4Splat = 0xFD13,
  kF64x2Splat = 0xFD14,
  kI8x16ExtractLaneS = 0xFD15,
  kI8x16ExtractLaneU = 0xFD16,
  kI8x16ReplaceLane = 0xFD17,
  kI16x8ExtractLaneS = 0xFD18,
  kI16x8ExtractLaneU = 0xFD19,
  kI16x8ReplaceLane = 0xFD1A,
  kI32x4ExtractLane = 0xFD1B,
  kI32x4ReplaceLane = 0xFD1C,
  kI64x2ExtractLane = 0xFD1D,
  kI64x2ReplaceLane = 0xFD1E,
  kF32x4ExtractLane = 0xFD1F,
  kF32x4ReplaceLane = 0xFD20,
  kF64x2ExtractLane = 0xFD21,
  kF64x2ReplaceLane = 0xFD22,
  kI8x16Eq = 0xFD23,
  kI8x16Ne = 0xFD24,
  kI8x16LtS = 0xFD25,
  kI8x16LtU = 0xFD26,
  kI8x16GtS = 0xFD27,
  kI8x16GtU = 0xFD28,
  kI8x16LeS = 0xFD29,
  kI8x16LeU = 0xFD2A,
  kI8x16GeS = 0xFD2B,
  kI8x16GeU = 0xFD2C,
  kI16x8Eq = 0xFD2D,
  kI16x8Ne = 0xFD2E,
  kI16x8LtS = 0xFD2F,
  kI16x8LtU = 0xFD30,
  kI16x8GtS = 0xFD31,
  kI16x8GtU = 0xFD32,
  kI16x8LeS = 0xFD33,
  kI16x8LeU = 0xFD34,
  kI16x8GeS = 0xFD35,
  kI16x8GeU = 0xFD36,
  kI32x4Eq = 0xFD37,
  kI32x4Ne = 0xFD38,
  kI32x4LtS = 0xFD39,
  kI32x4LtU = 0xFD3A,
  kI32x4GtS = 0xFD3B,
  kI32x4GtU = 0xFD3C,
  kI32x4LeS = 0xFD3D,
  kI32x4LeU = 0xFD3E,
  kI32x4GeS = 0xFD3F,
  kI32x4GeU = 0xFD40,
  kF32x4Eq = 0xFD41,
  kF32x4Ne = 0xFD42,
  kF32x4Lt = 0xFD43,
  kF32x4Gt = 0xFD44,
  kF32x4Le = 0xFD45,
  kF32x4Ge = 0xFD46,
  kF64x2Eq = 0xFD47,
  kF64x2Ne = 0xFD48,
  kF64x2Lt = 0xFD49,
  kF64x2Gt = 0xFD4A,
  kF64x2Le = 0xFD4B,
  kF64x2Ge = 0xFD4C,
  kV128Not = 0xFD4D,
  kV128And = 0xFD4E,
  kV128AndNot = 0xFD4F,
  kV128Or = 0xFD50,
  kV128Xor = 0xFD51,
  kV128Bitselect = 0xFD52,
  kV128AnyTrue = 0xFD53,
  kI8x16Abs = 0xFD60,
  kI8x16Neg = 0xFD61,
  kI8x16AllTrue = 0xFD63,
  kI8x16Add = 0xFD6E,
  kI8x16Sub = 0xFD71,
  kI16x8Abs = 0xFD80,
  kI16x8Neg = 0xFD81,
  kI16x8AllTrue = 0xFD83,
  kI16x8Add = 0xFD8E,
  kI16x8Sub = 0xFD91,
  kI16x8Mul = 0xFD95,
  kI32x4Abs = 0xFDA0,
  kI32x4Neg = 0xFDA1,
  kI32x4AllTrue = 0xFDA3,
  kI32x4Shl = 0xFDAB,
  kI32x4ShrS = 0xFDAC,
  kI32x4ShrU = 0xFDAD,
  kI32x4Add = 0xFDAE,
  kI32x4Sub = 0xFDB1,
  kI32x4Mul = 0xFDB5,
  kI32x4MinS = 0xFDB6,
  kI32x4MinU = 0xFDB7,
  kI32x4MaxS = 0xFDB8,
  kI32x4MaxU = 0xFDB9,
  kI64x2Abs = 0xFDC0,
  kI64x2Neg = 0xFDC1,
  kI64x2AllTrue = 0xFDC3,
  kI64x2Shl = 0xFDCB,
  kI64x2ShrS = 0xFDCC,
  kI64x2ShrU = 0xFDCD,
  kI64x2Add = 0xFDCE,
  kI64x2Sub = 0xFDD1,
  kI64x2Mul = 0xFDD5,
  kF32x4Abs = 0xFDE0,
  kF32x4Neg = 0xFDE1,
  kF32x4Sqrt = 0xFDE3,
  kF32x4Add = 0xFDE4,
  kF32x4Sub = 0xFDE5,
  kF32x4Mul = 0xFDE6,
  kF32x4Div = 0xFDE7,
  kF32x4Min = 0xFDE8,
  kF32x4Max = 0xFDE9,
  kF32x4Pmin = 0xFDEA,
  kF32x4Pmax = 0xFDEB,
  kF64x2Abs = 0xFDEC,
  kF64x2Neg = 0xFDED,
  kF64x2Sqrt = 0xFDEF,
  kF64x2Add = 0xFDF0,
  kF64x2Sub = 0xFDF1,
  kF64x2Mul = 0xFDF2,
  kF64x2Div = 0xFDF3,
  kF64x2Min = 0xFDF4,
  kF64x2Max = 0xFDF5,
  kF64x2Pmin = 0xFDF6,
  kF64x2Pmax = 0xFDF7,
  // 0xFE-prefixed atomics (threads proposal). Sub-opcode numbering matches
  // the proposal exactly: wait/notify/fence, then seq-cst loads/stores
  // (incl. zero-extending narrow widths), then the seven RMW families
  // (add/sub/and/or/xor/xchg/cmpxchg), each in the order
  // i32, i64, i32_8u, i32_16u, i64_8u, i64_16u, i64_32u.
  kMemoryAtomicNotify = 0xFE00,
  kMemoryAtomicWait32 = 0xFE01,
  kMemoryAtomicWait64 = 0xFE02,
  kAtomicFence = 0xFE03,
  kI32AtomicLoad = 0xFE10,
  kI64AtomicLoad = 0xFE11,
  kI32AtomicLoad8U = 0xFE12,
  kI32AtomicLoad16U = 0xFE13,
  kI64AtomicLoad8U = 0xFE14,
  kI64AtomicLoad16U = 0xFE15,
  kI64AtomicLoad32U = 0xFE16,
  kI32AtomicStore = 0xFE17,
  kI64AtomicStore = 0xFE18,
  kI32AtomicStore8 = 0xFE19,
  kI32AtomicStore16 = 0xFE1A,
  kI64AtomicStore8 = 0xFE1B,
  kI64AtomicStore16 = 0xFE1C,
  kI64AtomicStore32 = 0xFE1D,
  kI32AtomicRmwAdd = 0xFE1E,
  kI64AtomicRmwAdd = 0xFE1F,
  kI32AtomicRmw8AddU = 0xFE20,
  kI32AtomicRmw16AddU = 0xFE21,
  kI64AtomicRmw8AddU = 0xFE22,
  kI64AtomicRmw16AddU = 0xFE23,
  kI64AtomicRmw32AddU = 0xFE24,
  kI32AtomicRmwSub = 0xFE25,
  kI64AtomicRmwSub = 0xFE26,
  kI32AtomicRmw8SubU = 0xFE27,
  kI32AtomicRmw16SubU = 0xFE28,
  kI64AtomicRmw8SubU = 0xFE29,
  kI64AtomicRmw16SubU = 0xFE2A,
  kI64AtomicRmw32SubU = 0xFE2B,
  kI32AtomicRmwAnd = 0xFE2C,
  kI64AtomicRmwAnd = 0xFE2D,
  kI32AtomicRmw8AndU = 0xFE2E,
  kI32AtomicRmw16AndU = 0xFE2F,
  kI64AtomicRmw8AndU = 0xFE30,
  kI64AtomicRmw16AndU = 0xFE31,
  kI64AtomicRmw32AndU = 0xFE32,
  kI32AtomicRmwOr = 0xFE33,
  kI64AtomicRmwOr = 0xFE34,
  kI32AtomicRmw8OrU = 0xFE35,
  kI32AtomicRmw16OrU = 0xFE36,
  kI64AtomicRmw8OrU = 0xFE37,
  kI64AtomicRmw16OrU = 0xFE38,
  kI64AtomicRmw32OrU = 0xFE39,
  kI32AtomicRmwXor = 0xFE3A,
  kI64AtomicRmwXor = 0xFE3B,
  kI32AtomicRmw8XorU = 0xFE3C,
  kI32AtomicRmw16XorU = 0xFE3D,
  kI64AtomicRmw8XorU = 0xFE3E,
  kI64AtomicRmw16XorU = 0xFE3F,
  kI64AtomicRmw32XorU = 0xFE40,
  kI32AtomicRmwXchg = 0xFE41,
  kI64AtomicRmwXchg = 0xFE42,
  kI32AtomicRmw8XchgU = 0xFE43,
  kI32AtomicRmw16XchgU = 0xFE44,
  kI64AtomicRmw8XchgU = 0xFE45,
  kI64AtomicRmw16XchgU = 0xFE46,
  kI64AtomicRmw32XchgU = 0xFE47,
  kI32AtomicRmwCmpxchg = 0xFE48,
  kI64AtomicRmwCmpxchg = 0xFE49,
  kI32AtomicRmw8CmpxchgU = 0xFE4A,
  kI32AtomicRmw16CmpxchgU = 0xFE4B,
  kI64AtomicRmw8CmpxchgU = 0xFE4C,
  kI64AtomicRmw16CmpxchgU = 0xFE4D,
  kI64AtomicRmw32CmpxchgU = 0xFE4E,
};

/// Immediate operand shapes an opcode carries in the binary encoding.
enum class ImmKind : u8 {
  kNone,
  kBlockType,    // block/loop/if
  kLabel,        // br/br_if
  kBrTable,      // vector of labels + default
  kFuncIdx,      // call
  kCallIndirect, // type idx + table idx
  kLocalIdx,
  kGlobalIdx,
  kMemArg,       // align + offset
  kMemArgLane,   // unused (reserved for SIMD load/store lane)
  kMemIdx,       // memory.size/grow (single 0x00 byte)
  kMemCopy,      // two 0x00 bytes
  kI32Const,
  kI64Const,
  kF32Const,
  kF64Const,
  kV128Const,    // 16 literal bytes
  kLaneIdx,      // SIMD extract/replace lane
  kShuffle16,    // i8x16.shuffle: 16 literal lane-selector bytes
  kAtomicFence,  // atomic.fence: single 0x00 ordering byte
};

/// One slot of the opcode table.
struct OpInfo {
  const char* name = nullptr;
  ImmKind imm = ImmKind::kNone;
  bool known = false;  // false: no opcode has this code
};

/// Row of the opcode table for `code`: 0 for single-byte opcodes, 1-3 for
/// the 0xFC/0xFD/0xFE-prefixed spaces, and kNoOpSpace, a row in which every
/// slot is unknown, for any other high byte.
constexpr u32 kNoOpSpace = 4;
constexpr u32 op_space(u16 code) {
  const u32 hi = code >> 8;
  return hi == 0 ? 0 : hi >= 0xFC && hi <= 0xFE ? hi - 0xFB : kNoOpSpace;
}

/// The opcode table, dense over (opcode space, low byte) and built at
/// compile time from the single opcode list in opcodes.cc.
using OpTable = std::array<std::array<OpInfo, 256>, kNoOpSpace + 1>;
extern const OpTable kOpTable;

inline const OpInfo& op_info(u16 code) {
  return kOpTable[op_space(code)][code & 0xFF];
}

/// Whether `code` is a recognized opcode; unknown opcodes fail decoding.
inline bool op_is_known(u16 code) { return op_info(code).known; }

inline ImmKind op_imm_kind(Op op) {
  const OpInfo& info = op_info(u16(op));
  MW_CHECK(info.known, "unknown opcode");
  return info.imm;
}

inline const char* op_name(Op op) {
  const OpInfo& info = op_info(u16(op));
  return info.known ? info.name : "<unknown>";
}

/// Whether `op` lives in the 0xFE atomic opcode space (threads proposal).
inline bool op_is_atomic(Op op) { return (u16(op) >> 8) == 0xFE; }

/// Access width in bytes of a memarg-carrying atomic op (incl. wait/
/// notify). The 0xFE numbering repeats a 7-op width pattern for loads,
/// stores, and each rmw family, so the width is derivable from the code.
inline u32 atomic_access_bytes(Op op) {
  const u16 code = u16(op);
  if (op == Op::kMemoryAtomicNotify || op == Op::kMemoryAtomicWait32) return 4;
  if (op == Op::kMemoryAtomicWait64) return 8;
  constexpr u32 kWidths[7] = {4, 8, 1, 2, 1, 2, 4};
  return kWidths[(code - u16(Op::kI32AtomicLoad)) % 7];
}

/// Natural (and mandatory) alignment exponent for an atomic access.
inline u32 atomic_align_log2(Op op) {
  const u32 b = atomic_access_bytes(op);
  return b == 1 ? 0 : b == 2 ? 1 : b == 4 ? 2 : 3;
}

}  // namespace mpiwasm::wasm
