#include "runtime/regcode.h"

#include <sstream>

namespace mpiwasm::rt {

const char* rop_name(ROp op) {
  switch (op) {
    case ROp::kNop: return "nop";
    case ROp::kMov: return "mov";
    case ROp::kConst: return "const";
    case ROp::kConstV128: return "const.v128";
    case ROp::kSelect: return "select";
    case ROp::kGlobalGet: return "global.get";
    case ROp::kGlobalSet: return "global.set";
    case ROp::kBr: return "br";
    case ROp::kBrIf: return "br_if";
    case ROp::kBrIfNot: return "br_if_not";
    case ROp::kBrTable: return "br_table";
    case ROp::kReturn: return "return";
    case ROp::kReturnVoid: return "return.void";
    case ROp::kCall: return "call";
    case ROp::kCallIndirect: return "call_indirect";
    case ROp::kUnreachable: return "unreachable";
    case ROp::kMemorySize: return "memory.size";
    case ROp::kMemoryGrow: return "memory.grow";
    case ROp::kMemoryCopy: return "memory.copy";
    case ROp::kMemoryFill: return "memory.fill";
    case ROp::kI32AddImm: return "i32.add_imm";
    case ROp::kI64AddImm: return "i64.add_imm";
    case ROp::kI32ShlImm: return "i32.shl_imm";
    case ROp::kI32ShrUImm: return "i32.shr_u_imm";
    case ROp::kI32AndImm: return "i32.and_imm";
    case ROp::kI32MulImm: return "i32.mul_imm";
    case ROp::kBrIfI32Eq: return "br_if.i32.eq";
    case ROp::kBrIfI32Ne: return "br_if.i32.ne";
    case ROp::kBrIfI32LtS: return "br_if.i32.lt_s";
    case ROp::kBrIfI32LtU: return "br_if.i32.lt_u";
    case ROp::kBrIfI32GtS: return "br_if.i32.gt_s";
    case ROp::kBrIfI32GtU: return "br_if.i32.gt_u";
    case ROp::kBrIfI32LeS: return "br_if.i32.le_s";
    case ROp::kBrIfI32LeU: return "br_if.i32.le_u";
    case ROp::kBrIfI32GeS: return "br_if.i32.ge_s";
    case ROp::kBrIfI32GeU: return "br_if.i32.ge_u";
    case ROp::kF64MulAdd: return "f64.mul_add";
    case ROp::kF32MulAdd: return "f32.mul_add";
    case ROp::kI32LoadIx: return "i32.load_ix";
    case ROp::kI64LoadIx: return "i64.load_ix";
    case ROp::kF32LoadIx: return "f32.load_ix";
    case ROp::kF64LoadIx: return "f64.load_ix";
    case ROp::kV128LoadIx: return "v128.load_ix";
    case ROp::kI32StoreIx: return "i32.store_ix";
    case ROp::kI64StoreIx: return "i64.store_ix";
    case ROp::kF32StoreIx: return "f32.store_ix";
    case ROp::kF64StoreIx: return "f64.store_ix";
    case ROp::kV128StoreIx: return "v128.store_ix";
    case ROp::kAtomicNotify: return "memory.atomic.notify";
    case ROp::kAtomicWait32: return "memory.atomic.wait32";
    case ROp::kAtomicWait64: return "memory.atomic.wait64";
    case ROp::kAtomicFence: return "atomic.fence";
    case ROp::kI32AtomicLoad: return "i32.atomic.load";
    case ROp::kI64AtomicLoad: return "i64.atomic.load";
    case ROp::kI32AtomicLoad8U: return "i32.atomic.load8_u";
    case ROp::kI32AtomicLoad16U: return "i32.atomic.load16_u";
    case ROp::kI64AtomicLoad8U: return "i64.atomic.load8_u";
    case ROp::kI64AtomicLoad16U: return "i64.atomic.load16_u";
    case ROp::kI64AtomicLoad32U: return "i64.atomic.load32_u";
    case ROp::kI32AtomicStore: return "i32.atomic.store";
    case ROp::kI64AtomicStore: return "i64.atomic.store";
    case ROp::kI32AtomicStore8: return "i32.atomic.store8";
    case ROp::kI32AtomicStore16: return "i32.atomic.store16";
    case ROp::kI64AtomicStore8: return "i64.atomic.store8";
    case ROp::kI64AtomicStore16: return "i64.atomic.store16";
    case ROp::kI64AtomicStore32: return "i64.atomic.store32";
    case ROp::kI32AtomicRmwAdd: return "i32.atomic.rmw.add";
    case ROp::kI64AtomicRmwAdd: return "i64.atomic.rmw.add";
    case ROp::kI32AtomicRmw8AddU: return "i32.atomic.rmw8.add_u";
    case ROp::kI32AtomicRmw16AddU: return "i32.atomic.rmw16.add_u";
    case ROp::kI64AtomicRmw8AddU: return "i64.atomic.rmw8.add_u";
    case ROp::kI64AtomicRmw16AddU: return "i64.atomic.rmw16.add_u";
    case ROp::kI64AtomicRmw32AddU: return "i64.atomic.rmw32.add_u";
    case ROp::kI32AtomicRmwSub: return "i32.atomic.rmw.sub";
    case ROp::kI64AtomicRmwSub: return "i64.atomic.rmw.sub";
    case ROp::kI32AtomicRmw8SubU: return "i32.atomic.rmw8.sub_u";
    case ROp::kI32AtomicRmw16SubU: return "i32.atomic.rmw16.sub_u";
    case ROp::kI64AtomicRmw8SubU: return "i64.atomic.rmw8.sub_u";
    case ROp::kI64AtomicRmw16SubU: return "i64.atomic.rmw16.sub_u";
    case ROp::kI64AtomicRmw32SubU: return "i64.atomic.rmw32.sub_u";
    case ROp::kI32AtomicRmwAnd: return "i32.atomic.rmw.and";
    case ROp::kI64AtomicRmwAnd: return "i64.atomic.rmw.and";
    case ROp::kI32AtomicRmw8AndU: return "i32.atomic.rmw8.and_u";
    case ROp::kI32AtomicRmw16AndU: return "i32.atomic.rmw16.and_u";
    case ROp::kI64AtomicRmw8AndU: return "i64.atomic.rmw8.and_u";
    case ROp::kI64AtomicRmw16AndU: return "i64.atomic.rmw16.and_u";
    case ROp::kI64AtomicRmw32AndU: return "i64.atomic.rmw32.and_u";
    case ROp::kI32AtomicRmwOr: return "i32.atomic.rmw.or";
    case ROp::kI64AtomicRmwOr: return "i64.atomic.rmw.or";
    case ROp::kI32AtomicRmw8OrU: return "i32.atomic.rmw8.or_u";
    case ROp::kI32AtomicRmw16OrU: return "i32.atomic.rmw16.or_u";
    case ROp::kI64AtomicRmw8OrU: return "i64.atomic.rmw8.or_u";
    case ROp::kI64AtomicRmw16OrU: return "i64.atomic.rmw16.or_u";
    case ROp::kI64AtomicRmw32OrU: return "i64.atomic.rmw32.or_u";
    case ROp::kI32AtomicRmwXor: return "i32.atomic.rmw.xor";
    case ROp::kI64AtomicRmwXor: return "i64.atomic.rmw.xor";
    case ROp::kI32AtomicRmw8XorU: return "i32.atomic.rmw8.xor_u";
    case ROp::kI32AtomicRmw16XorU: return "i32.atomic.rmw16.xor_u";
    case ROp::kI64AtomicRmw8XorU: return "i64.atomic.rmw8.xor_u";
    case ROp::kI64AtomicRmw16XorU: return "i64.atomic.rmw16.xor_u";
    case ROp::kI64AtomicRmw32XorU: return "i64.atomic.rmw32.xor_u";
    case ROp::kI32AtomicRmwXchg: return "i32.atomic.rmw.xchg";
    case ROp::kI64AtomicRmwXchg: return "i64.atomic.rmw.xchg";
    case ROp::kI32AtomicRmw8XchgU: return "i32.atomic.rmw8.xchg_u";
    case ROp::kI32AtomicRmw16XchgU: return "i32.atomic.rmw16.xchg_u";
    case ROp::kI64AtomicRmw8XchgU: return "i64.atomic.rmw8.xchg_u";
    case ROp::kI64AtomicRmw16XchgU: return "i64.atomic.rmw16.xchg_u";
    case ROp::kI64AtomicRmw32XchgU: return "i64.atomic.rmw32.xchg_u";
    case ROp::kI32AtomicRmwCmpxchg: return "i32.atomic.rmw.cmpxchg";
    case ROp::kI64AtomicRmwCmpxchg: return "i64.atomic.rmw.cmpxchg";
    case ROp::kI32AtomicRmw8CmpxchgU: return "i32.atomic.rmw8.cmpxchg_u";
    case ROp::kI32AtomicRmw16CmpxchgU: return "i32.atomic.rmw16.cmpxchg_u";
    case ROp::kI64AtomicRmw8CmpxchgU: return "i64.atomic.rmw8.cmpxchg_u";
    case ROp::kI64AtomicRmw16CmpxchgU: return "i64.atomic.rmw16.cmpxchg_u";
    case ROp::kI64AtomicRmw32CmpxchgU: return "i64.atomic.rmw32.cmpxchg_u";
    default: return nullptr;
  }
}

u32 rop_lane_count(ROp op) {
  switch (op) {
    case ROp::kI8x16ExtractLaneS: case ROp::kI8x16ExtractLaneU:
    case ROp::kI8x16ReplaceLane:
      return 16;
    case ROp::kI16x8ExtractLaneS: case ROp::kI16x8ExtractLaneU:
    case ROp::kI16x8ReplaceLane:
      return 8;
    case ROp::kI32x4ExtractLane: case ROp::kF32x4ExtractLane:
    case ROp::kI32x4ReplaceLane: case ROp::kF32x4ReplaceLane:
      return 4;
    case ROp::kI64x2ExtractLane: case ROp::kF64x2ExtractLane:
    case ROp::kI64x2ReplaceLane: case ROp::kF64x2ReplaceLane:
      return 2;
    default:
      return 0;
  }
}

bool rfunc_well_formed(const RFunc& f) {
  const size_t n = f.code.size();
  if (n == 0 || !rop_is_terminator(f.code.back().op)) return false;
  for (const RInstr& in : f.code) {
    if (rop_is_jump(in.op) && in.imm >= n) return false;
    if (in.op == ROp::kBrTable) {
      if (in.imm >= f.br_pool.size()) return false;
      const std::vector<u32>& targets = f.br_pool[in.imm];
      if (targets.empty()) return false;
      for (u32 t : targets)
        if (t >= n) return false;
    }
    if ((in.op == ROp::kConstV128 || in.op == ROp::kI8x16Shuffle) &&
        in.imm >= f.v128_pool.size())
      return false;
    if (u32 lanes = rop_lane_count(in.op); lanes != 0 && in.imm >= lanes)
      return false;
  }
  return true;
}

std::string RFunc::to_string() const {
  std::ostringstream os;
  os << "func params=" << num_params << " locals=" << num_locals
     << " regs=" << num_regs << " result=" << (has_result ? 1 : 0) << "\n";
  for (size_t i = 0; i < code.size(); ++i) {
    const RInstr& in = code[i];
    os << "  [" << i << "] ";
    if (const char* n = rop_name(in.op)) os << n;
    else os << "rop#" << u16(in.op);
    os << " a=" << in.a << " b=" << in.b << " c=" << in.c;
    if (in.d != 0) os << " d=" << in.d;
    os << " imm=" << i64(in.imm) << "\n";
  }
  return os.str();
}

}  // namespace mpiwasm::rt
