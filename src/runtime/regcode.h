// RegCode: the register-transfer IR both compiled tiers (optimizing, jit)
// run.
//
// Wasm's operand stack is statically typed, so a stack slot at height h can
// be assigned the fixed virtual register (num_locals + h). Lowering emits
// this mapping in a single linear pass; the optimizer then runs real passes
// over it, and the jit tier compiles the result to native code
// (docs/ARCHITECTURE.md, "src/runtime").
//
// The executor attacks the three interpreter costs Jangda et al. identify
// as the Wasm-vs-native gap:
//   - dispatch: computed-goto direct threading (see exec.h). Handler
//     addresses live in RFunc::handlers, resolved once per function at
//     publication time.
//   - bounds checks: the executor checks every access against the current
//     size; native code has none and lets the guard region fault instead
//     (memory.h, jit_support.h).
//   - missed fusion: fused forms collapse cmp+branch, indexed-address
//     (base + (idx << s) + imm) and f32/f64 multiply-add chains into one
//     dispatch each.
// bench_dispatch measures each axis and writes BENCH_exec.json (see
// README "Execution-core benchmarks" for the schema).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "support/common.h"
#include "wasm/opcodes.h"
#include "wasm/types.h"

namespace mpiwasm::rt {

enum class ROp : u16 {
  kNop = 0,
  kMov,          // r[a] = r[b]
  kConst,        // r[a] = imm (raw 64-bit pattern)
  kConstV128,    // r[a] = v128_pool[imm]
  kSelect,       // r[a] = (r[c].i32 != 0) ? r[a] : r[b]
  kGlobalGet,    // r[a] = globals[imm]
  kGlobalSet,    // globals[imm] = r[a]
  // Control flow. Branch targets are absolute instruction indices in imm.
  kBr,
  kBrIf,         // taken if r[a].i32 != 0
  kBrIfNot,      // taken if r[a].i32 == 0
  kBrTable,      // index r[a]; imm = index into br_pool
  kReturn,       // result in r[a]
  kReturnVoid,
  kCall,         // imm = function index (combined space); args at r[a...]
                 // b = arg count; result (if any) lands in r[a]
  kCallIndirect, // imm = canonical sig id; args r[a..a+b), index r[a+b]
  kUnreachable,
  // Memory management.
  kMemorySize,   // r[a] = pages
  kMemoryGrow,   // r[a] = grow(r[a])
  kMemoryCopy,   // copy(dst=r[a], src=r[b], n=r[c])
  kMemoryFill,   // fill(dst=r[a], val=r[b], n=r[c])
  // Loads: r[a] = mem[r[b].u32 + imm]. The *Splat loads read the scalar
  // width and broadcast it to every lane.
  kI32Load, kI64Load, kF32Load, kF64Load,
  kI32Load8S, kI32Load8U, kI32Load16S, kI32Load16U,
  kI64Load8S, kI64Load8U, kI64Load16S, kI64Load16U, kI64Load32S, kI64Load32U,
  kV128Load, kV128Load32Splat, kV128Load64Splat,
  // Stores: mem[r[a].u32 + imm] = r[b].
  kI32Store, kI64Store, kF32Store, kF64Store,
  kI32Store8, kI32Store16, kI64Store8, kI64Store16, kI64Store32,
  kV128Store,
  // Numeric ops: unops r[a] = op(r[b]); binops r[a] = op(r[b], r[c]).
  kI32Eqz, kI32Eq, kI32Ne, kI32LtS, kI32LtU, kI32GtS, kI32GtU,
  kI32LeS, kI32LeU, kI32GeS, kI32GeU,
  kI64Eqz, kI64Eq, kI64Ne, kI64LtS, kI64LtU, kI64GtS, kI64GtU,
  kI64LeS, kI64LeU, kI64GeS, kI64GeU,
  kF32Eq, kF32Ne, kF32Lt, kF32Gt, kF32Le, kF32Ge,
  kF64Eq, kF64Ne, kF64Lt, kF64Gt, kF64Le, kF64Ge,
  kI32Clz, kI32Ctz, kI32Popcnt,
  kI32Add, kI32Sub, kI32Mul, kI32DivS, kI32DivU, kI32RemS, kI32RemU,
  kI32And, kI32Or, kI32Xor, kI32Shl, kI32ShrS, kI32ShrU, kI32Rotl, kI32Rotr,
  kI64Clz, kI64Ctz, kI64Popcnt,
  kI64Add, kI64Sub, kI64Mul, kI64DivS, kI64DivU, kI64RemS, kI64RemU,
  kI64And, kI64Or, kI64Xor, kI64Shl, kI64ShrS, kI64ShrU, kI64Rotl, kI64Rotr,
  kF32Abs, kF32Neg, kF32Ceil, kF32Floor, kF32Trunc, kF32Nearest, kF32Sqrt,
  kF32Add, kF32Sub, kF32Mul, kF32Div, kF32Min, kF32Max, kF32Copysign,
  kF64Abs, kF64Neg, kF64Ceil, kF64Floor, kF64Trunc, kF64Nearest, kF64Sqrt,
  kF64Add, kF64Sub, kF64Mul, kF64Div, kF64Min, kF64Max, kF64Copysign,
  kI32WrapI64,
  kI32TruncF32S, kI32TruncF32U, kI32TruncF64S, kI32TruncF64U,
  kI64ExtendI32S, kI64ExtendI32U,
  kI64TruncF32S, kI64TruncF32U, kI64TruncF64S, kI64TruncF64U,
  kF32ConvertI32S, kF32ConvertI32U, kF32ConvertI64S, kF32ConvertI64U,
  kF32DemoteF64,
  kF64ConvertI32S, kF64ConvertI32U, kF64ConvertI64S, kF64ConvertI64U,
  kF64PromoteF32,
  kI32ReinterpretF32, kI64ReinterpretF64, kF32ReinterpretI32, kF64ReinterpretI64,
  kI32Extend8S, kI32Extend16S, kI64Extend8S, kI64Extend16S, kI64Extend32S,
  // SIMD (mirrors the decoded 0xFD op space; lane semantics live once in
  // arith.h so all tiers agree bit-for-bit).
  kI8x16Splat, kI16x8Splat, kI32x4Splat, kI64x2Splat, kF32x4Splat, kF64x2Splat,
  // Extract: r[a].scalar = r[b].v128[imm]; the _s/_u narrow forms extend.
  kI8x16ExtractLaneS, kI8x16ExtractLaneU,
  kI16x8ExtractLaneS, kI16x8ExtractLaneU,
  kI32x4ExtractLane, kI64x2ExtractLane, kF32x4ExtractLane, kF64x2ExtractLane,
  // Replace: r[a] = r[b].v128 with lane imm set from scalar r[c].
  kI8x16ReplaceLane, kI16x8ReplaceLane, kI32x4ReplaceLane, kI64x2ReplaceLane,
  kF32x4ReplaceLane, kF64x2ReplaceLane,
  // Shuffle reads its 16 selector bytes from v128_pool[imm]; swizzle takes
  // them from r[c] at runtime.
  kI8x16Shuffle, kI8x16Swizzle,
  // Lane comparisons produce all-ones/all-zeros masks.
  kI8x16Eq, kI8x16Ne, kI8x16LtS, kI8x16LtU, kI8x16GtS, kI8x16GtU,
  kI8x16LeS, kI8x16LeU, kI8x16GeS, kI8x16GeU,
  kI16x8Eq, kI16x8Ne, kI16x8LtS, kI16x8LtU, kI16x8GtS, kI16x8GtU,
  kI16x8LeS, kI16x8LeU, kI16x8GeS, kI16x8GeU,
  kI32x4Eq, kI32x4Ne, kI32x4LtS, kI32x4LtU, kI32x4GtS, kI32x4GtU,
  kI32x4LeS, kI32x4LeU, kI32x4GeS, kI32x4GeU,
  kF32x4Eq, kF32x4Ne, kF32x4Lt, kF32x4Gt, kF32x4Le, kF32x4Ge,
  kF64x2Eq, kF64x2Ne, kF64x2Lt, kF64x2Gt, kF64x2Le, kF64x2Ge,
  kV128Not, kV128And, kV128AndNot, kV128Or, kV128Xor, kV128AnyTrue,
  // Bitselect: r[a] = bits of r[a] where mask r[c] is set, else r[b]
  // (a is both the "true" operand and the destination, like kSelect).
  kV128Bitselect,
  kI8x16Abs, kI8x16Neg, kI8x16AllTrue, kI8x16Add, kI8x16Sub,
  kI16x8Abs, kI16x8Neg, kI16x8AllTrue, kI16x8Add, kI16x8Sub, kI16x8Mul,
  kI32x4Abs, kI32x4Neg, kI32x4AllTrue,
  kI32x4Shl, kI32x4ShrS, kI32x4ShrU,
  kI32x4Add, kI32x4Sub, kI32x4Mul,
  kI32x4MinS, kI32x4MinU, kI32x4MaxS, kI32x4MaxU,
  kI64x2Abs, kI64x2Neg, kI64x2AllTrue,
  kI64x2Shl, kI64x2ShrS, kI64x2ShrU,
  kI64x2Add, kI64x2Sub, kI64x2Mul,
  kF32x4Abs, kF32x4Neg, kF32x4Sqrt,
  kF32x4Add, kF32x4Sub, kF32x4Mul, kF32x4Div,
  kF32x4Min, kF32x4Max, kF32x4Pmin, kF32x4Pmax,
  kF64x2Abs, kF64x2Neg, kF64x2Sqrt,
  kF64x2Add, kF64x2Sub, kF64x2Mul, kF64x2Div,
  kF64x2Min, kF64x2Max, kF64x2Pmin, kF64x2Pmax,
  // ---- Fused forms emitted only by the optimizing pipeline (kOptimizing
  // and kJit) ----
  kI32AddImm,    // r[a] = r[b] + i32(imm)
  kI64AddImm,    // r[a] = r[b] + i64(imm)
  kI32ShlImm, kI32ShrUImm, kI32AndImm, kI32MulImm,
  // Fused compare-and-branch: taken if cmp(r[a], r[b]); target in imm.
  kBrIfI32Eq, kBrIfI32Ne, kBrIfI32LtS, kBrIfI32LtU, kBrIfI32GtS, kBrIfI32GtU,
  kBrIfI32LeS, kBrIfI32LeU, kBrIfI32GeS, kBrIfI32GeU,
  kF64MulAdd,    // r[a] = r[b] * r[c] + r[d]
  kF32MulAdd,    // r[a] = r[b] * r[c] + r[d] (f32; two roundings, not fma())
  // Indexed loads: r[a] = mem[u32(r[b] + (r[c] << d)) + imm].
  kI32LoadIx, kI64LoadIx, kF32LoadIx, kF64LoadIx, kV128LoadIx,
  // Indexed stores: mem[u32(r[a] + (r[c] << d)) + imm] = r[b].
  kI32StoreIx, kI64StoreIx, kF32StoreIx, kF64StoreIx, kV128StoreIx,
  // ---- 0xFE atomics (threads proposal; cache v7) ----
  // All atomic accesses are seq-cst, bounds-checked, and trap on effective
  // addresses that are not naturally aligned. Optimizer passes must treat
  // every atomic op as a full optimization barrier: no fusion across or
  // into them.
  // Wait/notify: r[a] = result. notify: addr r[b], count r[c].
  // wait32/wait64: addr r[b], expected r[c], timeout_ns (i64) r[d].
  kAtomicNotify, kAtomicWait32, kAtomicWait64,
  kAtomicFence,
  // Atomic loads: r[a] = atomic mem[r[b].u32 + imm] (narrow: zero-extend).
  kI32AtomicLoad, kI64AtomicLoad,
  kI32AtomicLoad8U, kI32AtomicLoad16U,
  kI64AtomicLoad8U, kI64AtomicLoad16U, kI64AtomicLoad32U,
  // Atomic stores: atomic mem[r[a].u32 + imm] = r[b].
  kI32AtomicStore, kI64AtomicStore,
  kI32AtomicStore8, kI32AtomicStore16,
  kI64AtomicStore8, kI64AtomicStore16, kI64AtomicStore32,
  // Atomic RMW: r[a] = old value at mem[r[b].u32 + imm]; operand r[c].
  // NOTE: the lowering reuses the address slot as the destination (a == b),
  // so handlers must read every input before writing r[a].
  kI32AtomicRmwAdd, kI64AtomicRmwAdd,
  kI32AtomicRmw8AddU, kI32AtomicRmw16AddU,
  kI64AtomicRmw8AddU, kI64AtomicRmw16AddU, kI64AtomicRmw32AddU,
  kI32AtomicRmwSub, kI64AtomicRmwSub,
  kI32AtomicRmw8SubU, kI32AtomicRmw16SubU,
  kI64AtomicRmw8SubU, kI64AtomicRmw16SubU, kI64AtomicRmw32SubU,
  kI32AtomicRmwAnd, kI64AtomicRmwAnd,
  kI32AtomicRmw8AndU, kI32AtomicRmw16AndU,
  kI64AtomicRmw8AndU, kI64AtomicRmw16AndU, kI64AtomicRmw32AndU,
  kI32AtomicRmwOr, kI64AtomicRmwOr,
  kI32AtomicRmw8OrU, kI32AtomicRmw16OrU,
  kI64AtomicRmw8OrU, kI64AtomicRmw16OrU, kI64AtomicRmw32OrU,
  kI32AtomicRmwXor, kI64AtomicRmwXor,
  kI32AtomicRmw8XorU, kI32AtomicRmw16XorU,
  kI64AtomicRmw8XorU, kI64AtomicRmw16XorU, kI64AtomicRmw32XorU,
  kI32AtomicRmwXchg, kI64AtomicRmwXchg,
  kI32AtomicRmw8XchgU, kI32AtomicRmw16XchgU,
  kI64AtomicRmw8XchgU, kI64AtomicRmw16XchgU, kI64AtomicRmw32XchgU,
  // Cmpxchg: r[a] = old; addr r[b], expected r[c], replacement r[d].
  kI32AtomicRmwCmpxchg, kI64AtomicRmwCmpxchg,
  kI32AtomicRmw8CmpxchgU, kI32AtomicRmw16CmpxchgU,
  kI64AtomicRmw8CmpxchgU, kI64AtomicRmw16CmpxchgU, kI64AtomicRmw32CmpxchgU,

  kCount,
};

/// Whether `op` is one of the atomic RegCode ops (contiguous range).
inline bool rop_is_atomic(ROp op) {
  return op >= ROp::kAtomicNotify && op < ROp::kCount;
}

/// Whether `op` branches to the instruction index in imm: every branch but
/// kBrTable, whose targets live in br_pool.
inline bool rop_is_jump(ROp op) {
  return (op >= ROp::kBr && op <= ROp::kBrIfNot) ||
         (op >= ROp::kBrIfI32Eq && op <= ROp::kBrIfI32GeU);
}

/// Whether control never falls through `op` to the next instruction.
inline bool rop_is_terminator(ROp op) {
  return op == ROp::kBr || op == ROp::kBrTable || op == ROp::kReturn ||
         op == ROp::kReturnVoid || op == ROp::kUnreachable;
}

/// Lane count of an extract/replace op, whose imm is a lane index; 0 for
/// every other op.
u32 rop_lane_count(ROp op);

const char* rop_name(ROp op);

struct RInstr {
  ROp op = ROp::kNop;
  u32 a = 0, b = 0, c = 0, d = 0;
  u64 imm = 0;
};

// --- JIT blob metadata (cache v6 native section) ---------------------------
//
// The template JIT (jit_x64.h) compiles an RFunc into a position-independent
// machine-code blob. The only position-dependent sites are the absolute
// helper addresses in `movabs rax, imm64; call rax` sequences; each is
// recorded as a relocation so the blob can be re-patched when installed into
// a different process (cache hits run under a different ASLR layout, and
// helper addresses move with every build).

/// One helper-address patch site: the imm64 at `code[offset..offset+8)` must
/// be overwritten with jit_helper_address(helper) at install time.
struct JitReloc {
  u32 offset = 0;
  u32 helper = 0;
};

/// A compiled native body plus everything needed to validate and install it
/// in another process. `cpu_features` is the jit_cpu_features() word the
/// emitter ran under; `layout_hash` pins the codegen version and the Slot /
/// ROp / helper-table layouts the templates hard-code. A blob whose features
/// are not a subset of the host's, or whose layout hash disagrees, is
/// silently dropped and the function runs threaded RegCode instead.
///
/// Guest loads and stores in `code` carry no bounds check: each is one
/// instruction, which faults in the linear memory's guard region when the
/// access is out of bounds. The last `fault_sites` * 8 bytes of `code` list
/// them as little-endian (u32 pc, u32 stub) pairs in ascending pc; the fault
/// handler resumes a fault at code[pc] at code[stub], an out-of-line stub
/// that raises the out-of-bounds trap. The table lives in the code bytes,
/// like the constant pool, so it costs no allocation of its own.
struct JitBlob {
  u32 cpu_features = 0;
  u32 fault_sites = 0;
  u64 layout_hash = 0;
  std::vector<u8> code;
  std::vector<JitReloc> relocs;

  /// Offset of the fault-site table in `code` (its end when empty).
  size_t fault_table() const { return code.size() - size_t(fault_sites) * 8; }
};

/// One lowered function.
struct RFunc {
  u32 num_params = 0;
  u32 num_locals = 0;  // params + declared locals
  u32 num_regs = 0;    // locals + max stack depth
  bool has_result = false;
  std::vector<RInstr> code;
  std::vector<wasm::V128> v128_pool;
  std::vector<std::vector<u32>> br_pool;  // br_table target lists (default last)
  // Direct-threading handler addresses, parallel to `code`. Derived (never
  // serialized): filled by prepare_rfunc() at publication time, before any
  // thread can run the body. See exec.h.
  std::vector<const void*> handlers;
  // Native machine code for this body (jit tier);
  // null when the function was not JIT-compiled or had an untemplatable op.
  // Serialized by cache v6 as the per-function native section.
  std::shared_ptr<const JitBlob> jit;
  // Derived (never serialized): the installed executable entry point in this
  // process's JIT arena. Null means execute `code` through exec_regcode.
  // Only written at publication time, before the body becomes visible.
  void (*jit_entry)(void*) = nullptr;

  std::string to_string() const;  // disassembly, for tests/debugging
};

/// Whether control and pool references in `f` stay inside the body: the
/// last instruction is a terminator, every branch target is below
/// code.size(), every br_table list exists and is non-empty with targets in
/// range, every v128 pool index (const, shuffle) is in range, and every lane
/// immediate is below its lane count. The executor and the JIT rely on this
/// without checking it per instruction, so every body they run must pass.
/// Lowering and the optimizer always produce such bodies; a cache record
/// that fails is malformed.
bool rfunc_well_formed(const RFunc& f);

/// A lowered module: RFuncs parallel to Module::bodies.
struct RModule {
  std::vector<RFunc> funcs;
  u64 instruction_count() const {
    u64 n = 0;
    for (const auto& f : funcs) n += f.code.size();
    return n;
  }
};

}  // namespace mpiwasm::rt
