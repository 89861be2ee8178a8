// Template (copy-and-patch style) x86-64 code generator for RegCode.
//
// Each ROp maps onto a fixed instruction template with patched register
// numbers, Slot-frame displacements, and immediates — the copy-and-patch
// idea applied at RegCode granularity, which works because RegCode is
// already register-based with explicit bounds checks (kMemGuard + raw twins)
// and fused superinstructions.
//
// Register convention:
//   pinned (System V callee-saved, so helper calls never spill them):
//     rbx  Slot*  register frame        r13  u8*  linear-memory base
//     r12  Slot*  globals               r15  u64  linear-memory byte size
//     r14  Instance*
//   template scratch: rax, rcx, rdx, xmm0, xmm1
//   allocated (caller-saved): rsi, rdi, r8-r11 for i32/i64 values,
//     xmm2-xmm15 for f32/f64/v128 values
// rax always holds the effective address at a bounds check, so every
// out-of-line trap stub can pass it to the OOB helper unchanged. After any
// kCall/kCallIndirect/kMemoryGrow the templates reload r13/r15 from the
// helper's {base,size} return pair — exactly the points where memory can
// move or grow.
//
// Register allocation: each RegCode slot splits into webs (def-use live
// ranges, built on the optimizer's CFG and liveness). Linear scan over the
// webs' live intervals, weighted by loop depth, gives each web one location
// for the whole function — an allocated register or its home slot
// [rbx + 16*slot] — so branch joins need no moves. Templates for the hot ops
// (moves, constants, selects, integer and float arithmetic, compare-branches,
// loads and stores of every addressing form, f64/v128 lanes and the fused
// load+op / op+store forms) take each operand as a register or as its slot
// and emit the mod=11 or the memory form of the same opcode bytes.
//
// Integer div/rem has a register form too: dividend in rax, divisor in rcx,
// then the hardware div/idiv. A zero divisor and div_s(MIN, -1) branch to a
// trap stub before the divide (rem_s(x, -1) is 0 without one), so no input
// reaches a #DE fault.
//
// Every other op runs its frame template under one fallback rule: register
// operands it reads are stored to their home slots before it and a register
// result is reloaded after it; when the template calls a C++ helper on its
// normal path (min/max, trunc, atomics, mem.guard, memory.copy/fill, ...),
// every register web live across it is stored before and reloaded after as
// well. Webs live across a wasm call, call_indirect or memory.grow stay in
// their slots: the callee's frame starts at the argument slot. Trap-only
// paths (div/rem by zero or overflow, out-of-bounds and unaligned accesses)
// call their helper from a noreturn out-of-line stub, which raises the
// interpreter's trap and discards register values with the frame, so they
// need no saves; partial stores are already in linear memory, so trap points
// stay interpreter-exact.
//
// Functions containing any ROp without a template are not compiled at all
// (per-function fallback to the threaded interpreter); there is no slow
// path inside JIT code except the helper calls.
#pragma once

#include <memory>

#include "runtime/regcode.h"

namespace mpiwasm::rt {

/// True when `op` has an x86-64 template under `cpu_features` (see
/// jit_cpu_features()). Ops without templates force the whole containing
/// function back to the threaded interpreter.
bool jit_op_covered(ROp op, u32 cpu_features);

/// Compiles `f` to a position-independent native blob (features and layout
/// hash stamped for cache validation). Returns null when any instruction
/// lacks a template or the body fails the structural checks the emitter
/// relies on (same ones as threaded dispatch: terminator at the end, branch
/// targets in range).
std::shared_ptr<const JitBlob> jit_compile_function(const RFunc& f);

}  // namespace mpiwasm::rt
