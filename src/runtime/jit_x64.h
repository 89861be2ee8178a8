// Template (copy-and-patch style) x86-64 code generator for RegCode.
//
// Each ROp maps onto a fixed instruction template with patched register
// numbers, Slot-frame displacements, and immediates — the copy-and-patch
// idea applied at RegCode granularity, which works because RegCode is
// already register-based with fused indexed addressing, compare-branches
// and immediates.
//
// Register convention:
//   pinned (System V callee-saved, so helper calls never spill them):
//     rbx  Slot*  register frame        r13  u8*  linear-memory base
//     r12  Slot*  globals               r14  Instance*
//   template scratch: rax, rcx, rdx, xmm0, xmm1
//   allocated (caller-saved): rsi, rdi, r8-r11 for i32/i64 values,
//     xmm2-xmm15 for f32/f64/v128 values
//   r15 is not used.
// The base never moves (memory.h), so r13 is loaded once in the prologue;
// no memory size lives in a register. Loads, stores and the inline atomics
// (load, store, xchg, add/sub) have no bounds check. Each accesses
// [r13 + idx + disp32] with one instruction, listed in the blob's
// fault-site table (JitBlob::fault_sites). idx holds the u32 base
// zero-extended and disp32 is the access's offset when it is below 2^31,
// so the address stays below 2^32 + 2^31, inside the guard region
// (memory.h); a larger offset is added to rax first. idx is the base's own
// register when the allocator holds its web zero-extended: every def of
// the web writes the register with a 32-bit instruction (constants below
// 2^32, i32 arithmetic, compares and loads) and no def is a parameter, a
// move, a select, a reinterpret or a fallback result such as a call's;
// spills and fills move all 64 bits, so they keep the upper half clear.
// Any other base goes to eax by a 32-bit move, and the indexed forms
// compute u32(base + (idx << s)) in eax with a 32-bit lea (s <= 3) or
// shl + add, which wrap like the interpreter's u32 arithmetic. Inline
// atomics keep the whole address in rax for their alignment check.
// An out-of-bounds access faults in the memory's guard region, and the
// fault handler resumes at the site's out-of-line stub: a [r13 + rax]
// site at its width's shared stub, which passes r14 and rax to the OOB
// helper; any other site at a small stub (shared by sites with the same
// idx, disp and width) that rebuilds rax = zext(idx) + disp and jumps to
// the shared one. The faulting access wrote nothing, so idx is intact.
// The helper raises the trap with the interpreter's message and the
// memory's live size. x86 commits no part of a faulting store, so a store
// straddling the end of memory writes nothing, as in the interpreter.
// Inline atomics test alignment first; their stub runs
// LinearMemory::check_atomic, which reports out-of-bounds before
// misalignment. memory.size and the other atomics call helpers that ask
// the LinearMemory, so a page another thread's grow opened is seen at once.
//
// Register allocation: each RegCode slot splits into webs (def-use live
// ranges, built on the optimizer's CFG and liveness). Linear scan over the
// webs' live intervals, weighted by loop depth, gives each web one location
// for the whole function — an allocated register or its home slot
// [rbx + 16*slot] — so branch joins need no moves. Templates for the hot ops
// (moves, constants, selects, integer and float arithmetic, compare-branches,
// loads and stores of every addressing form and f64/v128 lanes) take each
// operand as a register or as its slot and emit the mod=11 or the memory
// form of the same opcode bytes. The inline atomics take register operands
// too.
//
// Integer div/rem has a register form too: dividend in rax, divisor in rcx,
// then the hardware div/idiv. A zero divisor and div_s(MIN, -1) branch to a
// trap stub before the divide (rem_s(x, -1) is 0 without one), so no input
// reaches a #DE fault.
//
// Every other op runs its frame template under one fallback rule: register
// operands it reads are stored to their home slots before it and a register
// result is reloaded after it; when the template calls a C++ helper on its
// normal path (min/max, trunc, wait/notify and the and/or/xor/cmpxchg
// atomics, memory.copy/fill, ...), every register web live across it is
// stored before and reloaded after as well.
// Webs live across a wasm call, call_indirect or memory.grow stay in their
// slots: the callee's frame starts at the argument slot. Trap-only paths
// (div/rem by zero or overflow, out-of-bounds and unaligned accesses) reach
// a noreturn out-of-line stub, by a branch or from the fault handler. Its
// helper raises the interpreter's trap and discards register values with
// the frame, so they need no saves; partial stores are already in linear
// memory, so trap points stay interpreter-exact.
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
