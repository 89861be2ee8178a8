// JIT runtime support: CPU feature detection, the helper registry native
// code calls back into, and the trap/unwind activation machinery.
//
// Control-flow contract between native frames and C++:
//   - JIT frames carry no unwind info, so a C++ exception must NEVER
//     propagate through them. Every helper that can trap catches the
//     exception, parks it in a thread-local std::exception_ptr, and
//     longjmps to the innermost jit_enter(), which rethrows it on the C++
//     side. JIT frames hold no destructors, so the longjmp is safe.
//   - Native loads, stores and inline atomics carry no bounds check. An
//     out-of-bounds one faults in the linear memory's guard region
//     (memory.h), and the SIGSEGV handler resumes the thread at the
//     access's out-of-line stub (JitBlob::fault_sites), which raises the
//     trap like any other helper.
//   - Helper addresses are process-specific (ASLR + rebuilds), so blobs
//     reference helpers by JitHelperId; JitArena::install patches the
//     movabs sites recorded in JitBlob::relocs.
#pragma once

#include "runtime/regcode.h"
#include "runtime/value.h"

namespace mpiwasm::rt {

class Instance;

/// CPU feature word recorded in every JitBlob. A blob is only runnable when
/// its recorded word is a subset of the host's jit_cpu_features().
enum JitCpuFeature : u32 {
  kJitFeatSse3 = 1u << 0,
  kJitFeatSsse3 = 1u << 1,
  kJitFeatSse41 = 1u << 2,
  kJitFeatSse42 = 1u << 3,
  kJitFeatPopcnt = 1u << 4,
  kJitFeatLzcnt = 1u << 5,
  kJitFeatBmi1 = 1u << 6,
};

/// Detects the host's feature word once per process (cpuid).
u32 jit_cpu_features();

/// Hash pinning everything the templates hard-code about this build: the
/// codegen version, the ROp numbering, sizeof(Slot), the JitEnv field
/// offsets, and the helper-table layout. Any change invalidates every
/// cached native blob (clean rejection, threaded fallback).
u64 jit_layout_hash();

/// The block of state a JIT entry receives in %rdi. The prologue loads the
/// fields into fixed callee-saved registers (offsets are part of
/// jit_layout_hash()):
///   inst -> r14, regs -> rbx, globals -> r12, mem_base -> r13.
/// The base never moves (memory.h), so r13 holds for the activation's
/// lifetime; no size lives in a register: native loads and stores rely on
/// the guard region, and everything else asks the LinearMemory.
struct JitEnv {
  Instance* inst;  // offset 0
  Slot* regs;      // offset 8
  Slot* globals;   // offset 16
  u8* mem_base;    // offset 24
};

/// Runs `f`'s native entry under a fresh trap activation: builds the
/// JitEnv, setjmps, calls the native code, and rethrows any parked
/// exception after the native frames have been discarded by longjmp.
/// Nested (wasm->wasm) JIT calls stack activations. The memory must be
/// guarded (LinearMemory::guarded()).
void jit_enter(const RFunc& f, Instance& inst, Slot* regs);

/// Installs the process-wide SIGSEGV handler that turns a fault at a fault
/// site of the running native body into that site's out-of-bounds trap;
/// every other fault goes to the disposition it replaced (the default, or
/// a sanitizer's). Idempotent and thread-safe.
void install_guard_fault_handler();

/// Helpers callable from JIT code, identified by stable ordinal (the
/// ordinal order is part of jit_layout_hash()). Arguments follow the SysV
/// C ABI. Every helper that touches memory takes the Instance* and checks
/// the access against the memory's live size itself, so a page another
/// thread's grow opened is visible at once.
enum class JitHelperId : u32 {
  kTrapOob = 0,          // (Instance*, addr, len) noreturn
  kTrapUnreachable,      // () noreturn
  kCall,                 // (Instance*, fidx, Slot* argbase)
  kCallIndirect,         // (Instance*, type_imm, Slot* argbase, argc)
  kMemorySize,           // (Instance*) -> pages
  kMemoryGrow,           // (Instance*, Slot* inout)
  kMemoryCopy,           // (Instance*, d, s, n)
  kMemoryFill,           // (Instance*, d, val, n)
  kI32DivS, kI32DivU, kI32RemS, kI32RemU,
  kI64DivS, kI64DivU, kI64RemS, kI64RemU,
  kI32Clz, kI32Ctz, kI32Popcnt, kI64Clz, kI64Ctz, kI64Popcnt,
  kF32Min, kF32Max, kF64Min, kF64Max,
  kF32Nearest, kF64Nearest,
  kF32Ceil, kF32Floor, kF32Trunc, kF64Ceil, kF64Floor, kF64Trunc,
  kI32TruncF32S, kI32TruncF32U, kI32TruncF64S, kI32TruncF64U,
  kI64TruncF32S, kI64TruncF32U, kI64TruncF64S, kI64TruncF64U,
  kF32ConvertI64U, kF64ConvertI64U,
  // Threads/atomics. Inline atomics test alignment and fault in the guard
  // region like plain accesses; their unaligned stub runs check_atomic, so
  // an access both unaligned and out of bounds reports out-of-bounds. The
  // rest run LinearMemory's own checked members.
  kTrapUnalignedAtomic,  // (Instance*, addr, len) noreturn
  kAtomicAnd8, kAtomicAnd16, kAtomicAnd32, kAtomicAnd64,  // (Instance*,
  kAtomicOr8, kAtomicOr16, kAtomicOr32, kAtomicOr64,      //  addr, v)
  kAtomicXor8, kAtomicXor16, kAtomicXor32, kAtomicXor64,  //  -> old
  kAtomicCmpxchg8, kAtomicCmpxchg16,  // (Instance*, addr, expected, repl)
  kAtomicCmpxchg32, kAtomicCmpxchg64,  //  -> old
  kAtomicWait32,  // (Instance*, u64 addr, u32 expected, i64 timeout_ns) -> u32
  kAtomicWait64,  // (Instance*, u64 addr, u64 expected, i64 timeout_ns) -> u32
  kAtomicNotify,  // (Instance*, u64 addr, u32 count) -> u32
  kCount,
};

/// Address of helper `id`; aborts on out-of-range ids (corrupt blob).
const void* jit_helper_address(u32 id);

}  // namespace mpiwasm::rt
