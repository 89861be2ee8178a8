// JIT runtime support: CPU feature detection, the helper registry native
// code calls back into, and the trap/unwind activation machinery.
//
// Control-flow contract between native frames and C++:
//   - JIT frames carry no unwind info, so a C++ exception must NEVER
//     propagate through them. Every helper that can trap catches the
//     exception, parks it in a thread-local std::exception_ptr, and
//     longjmps to the innermost jit_enter(), which rethrows it on the C++
//     side. JIT frames hold no destructors, so the longjmp is safe.
//   - Native loads and stores carry no bounds check. An out-of-bounds one
//     faults in the linear memory's guard region (memory.h), and the
//     SIGSEGV handler resumes the thread at the access's out-of-line stub
//     (JitBlob::fault_sites), which raises the trap like any other helper.
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

/// Reads the MPIWASM_JIT environment variable once per process: "0",
/// "false", or "off" disable the JIT tier (kJit degrades to kOptimizing and
/// tiered promotion stops at the optimizing stage); anything else —
/// including unset — enables it.
bool jit_enabled_from_env();

/// The block of state a JIT entry receives in %rdi. The prologue loads the
/// fields into fixed callee-saved registers (offsets are part of
/// jit_layout_hash()):
///   inst -> r14, regs -> rbx, globals -> r12, mem_base -> r13,
///   mem_size -> r15.
struct JitEnv {
  Instance* inst;  // offset 0
  Slot* regs;      // offset 8
  Slot* globals;   // offset 16
  u8* mem_base;    // offset 24
  u64 mem_size;    // offset 32
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
/// C ABI; memory-state-returning helpers hand back {base,size} in rax:rdx
/// so templates can reload r13/r15 after any call or grow.
enum class JitHelperId : u32 {
  kTrapOob = 0,          // (addr, len, mem_size) noreturn
  kTrapUnreachable,      // () noreturn
  kCall,                 // (Instance*, fidx, Slot* argbase) -> {base,size}
  kCallIndirect,         // (Instance*, type_imm, Slot* argbase, argc) -> {base,size}
  kMemoryGrow,           // (Instance*, Slot* inout) -> {base,size}
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
  // Threads/atomics (v7). The pointer-taking rmw helpers receive the
  // already-bounds-and-alignment-checked host address; wait/notify go
  // through the Instance so they can reach the memory's parking table.
  kTrapUnalignedAtomic,  // (addr, len) noreturn
  kAtomicAnd8, kAtomicAnd16, kAtomicAnd32, kAtomicAnd64,    // (u8* p, u64 v) -> old
  kAtomicOr8, kAtomicOr16, kAtomicOr32, kAtomicOr64,        // (u8* p, u64 v) -> old
  kAtomicXor8, kAtomicXor16, kAtomicXor32, kAtomicXor64,    // (u8* p, u64 v) -> old
  kAtomicCmpxchg8, kAtomicCmpxchg16,                        // (u8* p, u64 expected,
  kAtomicCmpxchg32, kAtomicCmpxchg64,                       //  u64 repl) -> old
  kAtomicWait32,  // (Instance*, u64 addr, u32 expected, i64 timeout_ns) -> u32
  kAtomicWait64,  // (Instance*, u64 addr, u64 expected, i64 timeout_ns) -> u32
  kAtomicNotify,  // (Instance*, u64 addr, u32 count) -> u32
  kCount,
};

/// Address of helper `id`; aborts on out-of-range ids (corrupt blob).
const void* jit_helper_address(u32 id);

}  // namespace mpiwasm::rt
