#include "runtime/jit_support.h"

#include <cpuid.h>
#include <signal.h>
#include <ucontext.h>

#include <csetjmp>
#include <cstring>
#include <exception>
#include <string>

#include "runtime/arith.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "runtime/memory.h"

namespace mpiwasm::rt {

namespace {

// Bump when any template's encoding or register assignment changes in a way
// that would make a previously cached blob wrong (not just stale).
constexpr u64 kJitCodegenVersion = 6;

/// One in-flight native activation per (possibly nested) jit_enter. The
/// jmp_buf is the landing pad trap helpers longjmp to; `prev` restores the
/// outer activation when a nested wasm->wasm JIT call returns. Native code
/// calls other functions only through C++ helpers, which enter a new
/// activation, so the native code running on a thread is always the body
/// its innermost activation entered: `code`, with its fault sites in
/// `blob`.
struct JitActivation {
  std::jmp_buf jb;
  JitActivation* prev;
  const u8* code;
  const JitBlob* blob;
};

// The fault handler reads g_act; initial-exec TLS is a plain load there.
[[gnu::tls_model("initial-exec")]] thread_local JitActivation* g_act =
    nullptr;
thread_local std::exception_ptr g_pending;

/// Discards the native frames between the failing helper and the innermost
/// jit_enter. Only reached with g_pending set.
[[noreturn]] void unwind_pending() { std::longjmp(g_act->jb, 1); }

// Parks the exception from `expr` and unwinds instead of letting it
// propagate through native frames (which carry no unwind tables).
#define MW_JIT_GUARDED(expr)                  \
  bool trapped = false;                       \
  try {                                       \
    expr;                                     \
  } catch (...) {                             \
    g_pending = std::current_exception();     \
    trapped = true;                           \
  }                                           \
  if (trapped) unwind_pending();

// --- Trap helpers (noreturn: park + unwind) --------------------------------

[[noreturn]] void h_trap_oob(Instance* inst, u64 addr, u64 len) {
  // Message must match LinearMemory::check byte-for-byte so trap points and
  // texts are indistinguishable across tiers; the size is the live one. It
  // is built here, not by check(): another thread's grow may have opened
  // the page since the access faulted, and the access still traps.
  try {
    throw Trap(TrapKind::kMemoryOutOfBounds,
               "access at " + std::to_string(addr) + "+" + std::to_string(len) +
                   " exceeds memory size " +
                   std::to_string(inst->memory().byte_size()));
  } catch (...) {
    g_pending = std::current_exception();
  }
  unwind_pending();
}

[[noreturn]] void h_trap_unreachable() {
  try {
    throw Trap(TrapKind::kUnreachable, "unreachable executed");
  } catch (...) {
    g_pending = std::current_exception();
  }
  unwind_pending();
}

// --- Call / memory helpers -------------------------------------------------

void h_call(Instance* inst, u32 fidx, Slot* argbase) {
  MW_JIT_GUARDED(inst->call_function(fidx, argbase));
}

void h_call_indirect(Instance* inst, u32 type_imm, Slot* argbase, u32 argc) {
  MW_JIT_GUARDED({
    u32 idx = argbase[argc].u32v;
    const auto& tbl = inst->table();
    if (idx >= tbl.size() || tbl[idx] == UINT32_MAX)
      throw Trap(TrapKind::kUndefinedTableElement,
                 "table index " + std::to_string(idx));
    u32 fidx = tbl[idx];
    const CompiledModule& cm = inst->compiled();
    if (cm.func_canon[fidx] != cm.canon_type_ids[type_imm])
      throw Trap(TrapKind::kIndirectCallTypeMismatch,
                 "signature mismatch at table index " + std::to_string(idx));
    inst->call_function(fidx, argbase);
  });
}

u32 h_memory_size(Instance* inst) { return inst->memory().pages(); }

void h_memory_grow(Instance* inst, Slot* slot) {
  slot->i32v = inst->memory().grow(slot->u32v);
}

void h_memory_copy(Instance* inst, u32 d, u32 s, u32 n) {
  MW_JIT_GUARDED({
    LinearMemory& mem = inst->memory();
    mem.check(d, n);
    mem.check(s, n);
    std::memmove(mem.base() + d, mem.base() + s, size_t(n));
  });
}

void h_memory_fill(Instance* inst, u32 d, u32 val, u32 n) {
  MW_JIT_GUARDED({
    LinearMemory& mem = inst->memory();
    mem.check(d, n);
    std::memset(mem.base() + d, int(val & 0xFF), size_t(n));
  });
}

// --- Trapping arithmetic -----------------------------------------------------

i32 h_i32_div_s(i32 a, i32 b) {
  i32 r = 0;
  MW_JIT_GUARDED(r = arith::i32_div_s(a, b));
  return r;
}
u32 h_i32_div_u(u32 a, u32 b) {
  u32 r = 0;
  MW_JIT_GUARDED(r = arith::i32_div_u(a, b));
  return r;
}
i32 h_i32_rem_s(i32 a, i32 b) {
  i32 r = 0;
  MW_JIT_GUARDED(r = arith::i32_rem_s(a, b));
  return r;
}
u32 h_i32_rem_u(u32 a, u32 b) {
  u32 r = 0;
  MW_JIT_GUARDED(r = arith::i32_rem_u(a, b));
  return r;
}
i64 h_i64_div_s(i64 a, i64 b) {
  i64 r = 0;
  MW_JIT_GUARDED(r = arith::i64_div_s(a, b));
  return r;
}
u64 h_i64_div_u(u64 a, u64 b) {
  u64 r = 0;
  MW_JIT_GUARDED(r = arith::i64_div_u(a, b));
  return r;
}
i64 h_i64_rem_s(i64 a, i64 b) {
  i64 r = 0;
  MW_JIT_GUARDED(r = arith::i64_rem_s(a, b));
  return r;
}
u64 h_i64_rem_u(u64 a, u64 b) {
  u64 r = 0;
  MW_JIT_GUARDED(r = arith::i64_rem_u(a, b));
  return r;
}

// --- Bit counting (used when lzcnt/tzcnt/popcnt are unavailable) -------------

u32 h_i32_clz(u32 x) { return u32(std::countl_zero(x)); }
u32 h_i32_ctz(u32 x) { return u32(std::countr_zero(x)); }
u32 h_i32_popcnt(u32 x) { return u32(std::popcount(x)); }
u64 h_i64_clz(u64 x) { return u64(std::countl_zero(x)); }
u64 h_i64_ctz(u64 x) { return u64(std::countr_zero(x)); }
u64 h_i64_popcnt(u64 x) { return u64(std::popcount(x)); }

// --- Float semantics helpers --------------------------------------------------

f32 h_f32_min(f32 a, f32 b) { return arith::fmin_wasm(a, b); }
f32 h_f32_max(f32 a, f32 b) { return arith::fmax_wasm(a, b); }
f64 h_f64_min(f64 a, f64 b) { return arith::fmin_wasm(a, b); }
f64 h_f64_max(f64 a, f64 b) { return arith::fmax_wasm(a, b); }
f32 h_f32_nearest(f32 x) { return arith::fnearest(x); }
f64 h_f64_nearest(f64 x) { return arith::fnearest(x); }
f32 h_f32_ceil(f32 x) { return std::ceil(x); }
f32 h_f32_floor(f32 x) { return std::floor(x); }
f32 h_f32_trunc(f32 x) { return std::trunc(x); }
f64 h_f64_ceil(f64 x) { return std::ceil(x); }
f64 h_f64_floor(f64 x) { return std::floor(x); }
f64 h_f64_trunc(f64 x) { return std::trunc(x); }

// --- Checked truncation -------------------------------------------------------

i32 h_i32_trunc_f32_s(f32 x) {
  i32 r = 0;
  MW_JIT_GUARDED(r = arith::trunc_checked<i32>(x, "i32.trunc_f32_s"));
  return r;
}
u32 h_i32_trunc_f32_u(f32 x) {
  u32 r = 0;
  MW_JIT_GUARDED(r = arith::trunc_checked<u32>(x, "i32.trunc_f32_u"));
  return r;
}
i32 h_i32_trunc_f64_s(f64 x) {
  i32 r = 0;
  MW_JIT_GUARDED(r = arith::trunc_checked<i32>(x, "i32.trunc_f64_s"));
  return r;
}
u32 h_i32_trunc_f64_u(f64 x) {
  u32 r = 0;
  MW_JIT_GUARDED(r = arith::trunc_checked<u32>(x, "i32.trunc_f64_u"));
  return r;
}
i64 h_i64_trunc_f32_s(f32 x) {
  i64 r = 0;
  MW_JIT_GUARDED(r = arith::trunc_checked<i64>(x, "i64.trunc_f32_s"));
  return r;
}
u64 h_i64_trunc_f32_u(f32 x) {
  u64 r = 0;
  MW_JIT_GUARDED(r = arith::trunc_checked<u64>(x, "i64.trunc_f32_u"));
  return r;
}
i64 h_i64_trunc_f64_s(f64 x) {
  i64 r = 0;
  MW_JIT_GUARDED(r = arith::trunc_checked<i64>(x, "i64.trunc_f64_s"));
  return r;
}
u64 h_i64_trunc_f64_u(f64 x) {
  u64 r = 0;
  MW_JIT_GUARDED(r = arith::trunc_checked<u64>(x, "i64.trunc_f64_u"));
  return r;
}

f32 h_f32_convert_i64_u(u64 x) { return f32(x); }
f64 h_f64_convert_i64_u(u64 x) { return f64(x); }

// --- Threads/atomics ----------------------------------------------------------

[[noreturn]] void h_trap_unaligned_atomic(Instance* inst, u64 addr, u64 len) {
  // Reached only for an unaligned address. check_atomic tests bounds first,
  // so an access that is also out of bounds traps as one, as in the
  // interpreter.
  MW_JIT_GUARDED(inst->memory().check_atomic(addr, len));
  fatal("jit: unaligned-atomic stub reached by an aligned access");
}

// The and/or/xor/cmpxchg helpers run LinearMemory's checked members.
template <typename T, T (LinearMemory::*Rmw)(u64, T)>
u64 h_atomic_rmw(Instance* inst, u64 addr, u64 v) {
  u64 r = 0;
  MW_JIT_GUARDED(r = u64((inst->memory().*Rmw)(addr, T(v))));
  return r;
}

template <typename T>
u64 h_atomic_cmpxchg(Instance* inst, u64 addr, u64 expected, u64 repl) {
  u64 r = 0;
  LinearMemory& m = inst->memory();
  MW_JIT_GUARDED(r = u64(m.atomic_rmw_cmpxchg<T>(addr, T(expected), T(repl))));
  return r;
}

// wait/notify also reach the memory's parking table.
u32 h_atomic_wait32(Instance* inst, u64 addr, u32 expected, i64 timeout_ns) {
  u32 r = 0;
  MW_JIT_GUARDED(r = inst->memory().atomic_wait32(addr, expected, timeout_ns));
  return r;
}
u32 h_atomic_wait64(Instance* inst, u64 addr, u64 expected, i64 timeout_ns) {
  u32 r = 0;
  MW_JIT_GUARDED(r = inst->memory().atomic_wait64(addr, expected, timeout_ns));
  return r;
}
u32 h_atomic_notify(Instance* inst, u64 addr, u32 count) {
  u32 r = 0;
  MW_JIT_GUARDED(r = inst->memory().atomic_notify(addr, count));
  return r;
}

#undef MW_JIT_GUARDED

// Table order must match JitHelperId (checked by the kCount sentinel).
const void* const g_helper_table[u32(JitHelperId::kCount)] = {
    reinterpret_cast<const void*>(&h_trap_oob),
    reinterpret_cast<const void*>(&h_trap_unreachable),
    reinterpret_cast<const void*>(&h_call),
    reinterpret_cast<const void*>(&h_call_indirect),
    reinterpret_cast<const void*>(&h_memory_size),
    reinterpret_cast<const void*>(&h_memory_grow),
    reinterpret_cast<const void*>(&h_memory_copy),
    reinterpret_cast<const void*>(&h_memory_fill),
    reinterpret_cast<const void*>(&h_i32_div_s),
    reinterpret_cast<const void*>(&h_i32_div_u),
    reinterpret_cast<const void*>(&h_i32_rem_s),
    reinterpret_cast<const void*>(&h_i32_rem_u),
    reinterpret_cast<const void*>(&h_i64_div_s),
    reinterpret_cast<const void*>(&h_i64_div_u),
    reinterpret_cast<const void*>(&h_i64_rem_s),
    reinterpret_cast<const void*>(&h_i64_rem_u),
    reinterpret_cast<const void*>(&h_i32_clz),
    reinterpret_cast<const void*>(&h_i32_ctz),
    reinterpret_cast<const void*>(&h_i32_popcnt),
    reinterpret_cast<const void*>(&h_i64_clz),
    reinterpret_cast<const void*>(&h_i64_ctz),
    reinterpret_cast<const void*>(&h_i64_popcnt),
    reinterpret_cast<const void*>(&h_f32_min),
    reinterpret_cast<const void*>(&h_f32_max),
    reinterpret_cast<const void*>(&h_f64_min),
    reinterpret_cast<const void*>(&h_f64_max),
    reinterpret_cast<const void*>(&h_f32_nearest),
    reinterpret_cast<const void*>(&h_f64_nearest),
    reinterpret_cast<const void*>(&h_f32_ceil),
    reinterpret_cast<const void*>(&h_f32_floor),
    reinterpret_cast<const void*>(&h_f32_trunc),
    reinterpret_cast<const void*>(&h_f64_ceil),
    reinterpret_cast<const void*>(&h_f64_floor),
    reinterpret_cast<const void*>(&h_f64_trunc),
    reinterpret_cast<const void*>(&h_i32_trunc_f32_s),
    reinterpret_cast<const void*>(&h_i32_trunc_f32_u),
    reinterpret_cast<const void*>(&h_i32_trunc_f64_s),
    reinterpret_cast<const void*>(&h_i32_trunc_f64_u),
    reinterpret_cast<const void*>(&h_i64_trunc_f32_s),
    reinterpret_cast<const void*>(&h_i64_trunc_f32_u),
    reinterpret_cast<const void*>(&h_i64_trunc_f64_s),
    reinterpret_cast<const void*>(&h_i64_trunc_f64_u),
    reinterpret_cast<const void*>(&h_f32_convert_i64_u),
    reinterpret_cast<const void*>(&h_f64_convert_i64_u),
    reinterpret_cast<const void*>(&h_trap_unaligned_atomic),
    reinterpret_cast<const void*>(
        &h_atomic_rmw<u8, &LinearMemory::atomic_rmw_and<u8>>),
    reinterpret_cast<const void*>(
        &h_atomic_rmw<u16, &LinearMemory::atomic_rmw_and<u16>>),
    reinterpret_cast<const void*>(
        &h_atomic_rmw<u32, &LinearMemory::atomic_rmw_and<u32>>),
    reinterpret_cast<const void*>(
        &h_atomic_rmw<u64, &LinearMemory::atomic_rmw_and<u64>>),
    reinterpret_cast<const void*>(
        &h_atomic_rmw<u8, &LinearMemory::atomic_rmw_or<u8>>),
    reinterpret_cast<const void*>(
        &h_atomic_rmw<u16, &LinearMemory::atomic_rmw_or<u16>>),
    reinterpret_cast<const void*>(
        &h_atomic_rmw<u32, &LinearMemory::atomic_rmw_or<u32>>),
    reinterpret_cast<const void*>(
        &h_atomic_rmw<u64, &LinearMemory::atomic_rmw_or<u64>>),
    reinterpret_cast<const void*>(
        &h_atomic_rmw<u8, &LinearMemory::atomic_rmw_xor<u8>>),
    reinterpret_cast<const void*>(
        &h_atomic_rmw<u16, &LinearMemory::atomic_rmw_xor<u16>>),
    reinterpret_cast<const void*>(
        &h_atomic_rmw<u32, &LinearMemory::atomic_rmw_xor<u32>>),
    reinterpret_cast<const void*>(
        &h_atomic_rmw<u64, &LinearMemory::atomic_rmw_xor<u64>>),
    reinterpret_cast<const void*>(&h_atomic_cmpxchg<u8>),
    reinterpret_cast<const void*>(&h_atomic_cmpxchg<u16>),
    reinterpret_cast<const void*>(&h_atomic_cmpxchg<u32>),
    reinterpret_cast<const void*>(&h_atomic_cmpxchg<u64>),
    reinterpret_cast<const void*>(&h_atomic_wait32),
    reinterpret_cast<const void*>(&h_atomic_wait64),
    reinterpret_cast<const void*>(&h_atomic_notify),
};

}  // namespace

u32 jit_cpu_features() {
  static const u32 feats = [] {
    u32 w = 0;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
      if (ecx & (1u << 0)) w |= kJitFeatSse3;
      if (ecx & (1u << 9)) w |= kJitFeatSsse3;
      if (ecx & (1u << 19)) w |= kJitFeatSse41;
      if (ecx & (1u << 20)) w |= kJitFeatSse42;
      if (ecx & (1u << 23)) w |= kJitFeatPopcnt;
    }
    if (__get_cpuid(0x80000001, &eax, &ebx, &ecx, &edx)) {
      if (ecx & (1u << 5)) w |= kJitFeatLzcnt;
    }
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
      if (ebx & (1u << 3)) w |= kJitFeatBmi1;
    }
    return w;
  }();
  return feats;
}

u64 jit_layout_hash() {
  // FNV-1a over the layout constants the templates bake in.
  u64 h = 1469598103934665603ull;
  auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  mix(kJitCodegenVersion);
  mix(u64(ROp::kCount));
  mix(sizeof(Slot));
  mix(offsetof(JitEnv, inst));
  mix(offsetof(JitEnv, regs));
  mix(offsetof(JitEnv, globals));
  mix(offsetof(JitEnv, mem_base));
  mix(u64(JitHelperId::kCount));
  return h;
}

const void* jit_helper_address(u32 id) {
  MW_CHECK(id < u32(JitHelperId::kCount), "jit helper id out of range");
  return g_helper_table[id];
}

namespace {

struct sigaction g_prev_segv;

/// Stub offset for a fault at blob.code[pc], or 0 when pc is not one of its
/// fault sites: a binary search of the table (JitBlob::fault_sites).
u32 fault_stub(const JitBlob& blob, uintptr_t pc) {
  const u8* table = blob.code.data() + blob.fault_table();
  u32 lo = 0, hi = blob.fault_sites;
  while (lo < hi) {
    const u32 mid = lo + (hi - lo) / 2;
    u32 site[2];  // pc, stub
    std::memcpy(site, table + size_t(mid) * 8, 8);
    if (site[0] == pc) return site[1];
    if (site[0] < pc)
      lo = mid + 1;
    else
      hi = mid;
  }
  return 0;
}

/// SIGSEGV handler. Async-signal-safe: it reads only the faulting thread's
/// activation and the blob that activation points at, both alive while the
/// native code runs. A fault at one of that body's fault sites is a guest
/// access in the guard region: the handler resumes the thread at the
/// site's out-of-line stub, which raises the out-of-bounds trap through the
/// usual park-and-longjmp once the handler has returned. Any other fault
/// goes to the disposition this handler replaced.
void on_guard_fault(int sig, siginfo_t* info, void* uctx) {
  greg_t& rip = static_cast<ucontext_t*>(uctx)->uc_mcontext.gregs[REG_RIP];
  if (const JitActivation* a = g_act) {
    const uintptr_t off = uintptr_t(rip) - uintptr_t(a->code);
    if (off < a->blob->fault_table()) {
      if (const u32 stub = fault_stub(*a->blob, off); stub != 0) {
        rip = greg_t(uintptr_t(a->code) + stub);
        return;
      }
    }
  }
  if (g_prev_segv.sa_flags & SA_SIGINFO) {
    g_prev_segv.sa_sigaction(sig, info, uctx);
  } else if (g_prev_segv.sa_handler != SIG_DFL &&
             g_prev_segv.sa_handler != SIG_IGN) {
    g_prev_segv.sa_handler(sig);
  } else {
    // Default action: the signal, pending until this handler returns, ends
    // the process as if the handler had never been installed.
    struct sigaction dfl {};
    dfl.sa_handler = SIG_DFL;
    sigaction(SIGSEGV, &dfl, nullptr);
    raise(sig);
  }
}

}  // namespace

void install_guard_fault_handler() {
  static const bool installed = [] {
    struct sigaction sa {};
    sa.sa_sigaction = &on_guard_fault;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    return sigaction(SIGSEGV, &sa, &g_prev_segv) == 0;
  }();
  MW_CHECK(installed, "cannot install the linear-memory fault handler");
}

// Arena code carries no function-type signature in front of its entry, which
// clang's -fsanitize=function check reads at every indirect call.
#if defined(__clang__)
__attribute__((no_sanitize("function")))
#endif
void jit_enter(const RFunc& f, Instance& inst, Slot* regs) {
  JitEnv env;
  env.inst = &inst;
  env.regs = regs;
  env.globals = inst.globals();
  env.mem_base = inst.memory().base();

  JitActivation act;
  act.prev = g_act;
  act.code = reinterpret_cast<const u8*>(f.jit_entry);
  act.blob = f.jit.get();
  g_act = &act;
  if (setjmp(act.jb) == 0) {
    f.jit_entry(&env);
    g_act = act.prev;
    return;
  }
  // A helper parked an exception and longjmp'ed past the native frames;
  // resume C++ unwinding from here.
  g_act = act.prev;
  std::exception_ptr p = std::move(g_pending);
  g_pending = nullptr;
  std::rethrow_exception(p);
}

}  // namespace mpiwasm::rt
