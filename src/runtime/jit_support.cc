#include "runtime/jit_support.h"

#include <cpuid.h>

#include <csetjmp>
#include <cstdlib>
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
constexpr u64 kJitCodegenVersion = 3;

/// One in-flight native activation per (possibly nested) jit_enter. The
/// jmp_buf is the landing pad trap helpers longjmp to; `prev` restores the
/// outer activation when a nested wasm->wasm JIT call returns.
struct JitActivation {
  std::jmp_buf jb;
  JitActivation* prev;
};

thread_local JitActivation* g_act = nullptr;
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

/// Pair returned in rax:rdx so templates can reload the memory base/size
/// registers after any operation that may have grown or re-entered memory.
struct JitMemPair {
  u8* base;
  u64 size;
};
static_assert(sizeof(JitMemPair) == 16);

JitMemPair mem_pair(Instance* inst) {
  LinearMemory& m = inst->memory();
  return {m.base(), m.byte_size()};
}

// --- Trap helpers (noreturn: park + unwind) --------------------------------

[[noreturn]] void h_trap_oob(u64 addr, u64 len, u64 size) {
  // Message must match LinearMemory::check byte-for-byte so trap points and
  // texts are indistinguishable across tiers.
  try {
    throw Trap(TrapKind::kMemoryOutOfBounds,
               "access at " + std::to_string(addr) + "+" + std::to_string(len) +
                   " exceeds memory size " + std::to_string(size));
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

// --- Call / memory-state helpers -------------------------------------------

JitMemPair h_call(Instance* inst, u32 fidx, Slot* argbase) {
  MW_JIT_GUARDED(inst->call_function(fidx, argbase));
  return mem_pair(inst);
}

JitMemPair h_call_indirect(Instance* inst, u32 type_imm, Slot* argbase,
                           u32 argc) {
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
  return mem_pair(inst);
}

JitMemPair h_memory_grow(Instance* inst, Slot* slot) {
  slot->i32v = inst->memory().grow(slot->u32v);
  return mem_pair(inst);
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

u32 h_mem_guard(u32 bval, u32 cval, u32 d, u64 imm, u64 mem_size) {
  // Mirrors the kMemGuard handler in exec_ops.inc exactly.
  const bool uns = (d >> 31) != 0;
  const u64 coef = d & 0x7FFFFFFFu;
  const u64 step = imm >> 48;
  const u64 kmax = imm & 0xFFFFFFFFFFFFull;
  bool ok;
  if (uns) {
    u32 iu = cval, nu = bval;
    ok = iu >= nu || coef * (u64(nu) - 1 + step) + kmax <= mem_size;
  } else {
    i32 iv = i32(cval), nv = i32(bval);
    ok = iv >= nv ||
         (iv >= 0 && u64(u32(nv - 1)) + step <= 0x7FFFFFFFull &&
          coef * (u64(u32(nv - 1)) + step) + kmax <= mem_size);
  }
  return ok ? 1u : 0u;
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

[[noreturn]] void h_trap_unaligned_atomic(u64 addr, u64 len) {
  // Message must match LinearMemory::check_atomic byte-for-byte.
  try {
    throw Trap(TrapKind::kUnalignedAtomic,
               "atomic access at " + std::to_string(addr) + " not aligned to " +
                   std::to_string(len) + " bytes");
  } catch (...) {
    g_pending = std::current_exception();
  }
  unwind_pending();
}

// The rmw pointer helpers receive a host address the template has already
// bounds- and alignment-checked, so the atomic_ref cast is well-formed.
template <typename T, typename F>
u64 atomic_rmw_ptr(u8* p, u64 v, F f) {
  return u64(f(std::atomic_ref<T>(*reinterpret_cast<T*>(p)), T(v)));
}

u64 h_atomic_and8(u8* p, u64 v) {
  return atomic_rmw_ptr<u8>(p, v, [](auto r, u8 x) {
    return r.fetch_and(x, std::memory_order_seq_cst);
  });
}
u64 h_atomic_and16(u8* p, u64 v) {
  return atomic_rmw_ptr<u16>(p, v, [](auto r, u16 x) {
    return r.fetch_and(x, std::memory_order_seq_cst);
  });
}
u64 h_atomic_and32(u8* p, u64 v) {
  return atomic_rmw_ptr<u32>(p, v, [](auto r, u32 x) {
    return r.fetch_and(x, std::memory_order_seq_cst);
  });
}
u64 h_atomic_and64(u8* p, u64 v) {
  return atomic_rmw_ptr<u64>(p, v, [](auto r, u64 x) {
    return r.fetch_and(x, std::memory_order_seq_cst);
  });
}
u64 h_atomic_or8(u8* p, u64 v) {
  return atomic_rmw_ptr<u8>(p, v, [](auto r, u8 x) {
    return r.fetch_or(x, std::memory_order_seq_cst);
  });
}
u64 h_atomic_or16(u8* p, u64 v) {
  return atomic_rmw_ptr<u16>(p, v, [](auto r, u16 x) {
    return r.fetch_or(x, std::memory_order_seq_cst);
  });
}
u64 h_atomic_or32(u8* p, u64 v) {
  return atomic_rmw_ptr<u32>(p, v, [](auto r, u32 x) {
    return r.fetch_or(x, std::memory_order_seq_cst);
  });
}
u64 h_atomic_or64(u8* p, u64 v) {
  return atomic_rmw_ptr<u64>(p, v, [](auto r, u64 x) {
    return r.fetch_or(x, std::memory_order_seq_cst);
  });
}
u64 h_atomic_xor8(u8* p, u64 v) {
  return atomic_rmw_ptr<u8>(p, v, [](auto r, u8 x) {
    return r.fetch_xor(x, std::memory_order_seq_cst);
  });
}
u64 h_atomic_xor16(u8* p, u64 v) {
  return atomic_rmw_ptr<u16>(p, v, [](auto r, u16 x) {
    return r.fetch_xor(x, std::memory_order_seq_cst);
  });
}
u64 h_atomic_xor32(u8* p, u64 v) {
  return atomic_rmw_ptr<u32>(p, v, [](auto r, u32 x) {
    return r.fetch_xor(x, std::memory_order_seq_cst);
  });
}
u64 h_atomic_xor64(u8* p, u64 v) {
  return atomic_rmw_ptr<u64>(p, v, [](auto r, u64 x) {
    return r.fetch_xor(x, std::memory_order_seq_cst);
  });
}

template <typename T>
u64 atomic_cmpxchg_ptr(u8* p, u64 expected, u64 repl) {
  T e = T(expected);
  std::atomic_ref<T>(*reinterpret_cast<T*>(p))
      .compare_exchange_strong(e, T(repl), std::memory_order_seq_cst);
  return u64(e);  // old value on success and failure alike
}

u64 h_atomic_cmpxchg8(u8* p, u64 e, u64 r) { return atomic_cmpxchg_ptr<u8>(p, e, r); }
u64 h_atomic_cmpxchg16(u8* p, u64 e, u64 r) { return atomic_cmpxchg_ptr<u16>(p, e, r); }
u64 h_atomic_cmpxchg32(u8* p, u64 e, u64 r) { return atomic_cmpxchg_ptr<u32>(p, e, r); }
u64 h_atomic_cmpxchg64(u8* p, u64 e, u64 r) { return atomic_cmpxchg_ptr<u64>(p, e, r); }

// wait/notify go through the Instance so LinearMemory can do its own
// checking (bounds + alignment trap inside the guarded region) and reach
// the parking table.
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
    reinterpret_cast<const void*>(&h_memory_grow),
    reinterpret_cast<const void*>(&h_memory_copy),
    reinterpret_cast<const void*>(&h_memory_fill),
    reinterpret_cast<const void*>(&h_mem_guard),
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
    reinterpret_cast<const void*>(&h_atomic_and8),
    reinterpret_cast<const void*>(&h_atomic_and16),
    reinterpret_cast<const void*>(&h_atomic_and32),
    reinterpret_cast<const void*>(&h_atomic_and64),
    reinterpret_cast<const void*>(&h_atomic_or8),
    reinterpret_cast<const void*>(&h_atomic_or16),
    reinterpret_cast<const void*>(&h_atomic_or32),
    reinterpret_cast<const void*>(&h_atomic_or64),
    reinterpret_cast<const void*>(&h_atomic_xor8),
    reinterpret_cast<const void*>(&h_atomic_xor16),
    reinterpret_cast<const void*>(&h_atomic_xor32),
    reinterpret_cast<const void*>(&h_atomic_xor64),
    reinterpret_cast<const void*>(&h_atomic_cmpxchg8),
    reinterpret_cast<const void*>(&h_atomic_cmpxchg16),
    reinterpret_cast<const void*>(&h_atomic_cmpxchg32),
    reinterpret_cast<const void*>(&h_atomic_cmpxchg64),
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
  mix(offsetof(JitEnv, mem_size));
  mix(u64(JitHelperId::kCount));
  return h;
}

bool jit_enabled_from_env() {
  static const bool enabled = [] {
    const char* v = std::getenv("MPIWASM_JIT");
    if (v == nullptr) return true;
    std::string s(v);
    return !(s == "0" || s == "false" || s == "off");
  }();
  return enabled;
}

const void* jit_helper_address(u32 id) {
  MW_CHECK(id < u32(JitHelperId::kCount), "jit helper id out of range");
  return g_helper_table[id];
}

// Arena code carries no function-type signature in front of its entry, which
// clang's -fsanitize=function check reads at every indirect call.
#if defined(__clang__)
__attribute__((no_sanitize("function")))
#endif
void jit_enter(JitEntryFn fn, Instance& inst, Slot* regs) {
  JitEnv env;
  env.inst = &inst;
  env.regs = regs;
  env.globals = inst.globals();
  LinearMemory& m = inst.memory();
  env.mem_base = m.base();
  env.mem_size = m.byte_size();

  JitActivation act;
  act.prev = g_act;
  g_act = &act;
  if (setjmp(act.jb) == 0) {
    fn(&env);
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
