// RegCode dispatch-loop executor of the optimizing tier, and of kJit
// functions that fall back from native code.
//
// Two dispatch strategies over the same handler bodies (exec_ops.inc):
//   - direct threading: computed-goto, one indirect jump per instruction,
//     with handler addresses resolved once per RFunc at publication time
//     (prepare_rfunc) instead of per dispatch. The default.
//   - portable switch loop: used when a body has no resolved handlers
//     (prepare_rfunc's structural check failed) or when forced via
//     set_dispatch_force_switch(); the reference the threaded loop is
//     benchmarked and differentially tested against.
#pragma once

#include "runtime/regcode.h"
#include "runtime/value.h"

// The threaded executor needs the GNU labels-as-values extension; GCC and
// Clang, the supported compilers, both provide it.
#if !defined(__GNUC__) && !defined(__clang__)
#error "the regcode executor requires labels-as-values (GCC or Clang)"
#endif

namespace mpiwasm::rt {

class Instance;

/// Executes `f` with the register frame `regs` (num_regs slots; locals
/// pre-initialized, params placed by the caller). On return, the function
/// result (if any) is in regs[0].
void exec_regcode(Instance& inst, const RFunc& f, Slot* regs);

/// Resolves `f.handlers` (per-instruction direct-threading addresses).
/// Called once per function at publication time — engine compile() for the
/// static tiers, tier_up() for tiered promotions. Leaves `handlers` empty
/// (switch fallback) if the code fails the structural sanity checks the
/// goto loop relies on (terminator at the end, all branch targets in
/// range).
void prepare_rfunc(RFunc& f);

/// Bench/test hook: route every exec_regcode call through the portable
/// switch loop even when threaded handlers are resolved. Global, sticky.
void set_dispatch_force_switch(bool on);

}  // namespace mpiwasm::rt
