// RegCode dispatch-loop executor of the optimizing tier, and of kJit
// functions that fall back from native code.
//
// Direct threading: computed goto, one indirect jump per instruction, with
// handler addresses resolved once per RFunc at publication time
// (prepare_rfunc) instead of per dispatch. The loop has no pc bound, so it
// runs only bodies that pass rfunc_well_formed() (regcode.h).
#pragma once

#include "runtime/regcode.h"
#include "runtime/value.h"

// The executor needs the GNU labels-as-values extension; GCC and Clang, the
// supported compilers, both provide it.
#if !defined(__GNUC__) && !defined(__clang__)
#error "the regcode executor requires labels-as-values (GCC or Clang)"
#endif

namespace mpiwasm::rt {

class Instance;

/// Executes `f` with the register frame `regs` (num_regs slots; locals
/// pre-initialized, params placed by the caller). On return, the function
/// result (if any) is in regs[0]. `f` has been through prepare_rfunc().
void exec_regcode(Instance& inst, const RFunc& f, Slot* regs);

/// Resolves `f.handlers` (per-instruction direct-threading addresses).
/// Called once per function at publication time — by a cache-on compile()
/// for every function, and by materialize() for a function built on its
/// first call. `f` must pass rfunc_well_formed(): lowering and the optimizer
/// always produce such bodies, and the cache rejects records that do not.
void prepare_rfunc(RFunc& f);

}  // namespace mpiwasm::rt
