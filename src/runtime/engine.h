// Compilation engine: turns Wasm binaries into executable CompiledModules.
//
// Three tiers, one per point of the paper's compiler-backend
// trade-off (Table 1):
//   kInterp     — predecode + stack-machine execution (instant startup;
//                 the Singlepass point, and the differential reference)
//   kOptimizing — stack->register lowering plus a fixpoint pass pipeline
//                 with compare/branch, immediate, and mul-add fusion, run
//                 on the threaded interpreter (the Cranelift point)
//   kJit        — the optimizing pipeline's RegCode compiled to native
//                 x86-64 (the LLVM point: slowest compile, fastest run;
//                 the default)
//
// compile() decodes and validates every body at every tier, so it reports
// the same errors whichever tier runs. At the compiled tiers it then builds
// no function: each one is lowered, optimized and (at kJit) JITted on its
// first call, through its FuncUnit. Most functions of a large module are
// never called, and the few an HPC kernel calls are built once per process
// and shared by every rank thread.
//
// A FileSystemCache keyed by a SHA-256 module digest (paper §3.3 uses
// BLAKE-3) lets repeated executions skip recompilation. With the cache on,
// a miss compiles every function up front, spread over the host's CPUs and
// installed in function-index order on the calling thread (so the stored
// entry does not depend on scheduling), because the entry must hold them
// all. A hit maps the module's entry and builds no function: each one is
// decoded from its record, prepared and installed on its first call.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "runtime/cache.h"
#include "runtime/interp.h"
#include "runtime/jit_arena.h"
#include "runtime/regcode.h"
#include "runtime/value.h"
#include "support/sha256.h"
#include "wasm/module.h"

namespace mpiwasm::rt {

enum class EngineTier : u8 {
  kInterp = 0,
  kOptimizing = 1,
  // Native x86-64 template codegen on top of the full optimizing pipeline
  // (jit_x64.h). Functions whose RegCode contains an op without a template
  // fall back to the threaded interpreter, so kJit is never worse than
  // kOptimizing.
  kJit = 2,
};

const char* tier_name(EngineTier tier);

struct EngineConfig {
  EngineTier tier = EngineTier::kJit;
  bool enable_cache = false;
  std::string cache_dir;  // empty -> "<tmp>/mpiwasm-cache"
  /// Master switch for native codegen. Off: EngineTier::kJit degrades to
  /// kOptimizing, which EngineTier::kOptimizing already selects directly.
  bool jit = true;
};

/// Raised when a module fails to decode or validate.
class CompileError : public std::runtime_error {
 public:
  explicit CompileError(const std::string& what) : std::runtime_error(what) {}
};

/// How a call enters one defined function of a compiled-tier module.
/// `active` stays null until the function is built: on its first call, or
/// by a cache-on compile, which builds them all. Readers load it with
/// acquire semantics; the builder holds FuncTable::mu, fills `body` and
/// publishes it with a release store. A published body is never replaced.
struct FuncUnit {
  std::atomic<const RFunc*> active{nullptr};
  std::unique_ptr<RFunc> body;
};

/// First-call build counters, aggregated across all rank threads.
struct FirstCallStats {
  std::atomic<u64> compiled_funcs{0};  // functions built on a first call
  std::atomic<u64> compile_ns{0};      // wall time spent building them
  // Modules loaded from the cache: the functions among those built from the
  // mapped entry, and those whose record was rejected and were compiled
  // from the module bytes instead.
  std::atomic<u64> cache_materialized_funcs{0};
  std::atomic<u64> cache_record_fallbacks{0};
};

/// Plain-value report of a module's code: a census of the functions built
/// so far, the first-call build counters, and the native-code census.
struct TierUpSnapshot {
  u64 funcs_total = 0;
  u64 funcs_predecoded = 0;  // kInterp: every function
  u64 funcs_regcode = 0;     // compiled tiers: functions built so far
  // Functions built on their first call, and the time that took (see
  // FirstCallStats). Zero when a cache-on compile built every function.
  u64 lazy_compiled_funcs = 0;
  f64 lazy_compile_ms = 0;
  // Native-code census (kJit).
  u64 jit_funcs = 0;           // functions running native code
  u64 jit_fallback_funcs = 0;  // template gaps: fell back to threaded interp
  u64 jit_code_bytes = 0;      // machine code installed in the arena
  // Instances whose linear memory got no guard region (memory.h): their
  // native bodies run as RegCode in the executor instead.
  u64 guard_fallbacks = 0;
  // Cache-loaded modules (see FirstCallStats).
  u64 cache_materialized_funcs = 0;
  u64 cache_record_fallbacks = 0;
};

/// The one mutable part of a compiled-tier CompiledModule: one FuncUnit per
/// defined function, and what building one on its first call needs.
struct FuncTable {
  std::unique_ptr<FuncUnit[]> units;  // parallel to Module::bodies
  u32 num_units = 0;
  std::unique_ptr<MappedEntry> cache_entry;  // set by a cache hit
  std::mutex mu;  // serializes builds, and with them arena installs
  FirstCallStats stats;
};

/// An immutable compiled module, shareable across rank instances. At the
/// compiled tiers `funcs` is the one mutable, internally synchronized
/// exception: functions are built lazily, but each published body is
/// immutable.
struct CompiledModule {
  wasm::Module module;
  EngineTier tier = EngineTier::kJit;
  PreModule predecoded;             // kInterp
  std::vector<u32> canon_type_ids;  // type index -> canonical sig id
  std::vector<u32> func_canon;      // func index (combined) -> canonical sig id
  Sha256Digest hash;
  f64 compile_ms = 0;           // excludes decode/validate
  f64 decode_ms = 0;
  f64 validate_ms = 0;
  u32 funcs_validated = 0;      // bodies compile() validated; 0 on a cache hit
  bool loaded_from_cache = false;
  mutable FuncTable funcs;      // kOptimizing / kJit
  // Native-code state (kJit). The arena owns the executable mappings for
  // the module's lifetime; installs are serialized (a cache-on compile
  // installs on its calling thread before the module is shared, first-call
  // builds hold FuncTable::mu). The counters feed TierUpSnapshot.
  mutable std::unique_ptr<JitArena> jit_arena;
  mutable std::atomic<u64> jit_funcs{0};
  mutable std::atomic<u64> jit_fallback_funcs{0};
  mutable std::atomic<u64> guard_fallbacks{0};  // see TierUpSnapshot
};

/// Compiles `bytes` under `cfg`. Throws CompileError on malformed or
/// type-incorrect modules.
std::shared_ptr<const CompiledModule> compile(std::span<const u8> bytes,
                                              const EngineConfig& cfg);

/// Builds defined function `defined_index` of a compiled-tier module and
/// publishes it through its FuncUnit, unless another thread did first;
/// returns the published body. Instance::call_function calls it when the
/// unit has no body yet. Throws CompileError when the function is rebuilt
/// from a body that fails validation (a warm load validated only the
/// module shell).
const RFunc& materialize(const CompiledModule& cm, u32 defined_index);

/// Returns the body of defined function `defined_index` of a module at a
/// compiled tier (kOptimizing or kJit), building it first if no call has.
/// For tests and benches.
const RFunc& compiled_body(const CompiledModule& cm, u32 defined_index);

/// Reads the module's code census and first-call counters.
TierUpSnapshot tierup_snapshot(const CompiledModule& cm);

}  // namespace mpiwasm::rt
