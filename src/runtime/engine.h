// Compilation engine: turns Wasm binaries into executable CompiledModules.
//
// Three static tiers, one per point of the paper's compiler-backend
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
// The compiled tiers compile every function through one per-function
// pipeline (lower -> optimize -> native blob), spread over the host's CPUs;
// the results are installed in function-index order on the calling thread,
// so the compiled module does not depend on scheduling.
//
// kTiered dissolves the compile-time/run-time trade-off: the unit of
// compilation becomes the *function*, not the module. compile() only
// predecodes (instant startup, like kInterp); each function carries an
// atomic call counter and is lazily lowered + optimized, then compiled to
// native code, as its counter crosses the configured thresholds.
// Publication is thread-safe: CompiledModule is shared across rank
// threads, so promoted bodies are handed off through atomic pointers and
// never freed while the module lives.
//
// A FileSystemCache keyed by a SHA-256 module digest (paper §3.3 uses
// BLAKE-3) lets repeated executions skip recompilation entirely. A warm
// start at a static compiled tier maps the module's entry and builds no
// function: each one is decoded, prepared and installed on its first call,
// through the same FuncUnit entry thunks tiered mode uses. In tiered mode
// the cache holds per-function entries keyed by
// (module hash, function index, tier) so hot functions warm-start.
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
#include "runtime/jit_support.h"
#include "runtime/regcode.h"
#include "runtime/value.h"
#include "support/sha256.h"
#include "wasm/module.h"

namespace mpiwasm::rt {

class Instance;
struct CompiledModule;

enum class EngineTier : u8 {
  kInterp = 0,
  kOptimizing = 1,
  kTiered = 2,  // lazy per-function compile with dynamic tier-up
  // Native x86-64 template codegen on top of the full optimizing pipeline
  // (jit_x64.h). Functions whose RegCode contains an op without a template
  // fall back to the threaded interpreter, so kJit is never worse than
  // kOptimizing. Note kTiered sits between kOptimizing and kJit numerically
  // but is a *mode*, not a code quality level; per-function tier fields
  // only ever hold kInterp, kOptimizing and kJit, whose order is monotone.
  kJit = 3,
};

const char* tier_name(EngineTier tier);

/// Reads the MPIWASM_SIMD environment variable once per process: "0",
/// "false", or "off" disable SIMD-aware optimization (and the toolchain
/// kernels' vectorized twins); anything else — including unset — enables
/// them. This is the ablation knob behind EngineConfig::opt_simd's default
/// and the benches' scalar-vs-SIMD kernel selection (docs/TUNING.md).
bool simd_enabled_from_env();

/// Reads the MPIWASM_THREADS environment variable once per process: "0",
/// "false", or "off" disable the threads proposal (shared memories are
/// rejected at compile time and the toolchain's threaded kernel twins are
/// skipped); anything else — including unset — enables it (docs/TUNING.md).
bool threads_enabled_from_env();

struct EngineConfig {
  EngineTier tier = EngineTier::kJit;
  bool enable_cache = false;
  std::string cache_dir;  // empty -> "<tmp>/mpiwasm-cache"
  // kTiered promotion thresholds (call counts). A function is compiled at
  // the Optimizing tier once it has been entered `tierup_opt_threshold`
  // times. Threshold 1 promotes on the first call.
  u64 tierup_opt_threshold = 8;
  // Third promotion stage: once a function has been entered this many times
  // it is recompiled to native code (only when `jit` is on; clamped to at
  // least tierup_opt_threshold).
  u64 tierup_jit_threshold = 4096;
  /// Master switch for native codegen, defaulting to the MPIWASM_JIT
  /// environment variable (docs/TUNING.md). Off: EngineTier::kJit degrades
  /// to kOptimizing and tiered promotion stops at the optimizing stage.
  bool jit = jit_enabled_from_env();
  /// SIMD-aware optimization (v128 const folding, v128 indexed addressing),
  /// applied wherever the full pipeline runs — kOptimizing, kJit and tiered
  /// promotions to them. Defaults to the MPIWASM_SIMD environment variable
  /// so the whole test/bench suite can be ablated without recompiling; v128
  /// code still *executes* when this is off — it just runs through the
  /// generic pipeline.
  bool opt_simd = simd_enabled_from_env();
  /// Threads-proposal master switch, defaulting to the MPIWASM_THREADS
  /// environment variable. Off: compile() rejects modules that declare a
  /// shared memory (atomics themselves never validate without one), giving
  /// a clean ablation leg with zero concurrency in the engine.
  bool threads = threads_enabled_from_env();
};

/// Raised when a module fails to decode or validate.
class CompileError : public std::runtime_error {
 public:
  explicit CompileError(const std::string& what) : std::runtime_error(what) {}
};

/// Lifecycle of one function's code in tiered mode.
enum class FuncState : u8 {
  kNone = 0,        // nothing derived from the body yet
  kPredecoded = 1,  // interpreter bytecode ready (module load)
  kRegcode = 2,     // compiled regcode published (optimizing or jit)
};

/// Entry thunk: how a call enters one function. Tiered dispatch swaps the
/// thunk as the function is promoted so steady-state calls pay no
/// counting/promotion checks.
using EntryThunk = void (*)(Instance& inst, const CompiledModule& cm,
                            u32 defined_index, Slot* base);

/// Per-function compilation unit (tiered mode). Readers are lock-free:
/// they load `entry`/`active` with acquire semantics. Writers serialize on
/// TieredState::mu and publish with release stores. Promoted bodies are
/// kept alive for the module's lifetime (another rank thread may still be
/// executing the superseded one).
struct FuncUnit {
  std::atomic<FuncState> state{FuncState::kNone};
  std::atomic<EngineTier> tier{EngineTier::kInterp};  // tier of `active`
  std::atomic<u64> calls{0};
  std::atomic<const RFunc*> active{nullptr};  // best published body
  std::atomic<EntryThunk> entry{nullptr};
  // Writer-owned storage behind the published pointers.
  std::unique_ptr<RFunc> optimized_body;
  std::unique_ptr<RFunc> jit_body;  // optimized body + native entry
};

/// Monotonic tier-up counters, aggregated across all rank threads.
struct TierUpStats {
  std::atomic<u64> promoted_optimizing{0};
  std::atomic<u64> promoted_jit{0};
  std::atomic<u64> func_cache_hits{0};   // promotions served from cache
  std::atomic<u64> tierup_compile_ns{0};  // wall time spent promoting
  // Static tiers loaded from the cache: functions built on first call, and
  // those among them whose record was corrupt and were compiled instead.
  std::atomic<u64> cache_materialized_funcs{0};
  std::atomic<u64> cache_record_fallbacks{0};
};

/// Plain-value copy of TierUpStats for reports, plus a census of the
/// unit table's current FuncState distribution.
struct TierUpSnapshot {
  u64 funcs_total = 0;
  u64 funcs_predecoded = 0;  // still interpreter-only
  u64 funcs_regcode = 0;     // promoted to compiled code
  u64 promoted_optimizing = 0;
  u64 promoted_jit = 0;
  u64 func_cache_hits = 0;
  f64 tierup_compile_ms = 0;
  // Calls observed while counting thunks were installed (tiered mode; a
  // function stops counting once its final-stage thunk is published).
  u64 calls_counted = 0;
  // Native-tier census — filled for kJit modules and tiered modules alike.
  u64 jit_funcs = 0;           // functions running native code
  u64 jit_fallback_funcs = 0;  // template gaps: fell back to threaded interp
  u64 jit_code_bytes = 0;      // machine code installed in the arena
  // Instances whose linear memory got no guard region (memory.h): their
  // native bodies run as RegCode in the executor instead.
  u64 guard_fallbacks = 0;
  // Cache-loaded static-tier modules (see TierUpStats).
  u64 cache_materialized_funcs = 0;
  u64 cache_record_fallbacks = 0;
};

/// Mutable tiered-execution state hanging off an otherwise immutable
/// CompiledModule. A static-tier module loaded from the cache uses it too:
/// its units start out entered through a thunk that materializes the
/// function from `cache_entry` on the first call.
struct TieredState {
  std::unique_ptr<FuncUnit[]> units;  // parallel to Module::bodies
  u32 num_units = 0;
  u64 opt_threshold = 8;
  u64 jit_threshold = 4096;
  bool jit_enabled = false;
  bool cache_enabled = false;
  bool opt_simd = true;
  std::string cache_dir;
  std::unique_ptr<MappedEntry> cache_entry;  // static tiers, warm start
  std::mutex mu;  // serializes promotion compilation/publication
  TierUpStats stats;
};

/// An immutable compiled module, shareable across rank instances. (In
/// kTiered mode, and for a static tier loaded from the cache, `tiered` is
/// the one mutable, internally synchronized exception: code is born lazily
/// but each published body is immutable.)
struct CompiledModule {
  wasm::Module module;
  EngineTier tier = EngineTier::kJit;
  RModule regcode;              // kOptimizing / kJit, cold compile only
  PreModule predecoded;         // kInterp / kTiered
  std::vector<u32> canon_type_ids;  // type index -> canonical sig id
  std::vector<u32> func_canon;      // func index (combined) -> canonical sig id
  Sha256Digest hash;
  f64 compile_ms = 0;           // excludes decode/validate
  f64 decode_ms = 0;
  f64 validate_ms = 0;
  u32 funcs_validated = 0;      // bodies compile() validated; 0 on a cache hit
  bool loaded_from_cache = false;
  mutable TieredState tiered;   // kTiered, and static tiers from the cache
  // Native-code state (kJit, and kTiered promotions to the jit stage). The
  // arena owns the executable mappings for the module's lifetime; installs
  // are serialized (compile() installs on its calling thread after the
  // parallel compile loop, tiered promotions and cache materializations
  // hold TieredState::mu). The counters feed TierUpSnapshot.
  mutable std::unique_ptr<JitArena> jit_arena;
  mutable std::atomic<u64> jit_funcs{0};
  mutable std::atomic<u64> jit_fallback_funcs{0};
  mutable std::atomic<u64> guard_fallbacks{0};  // see TierUpSnapshot
};

/// Compiles `bytes` under `cfg`. Throws CompileError on malformed or
/// type-incorrect modules.
std::shared_ptr<const CompiledModule> compile(std::span<const u8> bytes,
                                              const EngineConfig& cfg);

/// Promotes defined function `defined_index` to `target` (kOptimizing or
/// kJit) and publishes the body; no-op if the function is already at or
/// above `target`, or if another thread currently holds the
/// promotion lock (callers fall through to the published body and retry
/// on a later call — promotion never stalls execution). Normally driven
/// by the counting entry thunk, exposed for tests and warm-up hooks.
void tier_up(const CompiledModule& cm, u32 defined_index, EngineTier target);

/// Returns the body of defined function `defined_index` of a module at a
/// static compiled tier (kOptimizing or kJit), materializing it first when
/// the module was loaded from the cache. For tests and benches; calls
/// materialize through Instance::call_function.
const RFunc& compiled_body(const CompiledModule& cm, u32 defined_index);

/// Reads the module's tier-up counters (zeros for non-tiered modules).
TierUpSnapshot tierup_snapshot(const CompiledModule& cm);

}  // namespace mpiwasm::rt
