#include "runtime/engine.h"

#include <cstdlib>
#include <optional>
#include <unordered_map>

#include "runtime/cache.h"
#include "runtime/exec.h"
#include "runtime/instance.h"
#include "runtime/jit_x64.h"
#include "runtime/lowering.h"
#include "runtime/optimizer.h"
#include "support/log.h"
#include "support/parallel.h"
#include "support/timing.h"
#include "support/trace.h"
#include "wasm/decoder.h"
#include "wasm/validator.h"

namespace mpiwasm::rt {

const char* tier_name(EngineTier tier) {
  switch (tier) {
    case EngineTier::kInterp: return "interp";
    case EngineTier::kOptimizing: return "optimizing";
    case EngineTier::kTiered: return "tiered";
    case EngineTier::kJit: return "jit";
  }
  return "?";
}

bool simd_enabled_from_env() {
  static const bool enabled = [] {
    const char* v = std::getenv("MPIWASM_SIMD");
    if (v == nullptr) return true;
    std::string s(v);
    return !(s == "0" || s == "false" || s == "off");
  }();
  return enabled;
}

bool threads_enabled_from_env() {
  static const bool enabled = [] {
    const char* v = std::getenv("MPIWASM_THREADS");
    if (v == nullptr) return true;
    std::string s(v);
    return !(s == "0" || s == "false" || s == "off");
  }();
  return enabled;
}

namespace {

/// Cache tag for a compiled artifact. The optimizing tier's SIMD ablation
/// flag changes the generated code, so it is part of the key — a warm cache
/// must never serve SIMD-folded code to a run that disabled those rewrites
/// (or vice versa). The default flag keeps the plain tier name.
std::string cache_tag(EngineTier tier, bool simd) {
  std::string tag = tier_name(tier);
  if ((tier == EngineTier::kOptimizing || tier == EngineTier::kJit) && !simd)
    tag += "-nosimd";
  if (!threads_enabled_from_env()) tag += "-nothreads";
  return tag;
}

/// Body bytes per parallel_for chunk in compile(): about 1.5 ms of lowering,
/// optimization and codegen at the ~2.7 MB/s one Xeon vCPU compiles the jit
/// tier (the compile-stress module, RelWithDebInfo).
constexpr u64 kCompileChunkBytes = 4 << 10;

/// Compiles defined function `index` at compiled tier `tier` (kOptimizing
/// or kJit): lowers and optimizes it, and at kJit generates its native blob
/// (null on a template gap). kJit sits on top of the full optimizing
/// pipeline: templates cover the indexed loads and stores, so the native
/// code keeps their addressing modes. Reads only the module, so compile()
/// runs it for many functions at once; tier_up() runs it for one.
RFunc compile_function(const wasm::Module& m, u32 index, EngineTier tier,
                       const OptOptions& opt) {
  RFunc rf = lower_function(m, index);
  optimize_function(rf, opt);
  if (tier == EngineTier::kJit) rf.jit = jit_compile_function(rf);
  return rf;
}

/// The optimizing pipeline's options recorded in `ts`.
OptOptions opt_options(const TieredState& ts) {
  return OptOptions{.simd = ts.opt_simd};
}

/// Whether a cache-loaded body's frame header agrees with its function's
/// type. The executors size, zero and fill the frame from these fields, so
/// a wrong parameter count or a frame smaller than its locals would write
/// outside it. Operand indices inside the code are not checked.
bool header_matches(const RFunc& rf, const wasm::FuncType& ft) {
  return rf.num_params == ft.params.size() &&
         rf.has_result == !ft.results.empty() &&
         rf.num_params <= rf.num_locals && rf.num_locals <= rf.num_regs;
}

/// Type of defined function `defined_index`.
const wasm::FuncType& defined_type(const wasm::Module& m, u32 defined_index) {
  return m.func_type(m.num_imported_funcs() + defined_index);
}

/// Codegen for a cache-loaded body: keeps its blob when the blob's CPU
/// features are a subset of the host's and its layout hash matches this
/// build, and compiles a fresh one otherwise.
void refresh_jit_blob(RFunc& rf) {
  const u32 host = jit_cpu_features();
  if (rf.jit != nullptr && ((rf.jit->cpu_features & ~host) != 0 ||
                            rf.jit->layout_hash != jit_layout_hash())) {
    MW_DEBUG("jit: cached blob rejected (feature/layout mismatch)");
    rf.jit = nullptr;  // stale blob: recompile below
  }
  if (rf.jit == nullptr) rf.jit = jit_compile_function(rf);
}

/// Installs `rf`'s native blob into the module's arena and counts the
/// outcome. Without a blob (template gap) or when the install fails, the
/// blob is dropped and the function stays on the threaded interpreter
/// (returns false). Caller must hold whatever serializes arena installs
/// for `cm`.
bool install_jit_entry(const CompiledModule& cm, RFunc& rf) {
  if (rf.jit != nullptr) {
    if (cm.jit_arena == nullptr) cm.jit_arena = std::make_unique<JitArena>();
    rf.jit_entry = cm.jit_arena->install(*rf.jit);
    if (rf.jit_entry == nullptr) rf.jit = nullptr;
  }
  if (rf.jit == nullptr) {
    cm.jit_fallback_funcs.fetch_add(1, std::memory_order_relaxed);
    MW_TRACE_INSTANT("engine", "jit.fallback");
    return false;
  }
  cm.jit_funcs.fetch_add(1, std::memory_order_relaxed);
  MW_TRACE_INSTANT("engine", "jit.compile", "code_bytes",
                   i64(rf.jit->code.size()));
  return true;
}

/// Canonicalizes structurally equal function types so call_indirect
/// signature checks are integer comparisons (MPI libraries lean on
/// call_indirect-heavy code for reduction op tables). A type's id is the
/// index of its first structurally equal type; one hash lookup per type
/// keeps this linear, since it runs on every compile, warm ones included.
void compute_canonical_ids(CompiledModule& cm) {
  const wasm::Module& m = cm.module;
  struct TypeHash {
    size_t operator()(const wasm::FuncType* t) const {
      size_t h = t->params.size();
      for (wasm::ValType v : t->params) h = h * 131 + size_t(v);
      h = h * 131 + 0xFF;  // between params and results
      for (wasm::ValType v : t->results) h = h * 131 + size_t(v);
      return h;
    }
  };
  struct TypeEq {
    bool operator()(const wasm::FuncType* a, const wasm::FuncType* b) const {
      return *a == *b;
    }
  };
  std::unordered_map<const wasm::FuncType*, u32, TypeHash, TypeEq> first;
  first.reserve(m.types.size());
  cm.canon_type_ids.resize(m.types.size());
  for (u32 i = 0; i < m.types.size(); ++i)
    cm.canon_type_ids[i] = first.try_emplace(&m.types[i], i).first->second;
  cm.func_canon.clear();
  cm.func_canon.reserve(m.total_funcs());
  for (const wasm::Import& imp : m.imports)
    if (imp.kind == wasm::ExternKind::kFunc)
      cm.func_canon.push_back(cm.canon_type_ids.at(imp.type_index));
  for (u32 ti : m.functions) cm.func_canon.push_back(cm.canon_type_ids.at(ti));
}

// ---------------------------------------------------------------------------
// Tiered entry thunks.
//
// Steady: installed once the final-stage body is published (Jit when
// native promotion is on, Optimizing otherwise); calls go straight to
// Instance::run_compiled with no counter traffic.
void tiered_steady_entry(Instance& inst, const CompiledModule& cm,
                         u32 defined_index, Slot* base) {
  const FuncUnit& u = cm.tiered.units[defined_index];
  inst.run_compiled(*u.active.load(std::memory_order_acquire), base);
}

// Counting: bumps the call counter, requests promotion when a threshold
// is crossed, then runs whatever body is currently published (regcode if
// promoted, predecoded bytecode otherwise).
void tiered_counting_entry(Instance& inst, const CompiledModule& cm,
                           u32 defined_index, Slot* base) {
  TieredState& ts = cm.tiered;
  FuncUnit& u = ts.units[defined_index];
  const u64 n = u.calls.fetch_add(1, std::memory_order_relaxed) + 1;
  const EngineTier cur = u.tier.load(std::memory_order_relaxed);
  if (ts.jit_enabled && cur != EngineTier::kJit && n >= ts.jit_threshold) {
    tier_up(cm, defined_index, EngineTier::kJit);
  } else if (cur == EngineTier::kInterp && n >= ts.opt_threshold) {
    tier_up(cm, defined_index, EngineTier::kOptimizing);
  }
  if (const RFunc* rf = u.active.load(std::memory_order_acquire)) {
    inst.run_compiled(*rf, base);
  } else {
    inst.run_predecoded(cm.predecoded.funcs[defined_index], base);
  }
}

/// Builds defined function `di` of a static-tier module loaded from the
/// cache and publishes it through its unit: decodes its record, prepares it
/// and, at kJit, installs its native blob. A record that does not decode or
/// whose header disagrees with the function's type is compiled from the
/// module bytes instead, and the entry file is removed. A warm load
/// validated only the module shell, so that body is validated first:
/// lowering only sees bodies validated in this process. Blocks on
/// TieredState::mu: unlike a tier-up, there is no published body to run
/// meanwhile.
const RFunc& materialize(const CompiledModule& cm, u32 di) {
  TieredState& ts = cm.tiered;
  FuncUnit& u = ts.units[di];
  std::lock_guard<std::mutex> lock(ts.mu);
  if (const RFunc* rf = u.active.load(std::memory_order_relaxed))
    return *rf;  // another thread materialized it first

  trace::Scope span("engine", "cache.materialize");
  const EngineTier tier = cm.tier;
  std::unique_ptr<RFunc> body;
  if (std::optional<RFunc> rf = ts.cache_entry->decode(di);
      rf && header_matches(*rf, defined_type(cm.module, di))) {
    body = std::make_unique<RFunc>(std::move(*rf));
    if (tier == EngineTier::kJit) refresh_jit_blob(*body);
  } else {
    MW_DEBUG("cache record of function " << di << " is corrupt; recompiling");
    ts.cache_entry->remove();
    if (const wasm::ValidationResult vr = wasm::validate_bodies(cm.module, di, 1);
        !vr.ok)
      throw CompileError("validation error: " + vr.error);
    body = std::make_unique<RFunc>(
        compile_function(cm.module, di, tier, opt_options(ts)));
    ts.stats.cache_record_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  // Helper addresses are process-specific, so every blob is installed anew;
  // a function whose blob cannot be installed runs on the threaded
  // interpreter.
  if (tier == EngineTier::kJit) install_jit_entry(cm, *body);
  prepare_rfunc(*body);

  std::unique_ptr<RFunc>& slot =
      tier == EngineTier::kJit ? u.jit_body : u.optimized_body;
  slot = std::move(body);
  u.state.store(FuncState::kRegcode, std::memory_order_relaxed);
  u.tier.store(tier, std::memory_order_relaxed);
  u.active.store(slot.get(), std::memory_order_release);
  u.entry.store(&tiered_steady_entry, std::memory_order_release);
  ts.stats.cache_materialized_funcs.fetch_add(1, std::memory_order_relaxed);
  if (MW_TRACE_ACTIVE()) trace::note_arg("func", i64(di));
  return *slot;
}

// Cache-loaded static tiers: the first call materializes the function,
// which also swaps in the steady thunk for later calls.
void cache_materialize_entry(Instance& inst, const CompiledModule& cm,
                             u32 defined_index, Slot* base) {
  materialize(cm, defined_index);
  tiered_steady_entry(inst, cm, defined_index, base);
}

/// Gives `cm` one FuncUnit per defined function, entered through `entry`
/// in `state`, and records the options later per-function compiles use.
void init_units(CompiledModule& cm, const EngineConfig& cfg, EntryThunk entry,
                FuncState state) {
  TieredState& ts = cm.tiered;
  ts.num_units = u32(cm.module.bodies.size());
  ts.units = std::make_unique<FuncUnit[]>(ts.num_units);
  ts.jit_enabled = cfg.jit;
  ts.cache_enabled = cfg.enable_cache;
  ts.cache_dir = cfg.cache_dir;
  ts.opt_simd = cfg.opt_simd;
  for (u32 i = 0; i < ts.num_units; ++i) {
    ts.units[i].state.store(state, std::memory_order_relaxed);
    ts.units[i].entry.store(entry, std::memory_order_relaxed);
  }
}

}  // namespace

const RFunc& compiled_body(const CompiledModule& cm, u32 defined_index) {
  MW_CHECK(cm.tier == EngineTier::kOptimizing || cm.tier == EngineTier::kJit,
           "compiled_body needs a static compiled tier");
  if (cm.tiered.units == nullptr) return cm.regcode.funcs.at(defined_index);
  MW_CHECK(defined_index < cm.tiered.num_units, "function index out of range");
  const FuncUnit& u = cm.tiered.units[defined_index];
  if (const RFunc* rf = u.active.load(std::memory_order_acquire)) return *rf;
  return materialize(cm, defined_index);
}

void tier_up(const CompiledModule& cm, u32 defined_index, EngineTier target) {
  MW_CHECK(target == EngineTier::kOptimizing || target == EngineTier::kJit,
           "tier_up targets a compiled tier");
  TieredState& ts = cm.tiered;
  // Never stall a rank thread behind an in-progress promotion: if another
  // thread holds the compile lock, skip — the caller runs the currently
  // published body and promotion is retried on a later call.
  std::unique_lock<std::mutex> lock(ts.mu, std::try_to_lock);
  if (!lock.owns_lock()) return;
  FuncUnit& u = ts.units[defined_index];
  if (u.active.load(std::memory_order_relaxed) != nullptr &&
      u.tier.load(std::memory_order_relaxed) >= target) {
    return;  // another rank thread won the race
  }

  trace::Scope span("engine", "tier_up");
  Stopwatch watch;
  const std::string tag = cache_tag(target, ts.opt_simd);
  std::unique_ptr<RFunc> body;
  bool from_cache = false;
  std::optional<FileSystemCache> cache;
  if (ts.cache_enabled) cache.emplace(ts.cache_dir);
  if (cache) {
    // A body whose header disagrees with the function's type is not used;
    // the store below then replaces its entry.
    const wasm::FuncType& type = defined_type(cm.module, defined_index);
    if (auto cached = cache->load_func(cm.hash, defined_index, tag);
        cached && header_matches(*cached, type)) {
      body = std::make_unique<RFunc>(std::move(*cached));
      from_cache = true;
    }
    MW_TRACE_INSTANT("engine", from_cache ? "cache.hit" : "cache.miss", "func",
                     i64(defined_index));
  }
  if (!body) {
    body = std::make_unique<RFunc>(
        compile_function(cm.module, defined_index, target, opt_options(ts)));
  } else if (target == EngineTier::kJit) {
    refresh_jit_blob(*body);
  }
  // On a native-code failure the fully optimized body is published at
  // kOptimizing instead — the function permanently falls back to the
  // threaded interpreter.
  const bool jit_ok =
      target == EngineTier::kJit && install_jit_entry(cm, *body);
  if (cache && !from_cache)
    cache->store_func(cm.hash, defined_index, tag, *body);
  // Resolve direct-threading handler addresses before anyone can see the
  // body (handlers are derived state, never serialized to the cache).
  prepare_rfunc(*body);

  const EngineTier publish_tier = target == EngineTier::kJit && !jit_ok
                                      ? EngineTier::kOptimizing
                                      : target;

  // Publish. The superseded body (if any) stays alive: another thread may
  // still be executing it.
  std::unique_ptr<RFunc>& slot =
      target == EngineTier::kJit ? u.jit_body : u.optimized_body;
  slot = std::move(body);
  u.state.store(FuncState::kRegcode, std::memory_order_relaxed);
  u.active.store(slot.get(), std::memory_order_release);
  u.tier.store(publish_tier, std::memory_order_release);
  // Stop counting once the function reaches its final stage: the jit stage
  // when native promotion is on (reached even on template fallback, which
  // must not be retried every call), the optimizing stage otherwise.
  if (target == EngineTier::kJit ||
      (target == EngineTier::kOptimizing && !ts.jit_enabled))
    u.entry.store(&tiered_steady_entry, std::memory_order_release);

  ts.stats.tierup_compile_ns.fetch_add(watch.elapsed_ns(),
                                       std::memory_order_relaxed);
  auto& counter =
      jit_ok ? ts.stats.promoted_jit : ts.stats.promoted_optimizing;
  counter.fetch_add(1, std::memory_order_relaxed);
  if (from_cache)
    ts.stats.func_cache_hits.fetch_add(1, std::memory_order_relaxed);
  if (MW_TRACE_ACTIVE()) {
    trace::note_arg("func", i64(defined_index));
    trace::note_arg("from_cache", from_cache ? 1 : 0);
    trace::note_str("tier", tier_name(publish_tier));
  }
  MW_DEBUG("tier-up: func " << defined_index << " -> " << tag
                            << (from_cache ? " (cache)" : ""));
}

TierUpSnapshot tierup_snapshot(const CompiledModule& cm) {
  const TieredState& ts = cm.tiered;
  TierUpSnapshot s;
  s.funcs_total = ts.num_units;
  for (u32 i = 0; i < ts.num_units; ++i) {
    switch (ts.units[i].state.load(std::memory_order_acquire)) {
      case FuncState::kNone: break;
      case FuncState::kPredecoded: ++s.funcs_predecoded; break;
      case FuncState::kRegcode: ++s.funcs_regcode; break;
    }
  }
  for (u32 i = 0; i < ts.num_units; ++i)
    s.calls_counted += ts.units[i].calls.load(std::memory_order_relaxed);
  s.promoted_optimizing = ts.stats.promoted_optimizing.load();
  s.promoted_jit = ts.stats.promoted_jit.load();
  s.func_cache_hits = ts.stats.func_cache_hits.load();
  s.tierup_compile_ms = f64(ts.stats.tierup_compile_ns.load()) / 1e6;
  // Native-code census covers static kJit modules too (num_units == 0).
  s.jit_funcs = cm.jit_funcs.load(std::memory_order_relaxed);
  s.jit_fallback_funcs = cm.jit_fallback_funcs.load(std::memory_order_relaxed);
  s.guard_fallbacks = cm.guard_fallbacks.load(std::memory_order_relaxed);
  if (cm.jit_arena != nullptr) s.jit_code_bytes = cm.jit_arena->code_bytes();
  s.cache_materialized_funcs = ts.stats.cache_materialized_funcs.load();
  s.cache_record_fallbacks = ts.stats.cache_record_fallbacks.load();
  // A cold static-tier module has no tier units: every function was
  // predecoded (kInterp) or compiled to RegCode ahead of time, so report
  // them all as such. (A cache-loaded one counts the functions
  // materialized so far.)
  if (ts.units == nullptr) {
    s.funcs_total = cm.module.bodies.size();
    (cm.tier == EngineTier::kInterp ? s.funcs_predecoded : s.funcs_regcode) =
        s.funcs_total;
  }
  return s;
}

std::shared_ptr<const CompiledModule> compile(std::span<const u8> bytes,
                                              const EngineConfig& cfg) {
  auto cm = std::make_shared<CompiledModule>();
  // With native codegen switched off (config or MPIWASM_JIT=0) the jit tier
  // degrades to the optimizing tier — same RegCode, threaded dispatch.
  const EngineTier tier = cfg.tier == EngineTier::kJit && !cfg.jit
                              ? EngineTier::kOptimizing
                              : cfg.tier;
  cm->tier = tier;

  Stopwatch decode_watch;
  wasm::DecodeResult decoded = wasm::decode_module(bytes);
  if (!decoded.ok()) throw CompileError("decode error: " + decoded.error);
  cm->module = std::move(*decoded.module);
  cm->decode_ms = decode_watch.elapsed_ms();
  cm->hash = sha256(bytes);

  const u32 num_bodies = u32(cm->module.bodies.size());
  const bool static_tier =
      tier == EngineTier::kOptimizing || tier == EngineTier::kJit;
  const std::string tag = cache_tag(tier, cfg.opt_simd);
  std::optional<FileSystemCache> cache;
  std::unique_ptr<MappedEntry> entry;
  f64 map_ms = 0;  // part of compile_ms
  if (static_tier && cfg.enable_cache) {
    Stopwatch map_watch;
    cache.emplace(cfg.cache_dir);
    entry = cache->map(cm->hash, tag, num_bodies);
    map_ms = map_watch.elapsed_ms();
    MW_TRACE_INSTANT("engine", entry ? "cache.hit" : "cache.miss", "module", 1);
  }

  // A hit validates the shell only: the entry was written, under this
  // kCacheVersion, for these exact bytes after every body passed, and
  // whoever can write the (owner-only) cache directory can already plant
  // native code there, so re-validating the bodies adds no trust.
  Stopwatch validate_watch;
  const wasm::ValidationResult vr = entry ? wasm::validate_shell(cm->module)
                                          : wasm::validate_module(cm->module);
  if (!vr.ok) throw CompileError("validation error: " + vr.error);
  cm->validate_ms = validate_watch.elapsed_ms();
  cm->funcs_validated = entry ? 0 : num_bodies;

  // Threads ablation: with the proposal switched off (config or
  // MPIWASM_THREADS=0), shared memories are rejected outright. Atomics
  // can't validate without one, so this single gate covers the whole
  // feature.
  if (!cfg.threads) {
    for (const wasm::Limits& lim : cm->module.memories)
      if (lim.shared)
        throw CompileError(
            "module declares a shared memory but threads support is "
            "disabled (MPIWASM_THREADS=0)");
  }

  compute_canonical_ids(*cm);

  Stopwatch compile_watch;
  if (tier == EngineTier::kInterp) {
    cm->predecoded = predecode_module(cm->module);
    cm->compile_ms = compile_watch.elapsed_ms();
    return cm;
  }

  if (tier == EngineTier::kTiered) {
    // Instant startup: predecode every function (cheap, linear), defer all
    // lowering/optimization to the counting thunks.
    cm->predecoded = predecode_module(cm->module);
    init_units(*cm, cfg, &tiered_counting_entry, FuncState::kPredecoded);
    TieredState& ts = cm->tiered;
    ts.opt_threshold = std::max<u64>(1, cfg.tierup_opt_threshold);
    ts.jit_threshold = std::max<u64>(ts.opt_threshold, cfg.tierup_jit_threshold);
    cm->compile_ms = compile_watch.elapsed_ms();
    return cm;
  }

  if (entry) {
    // A hit builds no function: each one materializes from the mapped
    // entry on its first call.
    init_units(*cm, cfg, &cache_materialize_entry, FuncState::kNone);
    cm->tiered.cache_entry = std::move(entry);
    cm->loaded_from_cache = true;
    cm->compile_ms = map_ms + compile_watch.elapsed_ms();
    MW_DEBUG("cache hit for " << cm->hash.hex() << " (" << tag << ")");
    return cm;
  }

  // Functions compile independently, in parallel. Everything that touches
  // module-wide state — arena installs, the native-code counters, trace
  // events and the cache store — happens afterwards on this thread in
  // function-index order, so arena layout and cache bytes do not depend on
  // scheduling.
  const OptOptions opt{.simd = cfg.opt_simd};
  std::vector<RFunc>& funcs = cm->regcode.funcs;
  funcs.resize(num_bodies);
  parallel_for(
      u32(funcs.size()), kCompileChunkBytes,
      [&](u32 i) { return u64(cm->module.bodies[i].length); },
      [&](u32 i) {
        funcs[i] = compile_function(cm->module, i, tier, opt);
        // Resolve direct-threading handler addresses once per body.
        prepare_rfunc(funcs[i]);
      });
  if (tier == EngineTier::kJit) {
    // Per-function fallback to the threaded interpreter wherever a
    // template is missing.
    u32 compiled = 0;
    for (auto& rf : funcs)
      if (install_jit_entry(*cm, rf)) ++compiled;
    MW_DEBUG("jit: " << compiled << "/" << funcs.size()
                     << " functions native, "
                     << (cm->jit_arena ? cm->jit_arena->code_bytes() : 0)
                     << " code bytes");
  }
  cm->compile_ms = map_ms + compile_watch.elapsed_ms();

  // For kJit this runs after codegen so the native blobs land in the
  // cache entry alongside the RegCode.
  if (cache) cache->store(cm->hash, tag, cm->regcode);
  return cm;
}

}  // namespace mpiwasm::rt
