#include "runtime/engine.h"

#include <optional>
#include <unordered_map>

#include "runtime/cache.h"
#include "runtime/exec.h"
#include "runtime/jit_support.h"
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
    case EngineTier::kJit: return "jit";
  }
  return "?";
}

namespace {

/// Body bytes per parallel_for chunk in compile(): about 1.5 ms of lowering,
/// optimization and codegen at the ~2.7 MB/s one Xeon vCPU compiles the jit
/// tier (the compile-stress module, RelWithDebInfo).
constexpr u64 kCompileChunkBytes = 4 << 10;

/// Compiles defined function `index` at compiled tier `tier` (kOptimizing
/// or kJit): lowers and optimizes it, and at kJit generates its native blob
/// (null on a template gap). kJit sits on top of the full optimizing
/// pipeline: templates cover the indexed loads and stores, so the native
/// code keeps their addressing modes. Reads only the module, so a cache-on
/// compile() runs it for many functions at once; materialize() runs it for
/// one.
RFunc compile_function(const wasm::Module& m, u32 index, EngineTier tier) {
  RFunc rf = lower_function(m, index);
  optimize_function(rf);
  if (tier == EngineTier::kJit) rf.jit = jit_compile_function(rf);
  return rf;
}

/// Whether a cache-loaded body of defined function `di` fits its module.
/// The executors size, zero and fill the frame from the header, so a wrong
/// parameter count or a frame smaller than its locals would write outside
/// it; and they index the globals, the functions and the types by the
/// immediates of global.get/global.set, call and call_indirect without a
/// check. Register operands are not checked.
bool record_fits(const RFunc& rf, const wasm::Module& m, u32 di) {
  const wasm::FuncType& ft = m.func_type(m.num_imported_funcs() + di);
  if (rf.num_params != ft.params.size() ||
      rf.has_result == ft.results.empty() || rf.num_params > rf.num_locals ||
      rf.num_locals > rf.num_regs)
    return false;
  for (const RInstr& in : rf.code) {
    u64 limit;
    switch (in.op) {
      case ROp::kGlobalGet:
      case ROp::kGlobalSet: limit = m.globals.size(); break;
      case ROp::kCall: limit = m.total_funcs(); break;
      case ROp::kCallIndirect: limit = m.types.size(); break;
      default: continue;
    }
    if (in.imm >= limit) return false;
  }
  return true;
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

}  // namespace

const RFunc& materialize(const CompiledModule& cm, u32 di) {
  FuncTable& ft = cm.funcs;
  FuncUnit& u = ft.units[di];
  std::lock_guard<std::mutex> lock(ft.mu);
  if (const RFunc* rf = u.active.load(std::memory_order_relaxed))
    return *rf;  // another thread built it first

  trace::Scope span("engine", "materialize");
  Stopwatch watch;
  const EngineTier tier = cm.tier;
  const wasm::Module& m = cm.module;
  std::unique_ptr<RFunc> body;
  if (ft.cache_entry != nullptr) {
    // A record that does not decode or does not fit the module is compiled
    // from the module bytes instead, and the entry file is removed. A warm
    // load validated only the module shell, so that body is validated
    // first: lowering only sees bodies validated in this process.
    if (std::optional<RFunc> rf = ft.cache_entry->decode(di);
        rf && record_fits(*rf, m, di)) {
      body = std::make_unique<RFunc>(std::move(*rf));
      if (tier == EngineTier::kJit) refresh_jit_blob(*body);
    } else {
      MW_DEBUG("cache record of function " << di << " is corrupt; recompiling");
      ft.cache_entry->remove();
      if (const wasm::ValidationResult vr = wasm::validate_bodies(m, di, 1);
          !vr.ok)
        throw CompileError("validation error: " + vr.error);
      ft.stats.cache_record_fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (body == nullptr)
    body = std::make_unique<RFunc>(compile_function(m, di, tier));
  // Helper addresses are process-specific, so every blob is installed anew;
  // a function whose blob cannot be installed runs on the threaded
  // interpreter.
  if (tier == EngineTier::kJit) install_jit_entry(cm, *body);
  prepare_rfunc(*body);

  u.body = std::move(body);
  u.active.store(u.body.get(), std::memory_order_release);
  ft.stats.compiled_funcs.fetch_add(1, std::memory_order_relaxed);
  ft.stats.compile_ns.fetch_add(watch.elapsed_ns(), std::memory_order_relaxed);
  if (ft.cache_entry != nullptr)
    ft.stats.cache_materialized_funcs.fetch_add(1, std::memory_order_relaxed);
  if (MW_TRACE_ACTIVE()) {
    trace::note_arg("func", i64(di));
    trace::note_arg("from_cache", ft.cache_entry != nullptr ? 1 : 0);
  }
  return *u.body;
}

const RFunc& compiled_body(const CompiledModule& cm, u32 defined_index) {
  MW_CHECK(cm.tier == EngineTier::kOptimizing || cm.tier == EngineTier::kJit,
           "compiled_body needs a compiled tier");
  MW_CHECK(defined_index < cm.funcs.num_units, "function index out of range");
  const FuncUnit& u = cm.funcs.units[defined_index];
  if (const RFunc* rf = u.active.load(std::memory_order_acquire)) return *rf;
  return materialize(cm, defined_index);
}

TierUpSnapshot tierup_snapshot(const CompiledModule& cm) {
  const FuncTable& ft = cm.funcs;
  TierUpSnapshot s;
  s.funcs_total = cm.module.bodies.size();
  if (cm.tier == EngineTier::kInterp) s.funcs_predecoded = s.funcs_total;
  for (u32 i = 0; i < ft.num_units; ++i)
    if (ft.units[i].active.load(std::memory_order_acquire) != nullptr)
      ++s.funcs_regcode;
  s.lazy_compiled_funcs = ft.stats.compiled_funcs.load();
  s.lazy_compile_ms = f64(ft.stats.compile_ns.load()) / 1e6;
  s.jit_funcs = cm.jit_funcs.load(std::memory_order_relaxed);
  s.jit_fallback_funcs = cm.jit_fallback_funcs.load(std::memory_order_relaxed);
  s.guard_fallbacks = cm.guard_fallbacks.load(std::memory_order_relaxed);
  if (cm.jit_arena != nullptr) s.jit_code_bytes = cm.jit_arena->code_bytes();
  s.cache_materialized_funcs = ft.stats.cache_materialized_funcs.load();
  s.cache_record_fallbacks = ft.stats.cache_record_fallbacks.load();
  return s;
}

std::shared_ptr<const CompiledModule> compile(std::span<const u8> bytes,
                                              const EngineConfig& cfg) {
  auto cm = std::make_shared<CompiledModule>();
  // With native codegen switched off the jit tier degrades to the
  // optimizing tier — same RegCode, threaded dispatch.
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
  const std::string tag = tier_name(tier);
  std::optional<FileSystemCache> cache;
  std::unique_ptr<MappedEntry> entry;
  f64 map_ms = 0;  // part of compile_ms
  if (tier != EngineTier::kInterp && cfg.enable_cache) {
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

  compute_canonical_ids(*cm);

  Stopwatch compile_watch;
  if (tier == EngineTier::kInterp) {
    cm->predecoded = predecode_module(cm->module);
    cm->compile_ms = compile_watch.elapsed_ms();
    return cm;
  }

  FuncTable& ft = cm->funcs;
  ft.num_units = num_bodies;
  ft.units = std::make_unique<FuncUnit[]>(num_bodies);
  if (entry) {
    // A hit builds no function: each one materializes from the mapped
    // entry on its first call.
    ft.cache_entry = std::move(entry);
    cm->loaded_from_cache = true;
    cm->compile_ms = map_ms + compile_watch.elapsed_ms();
    MW_DEBUG("cache hit for " << cm->hash.hex() << " (" << tag << ")");
    return cm;
  }
  if (!cache || !cache->enabled()) {
    // Cache off: every function is built on its first call.
    cm->compile_ms = compile_watch.elapsed_ms();
    return cm;
  }

  // A miss stores an entry that must hold every function, so all of them
  // compile now, independently and in parallel. Everything that touches
  // module-wide state — arena installs, the native-code counters, trace
  // events and the cache store — happens afterwards on this thread in
  // function-index order, so arena layout and cache bytes do not depend on
  // scheduling.
  RModule rm;
  rm.funcs.resize(num_bodies);
  parallel_for(
      num_bodies, kCompileChunkBytes,
      [&](u32 i) { return u64(cm->module.bodies[i].length); },
      [&](u32 i) {
        rm.funcs[i] = compile_function(cm->module, i, tier);
        // Resolve direct-threading handler addresses once per body.
        prepare_rfunc(rm.funcs[i]);
      });
  if (tier == EngineTier::kJit) {
    // Per-function fallback to the threaded interpreter wherever a
    // template is missing.
    u32 compiled = 0;
    for (RFunc& rf : rm.funcs)
      if (install_jit_entry(*cm, rf)) ++compiled;
    MW_DEBUG("jit: " << compiled << "/" << num_bodies << " functions native, "
                     << (cm->jit_arena ? cm->jit_arena->code_bytes() : 0)
                     << " code bytes");
  }
  // For kJit this runs after codegen so the native blobs land in the
  // cache entry alongside the RegCode.
  cache->store(cm->hash, tag, rm);
  for (u32 i = 0; i < num_bodies; ++i) {
    FuncUnit& u = ft.units[i];
    u.body = std::make_unique<RFunc>(std::move(rm.funcs[i]));
    u.active.store(u.body.get(), std::memory_order_relaxed);
  }
  cm->compile_ms = map_ms + compile_watch.elapsed_ms();
  return cm;
}

}  // namespace mpiwasm::rt
