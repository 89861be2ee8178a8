// MPIWasm embedder driver: compiles a module once, then instantiates and
// runs it on N rank threads (the in-process analogue of
// `mpirun -np N ./mpiwasm app.wasm`, paper Listing 4 — each MPI rank gets
// its own embedder instance with its own Wasm module instance, §4.3).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "embedder/env.h"
#include "runtime/engine.h"
#include "simmpi/world.h"
#include "wasi/wasi.h"

namespace mpiwasm::embed {

struct EmbedderConfig {
  rt::EngineConfig engine;                 // tier + compilation cache (§3.3)
  simmpi::NetworkProfile net_profile = simmpi::NetworkProfile::zero();
  /// Collective algorithm tuning for the simulated world (coll_algos.h);
  /// picks up MPIWASM_COLL_* env overrides by default.
  simmpi::CollTuning coll = simmpi::CollTuning::from_env();
  std::vector<std::string> args = {"app.wasm"};
  std::vector<wasi::Preopen> preopens;     // the -d flag entries (§3.4)
  bool zero_copy = true;                   // §3.5 (false = ablation mode)
  bool record_translation = false;         // Figure 6 instrumentation
  /// Faasm-like baseline (§6 / Figure 7): MPI re-implemented over a
  /// distributed messaging substrate — copies instead of zero-copy, gRPC
  /// profile costs, and no user-defined communicators.
  bool faasm_compat = false;
  /// Per-rank stdout capture; default discards into process stdout.
  std::function<void(int rank, std::string_view)> stdout_sink;
  /// Extra host imports (e.g. the bench harness's "bench.report"). Called
  /// once per rank before instantiation; mirrors Wasmer's ergonomic
  /// dynamic extension of the embedder's functionality (§3.1).
  std::function<void(rt::ImportTable&, int rank)> extra_imports;
  /// When non-empty, runtime tracing is enabled and a Chrome trace-event
  /// JSON (Perfetto-loadable) is written here after the world finishes.
  /// Defaults from MPIWASM_TRACE when unset (see Embedder ctor).
  std::string trace_path;
  /// mpiP-style per-call MPI profile, rendered into RunResult::profile_text
  /// at finalize.
  bool profile = false;
};

struct RunResult {
  int exit_code = 0;
  f64 compile_ms = 0;
  f64 decode_ms = 0;
  f64 validate_ms = 0;
  u32 funcs_validated = 0;  // bodies the compile validated; 0 on a cache hit
  f64 wall_seconds = 0;
  bool loaded_from_cache = false;
  /// Minor page faults summed over the rank threads, each counted from just
  /// before its Instance is built to just after it is destroyed: mostly the
  /// first touch of linear memory. Guest threads' faults are not included.
  u64 rank_minor_faults = 0;
  /// Code stats, taken after the world finishes: the functions built so far
  /// and the time their first calls spent building them, and for kJit the
  /// native-code census (native functions, interpreter fallbacks,
  /// machine-code bytes).
  rt::TierUpSnapshot tierup;
  /// Merged Figure-6 samples from all ranks (record_translation only).
  std::vector<TranslationSample> translation_samples;
  /// The rendered mpiP-style report (EmbedderConfig::profile only).
  std::string profile_text;
};

class Embedder {
 public:
  explicit Embedder(EmbedderConfig config);

  const EmbedderConfig& config() const { return config_; }

  /// Decode + validate + compile (cache-aware). Throws rt::CompileError.
  std::shared_ptr<const rt::CompiledModule> compile(
      std::span<const u8> wasm_bytes);

  /// Runs `_start` of the compiled module on `ranks` MPI ranks.
  RunResult run_world(std::shared_ptr<const rt::CompiledModule> cm, int ranks);
  RunResult run_world(std::span<const u8> wasm_bytes, int ranks);

 private:
  EmbedderConfig config_;
};

}  // namespace mpiwasm::embed
