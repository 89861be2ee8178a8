#include "embedder/embedder.h"

#include <sys/resource.h>

#include <cstdlib>
#include <mutex>

#include "embedder/mpi_host.h"
#include "embedder/threads_host.h"
#include "support/log.h"
#include "support/timing.h"
#include "support/trace.h"

namespace mpiwasm::embed {

namespace {
/// Minor page faults the calling thread has taken so far (0 where the
/// kernel cannot say).
u64 thread_minor_faults() {
  rusage ru{};
  if (::getrusage(RUSAGE_THREAD, &ru) != 0) return 0;
  return u64(ru.ru_minflt);
}
}  // namespace

Embedder::Embedder(EmbedderConfig config) : config_(std::move(config)) {
  if (config_.faasm_compat) {
    // Faasm routes MPI through its gRPC-based Faabric messaging layer and
    // stages buffers through its state store — model both (§6).
    config_.net_profile = simmpi::NetworkProfile::grpc_messaging();
    config_.zero_copy = false;
  }
  // Tracing switches on at construction, not at run_world, so compile-time
  // events (module cache hit/miss, ahead-of-time jit compiles) are captured.
  if (config_.trace_path.empty()) {
    if (const char* v = std::getenv("MPIWASM_TRACE")) config_.trace_path = v;
  }
  if (!config_.trace_path.empty()) trace::enable_tracing(true);
  if (config_.profile) trace::enable_profiling(true);
}

std::shared_ptr<const rt::CompiledModule> Embedder::compile(
    std::span<const u8> wasm_bytes) {
  return rt::compile(wasm_bytes, config_.engine);
}

RunResult Embedder::run_world(std::span<const u8> wasm_bytes, int ranks) {
  return run_world(compile(wasm_bytes), ranks);
}

RunResult Embedder::run_world(std::shared_ptr<const rt::CompiledModule> cm,
                              int ranks) {
  RunResult result;
  result.compile_ms = cm->compile_ms;
  result.decode_ms = cm->decode_ms;
  result.validate_ms = cm->validate_ms;
  result.funcs_validated = cm->funcs_validated;
  result.loaded_from_cache = cm->loaded_from_cache;

  auto shared_state = std::make_shared<SharedHandleState>();
  simmpi::World world(ranks, config_.net_profile, config_.coll);

  std::mutex result_mu;
  Stopwatch wall;

  world.run([&](simmpi::Rank& rank) {
    if (trace::active()) trace::set_thread_label("rank", rank.world_rank());
    Stopwatch rank_wall;
    // Per-rank embedder instance state (paper §4.3: "each MPI rank
    // corresponds to one instance of the embedder with its own module").
    Env env(&rank, shared_state, config_.zero_copy,
            config_.record_translation);

    wasi::WasiConfig wcfg;
    wcfg.args = config_.args;
    wcfg.env = {{"MPIWASM_RANK", std::to_string(rank.world_rank())},
                {"MPIWASM_SIZE", std::to_string(world.size())}};
    wcfg.preopens = config_.preopens;
    wcfg.random_seed = u64(rank.world_rank()) * 0x9E3779B97F4A7C15ull + 1;
    if (config_.stdout_sink) {
      int r = rank.world_rank();
      wcfg.stdout_sink = [this, r](std::string_view s) {
        config_.stdout_sink(r, s);
      };
    }
    wasi::WasiEnv wasi_env(std::move(wcfg));

    rt::ImportTable imports;
    wasi_env.register_imports(imports);
    register_mpi_host_functions(imports, config_.faasm_compat);
    // wasi-threads: guest threads of this rank run in the same Instance and
    // the same simmpi Rank context; the registry joins them before the
    // Instance goes away.
    GuestThreads guest_threads(&rank);
    guest_threads.register_imports(imports);
    if (config_.extra_imports) config_.extra_imports(imports, rank.world_rank());

    // The Instance lives in this scope so that the fault count spans its
    // linear memory's first touch and its unmap.
    const u64 faults_before = thread_minor_faults();
    int exit_code = 0;
    {
      rt::Instance instance(cm, imports, &env);
      try {
        trace::Scope span("guest", "guest._start");
        instance.invoke("_start");
      } catch (const rt::ProcExit& e) {
        exit_code = e.code();
      } catch (...) {
        // _start trapped. Guest threads must be parked before `instance` is
        // destroyed; abort first so ones blocked in MPI calls unblock.
        rank.world().request_abort(-1);
        try {
          guest_threads.join_all();
        } catch (...) {
          // The _start trap is the primary error.
        }
        throw;
      }
      // Join spawned guest threads before the Instance (and Env) they
      // execute in leave scope; a guest thread's trap resurfaces here as
      // the rank's failure.
      guest_threads.join_all();
      // The rank's wall time is the denominator for the profile's "% of
      // aggregate rank wall" column.
      if (trace::active()) trace::profile_add_wall(rank_wall.elapsed_ns());
    }
    const u64 faults = thread_minor_faults() - faults_before;

    std::lock_guard<std::mutex> lock(result_mu);
    if (exit_code != 0 && result.exit_code == 0) result.exit_code = exit_code;
    result.rank_minor_faults += faults;
    if (config_.record_translation) {
      result.translation_samples.insert(result.translation_samples.end(),
                                        env.samples().begin(),
                                        env.samples().end());
    }
  });

  result.wall_seconds = wall.elapsed_s();
  // Cheap for every tier: one atomic load per function.
  result.tierup = rt::tierup_snapshot(*cm);

  // Flush observability output now that every rank thread has joined (the
  // join gives the flush a happens-before over all per-thread rings). Only
  // config-driven sessions flush-and-reset here; callers that flipped the
  // trace switches themselves manage their own lifecycle.
  if (!config_.trace_path.empty() || config_.profile) {
    if (!config_.trace_path.empty())
      trace::write_chrome_json(config_.trace_path);
    if (config_.profile) result.profile_text = trace::profile_report();
    trace::reset();
  }
  return result;
}

}  // namespace mpiwasm::embed
