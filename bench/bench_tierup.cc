// bench_tierup: startup-to-steady-state crossover of the tiered engine.
//
// The static tiers force a global choice on the Table-1 trade-off curve:
// instant startup (interp) or peak throughput (optimizing, jit). Tiered
// mode should deliver both ends at once on a per-function basis:
//   - time-to-first-result within ~2x of the interpreter (compile() only
//     predecodes), and
//   - steady-state throughput >= 90% of the optimizing tier (hot functions
//     get promoted to the same optimized regcode).
// Section 3 shows per-function cache warm-start: a second execution of the
// same module serves its promotions from (hash, func index, tier) cache
// entries instead of recompiling.
#include <filesystem>

#include "bench_common.h"
#include "support/timing.h"
#include "wasm/builder.h"

using namespace mpiwasm;
using namespace mpiwasm::bench;
using wasm::Op;
using wasm::ValType;

namespace {

std::vector<u8> loop_module() {
  // run(n): i64 acc = 0; for (i = 0; i < n; ++i) acc += i*i; return acc
  wasm::ModuleBuilder b;
  auto& f = b.begin_func({{ValType::kI32}, {ValType::kI64}}, "run");
  u32 i = f.add_local(ValType::kI32);
  u32 acc = f.add_local(ValType::kI64);
  f.for_loop_i32(i, 0, 0, 1, [&] {
    f.local_get(acc);
    f.local_get(i);
    f.op(Op::kI64ExtendI32S);
    f.local_get(i);
    f.op(Op::kI64ExtendI32S);
    f.op(Op::kI64Mul);
    f.op(Op::kI64Add);
    f.local_set(acc);
  });
  f.local_get(acc);
  f.end();
  return b.build();
}

struct Measurement {
  std::string name;
  f64 compile_ms = 0;   // engine compile() cost
  f64 first_ms = 0;     // first invocation
  f64 ttfr_ms = 0;      // compile + first invocation
  f64 steady_mops = 0;  // loop iterations/s after warm-up, in millions
};

Measurement measure_micro(const rt::EngineConfig& cfg, const std::string& name,
                          i32 loop_n, int warm_calls, int timed_calls) {
  auto bytes = loop_module();
  Measurement m;
  m.name = name;

  Stopwatch compile_watch;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  m.compile_ms = compile_watch.elapsed_ms();

  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  auto arg = rt::Value::from_i32(loop_n);

  Stopwatch first_watch;
  inst.invoke("run", {&arg, 1});
  m.first_ms = first_watch.elapsed_ms();
  m.ttfr_ms = m.compile_ms + m.first_ms;

  for (int k = 0; k < warm_calls; ++k) inst.invoke("run", {&arg, 1});
  Stopwatch steady_watch;
  for (int k = 0; k < timed_calls; ++k) inst.invoke("run", {&arg, 1});
  f64 s = steady_watch.elapsed_s();
  m.steady_mops = f64(loop_n) * timed_calls / s / 1e6;
  return m;
}

void micro_crossover() {
  print_subhead("micro loop kernel: startup vs steady-state by tier");
  const i32 loop_n = 50000;
  const int warm = 48, timed = 64;

  std::vector<Measurement> rows;
  for (rt::EngineTier tier :
       {rt::EngineTier::kInterp, rt::EngineTier::kOptimizing,
        rt::EngineTier::kJit}) {
    rt::EngineConfig cfg;
    cfg.tier = tier;
    rows.push_back(measure_micro(cfg, rt::tier_name(tier), loop_n, warm, timed));
  }
  rt::EngineConfig tiered;
  tiered.tier = rt::EngineTier::kTiered;
  tiered.tierup_opt_threshold = 4;
  rows.push_back(measure_micro(tiered, "tiered(4)", loop_n, warm, timed));

  f64 opt_steady = 0, interp_ttfr = 0;
  for (const auto& r : rows) {
    if (r.name == "optimizing") opt_steady = r.steady_mops;
    if (r.name == "interp") interp_ttfr = r.ttfr_ms;
  }
  std::printf("%-14s %12s %12s %12s %14s %12s\n", "tier", "compile ms",
              "first ms", "TTFR ms", "steady Mop/s", "% of opt");
  for (const auto& r : rows) {
    std::printf("%-14s %12.3f %12.3f %12.3f %14.2f %11.1f%%\n",
                r.name.c_str(), r.compile_ms, r.first_ms, r.ttfr_ms,
                r.steady_mops,
                opt_steady > 0 ? 100.0 * r.steady_mops / opt_steady : 0.0);
  }
  const Measurement& t = rows.back();
  std::printf("\n  => tiered steady-state: %.1f%% of optimizing "
              "(target >= 90%%)\n",
              100.0 * t.steady_mops / opt_steady);
  std::printf("  => tiered TTFR: %.2fx interp (target <= 2x)\n",
              interp_ttfr > 0 ? t.ttfr_ms / interp_ttfr : 0.0);
}

void npb_crossover() {
  print_subhead("NPB kernels (2 ranks): wall time by tier");
  struct Cfg {
    std::string name;
    rt::EngineConfig engine;
  };
  std::vector<Cfg> cfgs;
  for (rt::EngineTier tier :
       {rt::EngineTier::kInterp, rt::EngineTier::kOptimizing,
        rt::EngineTier::kJit}) {
    rt::EngineConfig engine;
    engine.tier = tier;
    cfgs.push_back({rt::tier_name(tier), engine});
  }
  rt::EngineConfig tiered;
  tiered.tier = rt::EngineTier::kTiered;
  tiered.tierup_opt_threshold = 2;
  cfgs.push_back({"tiered(2)", tiered});

  toolchain::IsParams is;
  is.keys_per_rank = 1 << 12;
  is.repetitions = 4;
  toolchain::DtParams dt;
  dt.doubles_per_msg = 1 << 12;
  dt.repetitions = 8;

  struct Kernel {
    const char* name;
    std::vector<u8> bytes;
  };
  std::vector<Kernel> kernels;
  kernels.push_back({"NPB-IS", toolchain::build_is_module(is)});
  kernels.push_back({"NPB-DT", toolchain::build_dt_module(dt)});

  std::printf("%-8s %-14s %12s %12s %14s %14s\n", "kernel", "tier",
              "compile ms", "wall s", "promoted o/j", "tierup ms");
  for (const auto& kernel : kernels) {
    for (const auto& c : cfgs) {
      embed::EmbedderConfig ec;
      ec.engine = c.engine;
      ReportCollector collector;
      ec.extra_imports = collector.hook();
      embed::Embedder emb(ec);
      auto result =
          emb.run_world({kernel.bytes.data(), kernel.bytes.size()}, 2);
      MW_CHECK(result.exit_code == 0, "kernel failed");
      std::printf("%-8s %-14s %12.3f %12.4f %8llu/%-5llu %14.2f\n",
                  kernel.name, c.name.c_str(), result.compile_ms,
                  result.wall_seconds,
                  (unsigned long long)result.tierup.promoted_optimizing,
                  (unsigned long long)result.tierup.promoted_jit,
                  result.tierup.tierup_compile_ms);
    }
  }
}

void cache_warm_start() {
  print_subhead("per-function cache: promotions warm-start on a second run");
  namespace fs = std::filesystem;
  auto dir = (fs::temp_directory_path() /
              ("mpiwasm-tierup-cache-" + std::to_string(::getpid())))
                 .string();

  toolchain::IsParams is;
  is.keys_per_rank = 1 << 10;
  is.repetitions = 2;
  auto bytes = toolchain::build_is_module(is);
  rt::EngineConfig cfg;
  cfg.tier = rt::EngineTier::kTiered;
  cfg.tierup_opt_threshold = 1;
  cfg.enable_cache = true;
  cfg.cache_dir = dir;

  for (int run = 0; run < 2; ++run) {
    embed::EmbedderConfig ec;
    ec.engine = cfg;
    ReportCollector collector;
    ec.extra_imports = collector.hook();
    embed::Embedder emb(ec);
    auto result = emb.run_world({bytes.data(), bytes.size()}, 2);
    MW_CHECK(result.exit_code == 0, "IS kernel failed");
    std::printf(
        "  run %d: %llu promotions, %llu from cache, %.2fms tier-up compile\n",
        run + 1,
        (unsigned long long)(result.tierup.promoted_optimizing +
                             result.tierup.promoted_jit),
        (unsigned long long)result.tierup.func_cache_hits,
        result.tierup.tierup_compile_ms);
  }
  std::printf("  => second run should serve every promotion from the "
              "per-function cache\n");
  std::error_code ec_rm;
  fs::remove_all(dir, ec_rm);
}

}  // namespace

int main() {
  print_banner("Tier-up — lazy per-function compilation crossover");
  micro_crossover();
  npb_crossover();
  cache_warm_start();
  return 0;
}
