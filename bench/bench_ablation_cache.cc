// Ablation B (docs/BENCHMARKS.md, "Benches without committed artifacts";
// paper §3.3): the compilation cache. The paper picks the slowest-compiling
// backend (LLVM) for its runtime speed and amortizes compilation with a
// BLAKE-3-keyed FileSystemCache; repeated executions must pay (almost)
// nothing.
//
// Two durations per compile: `compile_ms` (CompiledModule::compile_ms, the
// lower/optimize/JIT or cache-load part) and the wall time of the whole
// compile() call, which adds decode, validation and hashing. The cold
// compile runs with the cache on, so it is a miss, which builds every
// function up front (in parallel) for the entry it stores. A warm load
// maps the cache entry and builds each function on its first call, so a
// third column, "warm+all", times a warm load followed by materializing
// every function: what a run that calls all of them pays in total. The
// second module is the 840 KiB compile-stress module of perfbench's
// `startup` workload, whose 7 MB cache entry makes the load itself visible.
#include <filesystem>
#include <thread>

#include "bench_common.h"

#include "runtime/engine.h"
#include "support/timing.h"

using namespace mpiwasm;
using namespace mpiwasm::bench;
using namespace mpiwasm::toolchain;

int main() {
  print_banner("Ablation — compilation cache: cold vs warm compile times");
  // compile() spreads a module's functions over the host's CPUs, so compile
  // durations are wall time and depend on the core count.
  std::printf("host_hw_concurrency: %u\n", std::thread::hardware_concurrency());

  auto cache_dir = std::filesystem::temp_directory_path() /
                   "mpiwasm-bench-cache";
  std::filesystem::remove_all(cache_dir);

  HpcgParams p;
  p.n_per_rank = 1 << 14;
  const struct {
    const char* name;
    std::vector<u8> bytes;
  } modules[] = {{"hpcg-16k", build_hpcg_module(p)},
                 {"stress-8192", build_compile_stress_module(8192)}};

  std::printf("%-12s %-11s %12s %12s %12s %12s %12s %10s\n", "module", "tier",
              "cold (ms)", "cold wall", "warm (ms)", "warm wall", "warm+all",
              "amortized");
  for (const auto& m : modules) {
    const std::span<const u8> bytes{m.bytes.data(), m.bytes.size()};
    for (rt::EngineTier tier :
         {rt::EngineTier::kOptimizing, rt::EngineTier::kJit}) {
      rt::EngineConfig ec;
      ec.tier = tier;
      ec.enable_cache = true;
      ec.cache_dir = cache_dir.string();

      Stopwatch cold_watch;
      auto cold = rt::compile(bytes, ec);
      const f64 cold_wall = cold_watch.elapsed_ms();
      MW_CHECK(!cold->loaded_from_cache, "expected cold compile");
      // Medians of 5 warm loads, each followed by one warm load that
      // materializes every function.
      std::vector<f64> warm_times, warm_walls, all_walls;
      for (int i = 0; i < 5; ++i) {
        {
          Stopwatch warm_watch;
          auto warm = rt::compile(bytes, ec);
          warm_walls.push_back(warm_watch.elapsed_ms());
          MW_CHECK(warm->loaded_from_cache, "expected cache hit");
          warm_times.push_back(warm->compile_ms);
        }
        Stopwatch all_watch;
        auto warm = rt::compile(bytes, ec);
        for (u32 f = 0; f < warm->module.bodies.size(); ++f)
          (void)rt::compiled_body(*warm, f);
        all_walls.push_back(all_watch.elapsed_ms());
      }
      const f64 warm_ms = percentile(warm_times, 50);
      const f64 warm_wall = percentile(warm_walls, 50);
      std::printf("%-12s %-11s %12.3f %12.3f %12.3f %12.3f %12.3f %9.1fx\n",
                  m.name, rt::tier_name(tier), cold->compile_ms, cold_wall,
                  warm_ms, warm_wall, percentile(all_walls, 50),
                  warm_wall > 0 ? cold_wall / warm_wall : 0);
    }
  }
  std::filesystem::remove_all(cache_dir);
  std::printf(
      "\n'amortized' is cold wall / warm wall. 'warm+all' is a warm load\n"
      "plus materializing every function (median wall, ms).\n"
      "Shape to check: warm loads are a large constant factor cheaper than\n"
      "cold compiles, and the advantage grows with the jit tier —\n"
      "the paper's rationale for shipping LLVM + cache (§3.3).\n");
  return 0;
}
