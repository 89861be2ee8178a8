// Ablation B (docs/BENCHMARKS.md, "Benches without committed artifacts";
// paper §3.3): the compilation cache. The paper picks the slowest-compiling
// backend (LLVM) for its runtime speed and amortizes compilation with a
// BLAKE-3-keyed FileSystemCache; repeated executions must pay (almost)
// nothing.
#include <filesystem>
#include <thread>

#include "bench_common.h"

#include "runtime/engine.h"

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
  auto bytes = build_hpcg_module(p);

  std::printf("%-14s %16s %16s %12s\n", "tier", "cold (ms)", "warm (ms)",
              "amortized");
  for (rt::EngineTier tier :
       {rt::EngineTier::kOptimizing, rt::EngineTier::kJit}) {
    rt::EngineConfig ec;
    ec.tier = tier;
    ec.enable_cache = true;
    ec.cache_dir = cache_dir.string();

    auto cold = rt::compile({bytes.data(), bytes.size()}, ec);
    MW_CHECK(!cold->loaded_from_cache, "expected cold compile");
    // Median of 5 warm loads.
    std::vector<f64> warm_times;
    for (int i = 0; i < 5; ++i) {
      auto warm = rt::compile({bytes.data(), bytes.size()}, ec);
      MW_CHECK(warm->loaded_from_cache, "expected cache hit");
      warm_times.push_back(warm->compile_ms);
    }
    f64 warm_ms = percentile(warm_times, 50);
    std::printf("%-14s %16.3f %16.3f %11.1fx\n", rt::tier_name(tier),
                cold->compile_ms, warm_ms,
                warm_ms > 0 ? cold->compile_ms / warm_ms : 0);
  }
  std::filesystem::remove_all(cache_dir);
  std::printf(
      "\nShape to check: warm loads are a large constant factor cheaper than\n"
      "cold compiles, and the advantage grows with the jit tier —\n"
      "the paper's rationale for shipping LLVM + cache (§3.3).\n");
  return 0;
}
