// Table 1: compile duration vs single-core HPCG performance for the
// compiler backends.
//
// Paper (Wasmer backends):      Singlepass 52ms/0.38 GF, Cranelift
// 150ms/1.32 GF, LLVM 2811ms/1.54 GF — a monotone compile-time/run-time
// trade-off. Our three tiers reproduce the same monotone trade-off
// (docs/ARCHITECTURE.md, "src/runtime"): interp = Singlepass analogue
// (linear-time predecode), optimizing = Cranelift analogue (lowering plus
// the fixpoint pass pipeline, threaded dispatch), jit = LLVM analogue (the
// same pipeline plus native x86-64 codegen).
//
// Compile durations are measured on an application-sized module
// (build_compile_stress_module; the paper's HPCG compiles to 722 KiB of
// Wasm, far larger than our hand-assembled CG kernel); GFLOP/s comes from
// the actual HPCG kernel at 1 rank. A compile is the wall time of compile()
// plus compiled_body() on every function: the compiled tiers build each
// function on its first call, so compile() alone would leave out the
// backend's codegen. Those builds run one after another on the calling
// thread, as first calls do.
#include <iterator>
#include <thread>

#include "bench_common.h"

#include "runtime/engine.h"
#include "support/timing.h"

using namespace mpiwasm;
using namespace mpiwasm::bench;
using namespace mpiwasm::toolchain;

int main() {
  print_banner("Table 1 — compiler backends: compile duration vs performance");
  std::printf("host_hw_concurrency: %u\n", std::thread::hardware_concurrency());

  HpcgParams p;
  p.n_per_rank = 1 << 15;
  p.iterations = 30;
  auto hpcg_bytes = build_hpcg_module(p);
  auto stress_bytes = build_compile_stress_module(400);
  std::printf("compile workload: %.1f KiB wasm module\n",
              f64(stress_bytes.size()) / 1024.0);

  struct Row {
    rt::EngineTier tier;
    const char* paper_analogue;
  };
  const Row tiers[] = {
      {rt::EngineTier::kInterp, "Singlepass-analogue"},
      {rt::EngineTier::kOptimizing, "Cranelift-analogue"},
      {rt::EngineTier::kJit, "LLVM-analogue"},
  };
  constexpr size_t kTiers = std::size(tiers);
  // jit compiles the optimizing pipeline plus codegen, only a few percent
  // more work, so compiles are sampled round-robin across the tiers: load
  // drift on a shared host then hits every tier alike.
  constexpr int kCompileSamples = 15;
  std::vector<f64> compile_times[kTiers];
  for (int i = 0; i < kCompileSamples; ++i) {
    for (size_t t = 0; t < kTiers; ++t) {
      rt::EngineConfig ec;
      ec.tier = tiers[t].tier;
      Stopwatch watch;
      auto cm = rt::compile({stress_bytes.data(), stress_bytes.size()}, ec);
      if (cm->tier != rt::EngineTier::kInterp)
        for (u32 f = 0; f < cm->module.bodies.size(); ++f)
          (void)rt::compiled_body(*cm, f);
      compile_times[t].push_back(watch.elapsed_ms());
    }
  }
  std::printf("compile duration: median of %d compiles per tier\n",
              kCompileSamples);

  std::printf("%-14s %22s %28s\n", "Backend", "Compile Duration (ms)",
              "Single-Core HPCG (GFLOP/s)");
  for (size_t t = 0; t < kTiers; ++t) {
    const Row& row = tiers[t];
    f64 compile_ms = percentile(compile_times[t], 50);

    ReportCollector collector;
    embed::EmbedderConfig cfg;
    cfg.engine.tier = row.tier;
    cfg.extra_imports = collector.hook();
    embed::Embedder emb(cfg);
    auto result = emb.run_world({hpcg_bytes.data(), hpcg_bytes.size()}, 1);
    MW_CHECK(result.exit_code == 0, "hpcg failed");
    auto rows = collector.rows_with_id(p.report_id);
    f64 gflops = rows.empty() ? 0 : rows[0].a;
    std::printf("%-14s %22.2f %28.4f   (%s)\n", rt::tier_name(row.tier),
                compile_ms, gflops, row.paper_analogue);
  }
  std::printf(
      "\nPaper reference: Singlepass 52ms / 0.3769 GF, Cranelift 150ms / "
      "1.3240 GF,\nLLVM 2811ms / 1.5426 GF — shape to check: compile cost "
      "and runtime speed\nboth increase monotonically across backends.\n");
  return 0;
}
