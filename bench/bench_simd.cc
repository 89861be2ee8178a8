// bench_simd: the Wasm-SIMD (v128) perf trajectory.
//
// Measures every vectorizable micro kernel (toolchain/kernels.h,
// MicroKernel) in two builds, always at the Optimizing tier:
//   scalar — the scalar inner loop
//   simd   — the v128 inner loop
//
// Jangda et al. ("Not So Fast") single out missing vectorization as one of
// the largest Wasm-vs-native gaps; the paper's §4.5 measures the -msimd128
// effect on DT at ~1.36x. This bench tracks our equivalent: the committed
// BENCH_simd.json must show geomean(scalar / simd) >= 1.3x over the
// vectorizable kernel set.
//
// Output: a table on stdout and BENCH_simd.json (path via --out). --smoke
// shrinks sizes for CI (schema identical, timings not meaningful).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "runtime/engine.h"
#include "runtime/instance.h"
#include "support/timing.h"
#include "toolchain/kernels.h"

using namespace mpiwasm;
using toolchain::MicroKernel;
using toolchain::MicroKernelParams;

namespace {

/// Steady-state seconds per run(reps) call.
f64 time_kernel(const MicroKernelParams& p, i32 reps, int warm, int timed) {
  auto bytes = toolchain::build_micro_kernel_module(p);
  rt::EngineConfig cfg;
  cfg.tier = rt::EngineTier::kOptimizing;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  inst.invoke("init");
  auto arg = rt::Value::from_i32(reps);
  for (int k = 0; k < warm; ++k) inst.invoke("run", {&arg, 1});
  Stopwatch watch;
  for (int k = 0; k < timed; ++k) inst.invoke("run", {&arg, 1});
  return watch.elapsed_s() / timed;
}

struct Row {
  std::string name;
  f64 scalar_s = 0, simd_s = 0;
  f64 speedup() const { return simd_s > 0 ? scalar_s / simd_s : 0; }
};

void write_json(const std::string& path, const std::vector<Row>& rows,
                f64 geomean, bool smoke) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_simd\",\n");
  std::fprintf(out, "  \"schema\": 2,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"host_hw_concurrency\": %u,\n",
               unsigned(std::thread::hardware_concurrency()));
  std::fprintf(out, "  \"tier\": \"optimizing\",\n");
  std::fprintf(out, "  \"configs\": [\"scalar\", \"simd\"],\n");
  std::fprintf(out, "  \"kernels\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"seconds\": {\"scalar\": %.9f, "
                 "\"simd\": %.9f}, \"speedup_simd_vs_scalar\": %.3f}%s\n",
                 r.name.c_str(), r.scalar_s, r.simd_s, r.speedup(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"geomean_speedup_simd_vs_scalar\": %.3f\n", geomean);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_simd.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }

  std::printf("== Wasm SIMD (v128) scalar-vs-vector trajectory ==\n");
  const u32 n = smoke ? 1 << 10 : 1 << 15;
  const i32 reps = smoke ? 2 : 16;
  const int warm = smoke ? 1 : 4, timed = smoke ? 2 : 16;

  const MicroKernel kernels[] = {
      MicroKernel::kReduceF64, MicroKernel::kReduceI32, MicroKernel::kDaxpy,
      MicroKernel::kStencil3, MicroKernel::kDotF64, MicroKernel::kSaxpyF32,
  };

  std::vector<Row> rows;
  for (MicroKernel k : kernels) {
    MicroKernelParams p;
    p.kernel = k;
    p.n = n;
    Row row;
    row.name = toolchain::micro_kernel_name(k);
    p.use_simd = false;
    row.scalar_s = time_kernel(p, reps, warm, timed);
    p.use_simd = true;
    row.simd_s = time_kernel(p, reps, warm, timed);
    rows.push_back(std::move(row));
  }

  std::printf("\n%-16s %12s %12s %10s\n", "kernel", "scalar", "simd",
              "speedup");
  f64 log_sum = 0;
  for (const Row& r : rows) {
    std::printf("%-16s %12.6f %12.6f %9.2fx\n", r.name.c_str(), r.scalar_s,
                r.simd_s, r.speedup());
    log_sum += std::log(r.speedup());
  }
  f64 geomean = std::exp(log_sum / f64(rows.size()));
  std::printf("\n  => geomean SIMD-vs-scalar speedup: %.2fx "
              "(target >= 1.30x)\n", geomean);

  write_json(out_path, rows, geomean, smoke);
  return 0;
}
