// bench_threads: guest-thread scaling through the wasi-threads port.
//
// Runs the element-wise micro kernels' threaded twins (worker-pool epoch
// barrier built from 0xFE atomics) at 1/2/4 guest threads plus the
// single-threaded builds as the baseline, and the threaded CG solve whose
// residual must be bit-identical across thread counts (fixed dot-partial
// blocks, sequentially combined). The committed BENCH_threads.json must
// show >= 2.5x 4-thread speedup on daxpy.
//
// Output: a table on stdout and BENCH_threads.json (path via --out).
// --smoke shrinks sizes for CI (schema identical, timings not meaningful)
// but still hard-checks checksum/residual correctness.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "embedder/threads_host.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "support/timing.h"
#include "toolchain/kernels.h"

using namespace mpiwasm;
using toolchain::MicroKernel;

namespace {

struct ThreadedRun {
  f64 seconds = 0;
  f64 result = 0;  // checksum or residual
};

/// Instantiates a threaded module (pure engine + the thread-spawn host
/// import), runs init/warm/timed/shutdown, and joins the guest workers
/// before the instance goes away.
ThreadedRun run_threaded(const std::vector<u8>& bytes, i32 reps, int warm,
                         int timed) {
  rt::EngineConfig cfg;
  cfg.tier = rt::EngineTier::kJit;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  embed::GuestThreads guests;  // no MPI rank: pure-engine module
  rt::ImportTable imports;
  guests.register_imports(imports);
  ThreadedRun out;
  {
    rt::Instance inst(cm, imports);
    i32 rc = inst.invoke("init").as_i32();
    if (rc != 0) {
      std::fprintf(stderr, "init() -> %d (thread spawn failed)\n", rc);
      std::exit(1);
    }
    auto arg = rt::Value::from_i32(reps);
    for (int k = 0; k < warm; ++k) inst.invoke("run", {&arg, 1});
    Stopwatch watch;
    for (int k = 0; k < timed; ++k)
      out.result = inst.invoke("run", {&arg, 1}).as_f64();
    out.seconds = watch.elapsed_s() / timed;
    inst.invoke("shutdown");
    guests.join_all();
  }
  return out;
}

struct Row {
  std::string name;
  f64 base_s = 0;            // single-threaded twin (non-shared build)
  f64 t_s[3] = {0, 0, 0};    // 1/2/4 guest threads
  f64 speedup4() const { return t_s[2] > 0 ? base_s / t_s[2] : 0; }
};

constexpr int kThreadCounts[3] = {1, 2, 4};

void write_json(const std::string& path, const std::vector<Row>& rows,
                bool residual_ok, bool checksums_ok, bool smoke) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_threads\",\n");
  std::fprintf(out, "  \"schema\": 1,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"tier\": \"jit\",\n");
  std::fprintf(out, "  \"host_hw_concurrency\": %u,\n",
               unsigned(std::thread::hardware_concurrency()));
  std::fprintf(out, "  \"thread_counts\": [1, 2, 4],\n");
  std::fprintf(out, "  \"kernels\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"seconds\": {\"single\": %.9f, "
                 "\"t1\": %.9f, \"t2\": %.9f, \"t4\": %.9f}, "
                 "\"speedup_4t_vs_single\": %.3f}%s\n",
                 r.name.c_str(), r.base_s, r.t_s[0], r.t_s[1], r.t_s[2],
                 r.speedup4(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"checksums_bit_exact\": %s,\n",
               checksums_ok ? "true" : "false");
  std::fprintf(out, "  \"cg_residual_thread_invariant\": %s\n",
               residual_ok ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_threads.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }

  std::printf("== wasi-threads guest scaling (0xFE atomics) ==\n");
  const u32 n = smoke ? 1 << 12 : 1 << 20;
  const i32 reps = smoke ? 4 : 40;
  const int warm = smoke ? 1 : 2, timed = smoke ? 2 : 5;

  bool checksums_ok = true;
  std::vector<Row> rows;
  for (MicroKernel k : {MicroKernel::kDaxpy, MicroKernel::kStencil3}) {
    toolchain::ThreadedKernelParams tp;
    tp.kernel = k;
    tp.n = n;
    // The baseline is the existing single-threaded (non-shared) build.
    toolchain::MicroKernelParams mp;
    mp.kernel = k;
    mp.n = n;
    Row row;
    row.name = toolchain::micro_kernel_name(k);
    {
      rt::EngineConfig cfg;
      cfg.tier = rt::EngineTier::kJit;
      auto bytes = toolchain::build_micro_kernel_module(mp);
      auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
      rt::ImportTable imports;
      rt::Instance inst(cm, imports);
      inst.invoke("init");
      auto arg = rt::Value::from_i32(reps);
      for (int w = 0; w < warm; ++w) inst.invoke("run", {&arg, 1});
      Stopwatch watch;
      for (int w = 0; w < timed; ++w) inst.invoke("run", {&arg, 1});
      row.base_s = watch.elapsed_s() / timed;
    }
    // Every run(reps) call accumulates into y (daxpy), so the reference
    // covers all warm + timed invocations of the measurement loop.
    const f64 ref =
        toolchain::micro_kernel_reference(mp, u32(reps) * u32(warm + timed));
    for (int ti = 0; ti < 3; ++ti) {
      tp.nthreads = u32(kThreadCounts[ti]);
      ThreadedRun r =
          run_threaded(toolchain::build_threaded_micro_kernel_module(tp),
                       reps, warm, timed);
      row.t_s[ti] = r.seconds;
      // Element-wise kernels: the threaded checksum must equal the host
      // reference bit-exactly at every thread count.
      if (r.result != ref) {
        std::fprintf(stderr, "%s nthreads=%d checksum %.17g != ref %.17g\n",
                     row.name.c_str(), kThreadCounts[ti], r.result, ref);
        checksums_ok = false;
      }
    }
    rows.push_back(std::move(row));
  }

  // Threaded CG: residual must be bit-identical across thread counts and
  // equal to the host twin.
  toolchain::ThreadedCgParams cgp;
  cgp.n = smoke ? 1 << 10 : 1 << 16;
  const i32 cg_iters = smoke ? 8 : 25;
  const f64 cg_ref = toolchain::threaded_cg_reference(cgp, u32(cg_iters));
  bool residual_ok = true;
  Row cg_row;
  cg_row.name = "cg_laplacian";
  for (int ti = 0; ti < 3; ++ti) {
    cgp.nthreads = u32(kThreadCounts[ti]);
    ThreadedRun r = run_threaded(toolchain::build_threaded_cg_module(cgp),
                                 cg_iters, 0, 1);
    cg_row.t_s[ti] = r.seconds;
    if (r.result != cg_ref) {
      std::fprintf(stderr, "cg nthreads=%d residual %.17g != ref %.17g\n",
                   kThreadCounts[ti], r.result, cg_ref);
      residual_ok = false;
    }
  }
  cg_row.base_s = cg_row.t_s[0];
  rows.push_back(cg_row);

  std::printf("\n%-14s %12s %12s %12s %12s %10s\n", "kernel", "single", "1t",
              "2t", "4t", "speedup4");
  for (const Row& r : rows) {
    std::printf("%-14s %12.6f %12.6f %12.6f %12.6f %9.2fx\n", r.name.c_str(),
                r.base_s, r.t_s[0], r.t_s[1], r.t_s[2], r.speedup4());
  }
  const f64 daxpy4 = rows[0].speedup4();
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("\n  => daxpy 4-thread speedup: %.2fx "
              "(target >= 2.5x on hosts with >= 4 cores; this host has %u)\n",
              daxpy4, hw);

  write_json(out_path, rows, residual_ok, checksums_ok, smoke);
  if (!checksums_ok || !residual_ok) {
    std::fprintf(stderr, "correctness gate failed\n");
    return 1;
  }
  // The scaling gate is physical: 4 guest threads cannot beat 1 on a
  // single-core host, so it is enforced only where the hardware allows it.
  // Correctness (bit-exact checksums, thread-invariant residual) is always
  // enforced above.
  if (!smoke && hw >= 4 && daxpy4 < 2.5) {
    std::fprintf(stderr, "scaling gate failed: daxpy 4t speedup %.2fx < 2.5x\n",
                 daxpy4);
    return 1;
  }
  return 0;
}
