// bench_dispatch: the execution-core perf trajectory.
//
// Measures the executor optimizations separately and combined, per kernel:
//   prepr    — portable switch dispatch, no superinstructions: the
//              closest in-tree proxy for the pre-optimization executor
//              (the always-on core-pipeline improvements — lowering-time
//              imm fusion, FMA, cmp+branch, dest sinking — remain active,
//              so it under-reports the true vs-history gain)
//   switch   — switch dispatch + superinstructions
//   threaded — computed-goto dispatch, plain pipeline
//   full     — computed-goto + superinstructions (the optimizing-tier
//              default)
//   jit      — native x86-64 template codegen over the full pipeline
//              (EngineTier::kJit)
//
// The executor columns check every memory access; the jit column checks
// none and leaves out-of-bounds accesses to the guard region.
//
// Output: a table on stdout and a machine-readable BENCH_exec.json (path
// via --out), so the perf trajectory of the executor is tracked in-repo.
// --smoke shrinks problem sizes for CI (keeps the perf code compiling and
// running, not a measurement) and additionally asserts that the jit column
// actually ran native code.
//
// Acceptance targets (enforced on non-smoke runs, exit 1 on miss):
//   geomean(full / prepr) >= 1.3x
//   geomean(jit / full)   >= 3.0x
// Soft check (warns, never fails): full >= threaded per kernel — fusion
// must not lose to the plain pipeline anywhere.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "runtime/exec.h"
#include "support/timing.h"
#include "wasm/builder.h"

using namespace mpiwasm;
using namespace mpiwasm::bench;
using wasm::Op;
using wasm::ValType;

namespace {

struct ExecConfig {
  const char* name;
  bool force_switch;
  bool fused;  // superinstructions
  bool jit;    // native codegen (EngineTier::kJit)
};

constexpr size_t kNumConfigs = 5;
const ExecConfig kConfigs[kNumConfigs] = {
    {"prepr", true, false, false},
    {"switch", true, true, false},
    {"threaded", false, false, false},
    {"full", false, true, false},
    {"jit", false, true, true},
};

rt::EngineConfig engine_for(const ExecConfig& c) {
  rt::EngineConfig cfg;
  cfg.tier = c.jit ? rt::EngineTier::kJit : rt::EngineTier::kOptimizing;
  cfg.jit = c.jit;
  cfg.opt_superinstructions = c.fused;
  return cfg;
}

// --- micro kernels (pure engine, no embedder) ------------------------------

std::vector<u8> sum_squares_module() {
  // run(n): i64 acc = 0; for (i = 0; i < n; ++i) acc += i*i
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

std::vector<u8> stream_scale_module() {
  // run(n): for i < n: a[i] = 2*a[i] + i  (i32, bounds-check heavy)
  wasm::ModuleBuilder b;
  b.add_memory(64);  // 4 MiB
  auto& f = b.begin_func({{ValType::kI32}, {ValType::kI32}}, "run");
  u32 i = f.add_local(ValType::kI32);
  f.for_loop_i32(i, 0, 0, 1, [&] {
    f.local_get(i);
    f.i32_const(4);
    f.op(Op::kI32Mul);
    f.local_get(i);
    f.i32_const(4);
    f.op(Op::kI32Mul);
    f.mem_op(Op::kI32Load);
    f.i32_const(1);
    f.op(Op::kI32Shl);
    f.local_get(i);
    f.op(Op::kI32Add);
    f.mem_op(Op::kI32Store);
  });
  f.i32_const(0);
  f.mem_op(Op::kI32Load);
  f.end();
  return b.build();
}

std::vector<u8> daxpy_module() {
  // run(n): for i < n: y[i] = 2.5*x[i] + y[i]  (f64 FMA + loads/stores)
  wasm::ModuleBuilder b;
  b.add_memory(128);  // x at 0, y at 4 MiB
  auto& f = b.begin_func({{ValType::kI32}, {ValType::kF64}}, "run");
  u32 i = f.add_local(ValType::kI32);
  f.for_loop_i32(i, 0, 0, 1, [&] {
    f.local_get(i);
    f.i32_const(8);
    f.op(Op::kI32Mul);
    f.f64_const(2.5);
    f.local_get(i);
    f.i32_const(8);
    f.op(Op::kI32Mul);
    f.mem_op(Op::kF64Load);
    f.op(Op::kF64Mul);
    f.local_get(i);
    f.i32_const(8);
    f.op(Op::kI32Mul);
    f.mem_op(Op::kF64Load, 1 << 22);
    f.op(Op::kF64Add);
    f.mem_op(Op::kF64Store, 1 << 22);
  });
  f.i32_const(0);
  f.mem_op(Op::kF64Load, 1 << 22);
  f.end();
  return b.build();
}

/// Steady-state seconds per call for a single-function micro module.
/// `jit_funcs_out` (optional) receives the module's native-function count.
f64 time_micro(const std::vector<u8>& bytes, const rt::EngineConfig& engine,
               i32 n, int warm, int timed, u64* jit_funcs_out = nullptr) {
  auto cm = rt::compile({bytes.data(), bytes.size()}, engine);
  if (jit_funcs_out != nullptr) *jit_funcs_out = cm->jit_funcs.load();
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  auto arg = rt::Value::from_i32(n);
  for (int k = 0; k < warm; ++k) inst.invoke("run", {&arg, 1});
  Stopwatch watch;
  for (int k = 0; k < timed; ++k) inst.invoke("run", {&arg, 1});
  return watch.elapsed_s() / timed;
}

/// Wall seconds for a toolchain kernel through the embedder. The embedder
/// run is a multi-rank threaded world, so a single wall measurement is at
/// the mercy of the scheduler; take the min over `reps` runs (after one
/// unmeasured warmup that also populates the in-process page cache and the
/// tier pipeline) so config-vs-config comparisons reflect execution cost,
/// not thread-placement luck.
f64 time_kernel(const std::vector<u8>& bytes, const rt::EngineConfig& engine,
                int ranks, int reps, u64* jit_funcs_out = nullptr) {
  embed::EmbedderConfig ec;
  ec.engine = engine;
  ReportCollector collector;
  ec.extra_imports = collector.hook();
  embed::Embedder emb(ec);
  auto cm = emb.compile({bytes.data(), bytes.size()});
  f64 best = 0;
  for (int k = 0; k <= reps; ++k) {  // k==0 is the warmup
    auto result = emb.run_world(cm, ranks);
    MW_CHECK(result.exit_code == 0, "kernel failed");
    if (jit_funcs_out != nullptr) *jit_funcs_out = result.tierup.jit_funcs;
    if (k > 0 && (best == 0 || result.wall_seconds < best))
      best = result.wall_seconds;
  }
  return best;
}

struct Row {
  std::string name;
  f64 seconds[kNumConfigs] = {0, 0, 0, 0, 0};  // parallel to kConfigs
  u64 jit_funcs = 0;  // native functions in the jit-config module
  f64 speedup() const { return seconds[3] > 0 ? seconds[0] / seconds[3] : 0; }
  f64 jit_speedup() const {
    return seconds[4] > 0 ? seconds[3] / seconds[4] : 0;
  }
};

void write_json(const std::string& path, const std::vector<Row>& rows,
                f64 geomean, f64 jit_geomean, bool smoke) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_dispatch\",\n");
  std::fprintf(out, "  \"schema\": 2,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"host_hw_concurrency\": %u,\n",
               unsigned(std::thread::hardware_concurrency()));
  std::fprintf(out, "  \"tier\": \"optimizing (+jit column at tier jit)\",\n");
  std::fprintf(out,
               "  \"configs\": [\"prepr\", \"switch\", \"threaded\", "
               "\"full\", \"jit\"],\n");
  std::fprintf(out, "  \"kernels\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"seconds\": {\"prepr\": %.9f, "
                 "\"switch\": %.9f, \"threaded\": %.9f, \"full\": %.9f, "
                 "\"jit\": %.9f}, \"jit_funcs\": %llu, "
                 "\"speedup_full_vs_prepr\": %.3f, "
                 "\"speedup_jit_vs_full\": %.3f, "
                 "\"full_not_slower_than_threaded\": %s}%s\n",
                 r.name.c_str(), r.seconds[0], r.seconds[1], r.seconds[2],
                 r.seconds[3], r.seconds[4], (unsigned long long)r.jit_funcs,
                 r.speedup(), r.jit_speedup(),
                 r.seconds[3] <= r.seconds[2] * 1.02 ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"geomean_speedup_full_vs_prepr\": %.3f,\n", geomean);
  std::fprintf(out, "  \"geomean_speedup_jit_vs_full\": %.3f\n", jit_geomean);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_exec.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }

  print_banner("Executor dispatch / bounds-check / fusion trajectory");

  struct Micro {
    const char* name;
    std::vector<u8> bytes;
    i32 n;
  };
  std::vector<Micro> micros;
  micros.push_back({"micro_sum_squares", sum_squares_module(),
                    smoke ? 5000 : 200000});
  micros.push_back({"micro_stream_scale", stream_scale_module(),
                    smoke ? 5000 : 200000});
  micros.push_back({"micro_daxpy", daxpy_module(), smoke ? 5000 : 200000});
  const int warm = smoke ? 2 : 8, timed = smoke ? 3 : 32;

  toolchain::HpcgParams hpcg;
  hpcg.n_per_rank = smoke ? 64 : 4096;
  hpcg.iterations = smoke ? 2 : 20;
  toolchain::IsParams is;
  is.keys_per_rank = smoke ? 1 << 9 : 1 << 14;
  is.repetitions = smoke ? 1 : 6;
  toolchain::DtParams dt;
  dt.doubles_per_msg = smoke ? 1 << 7 : 1 << 13;
  dt.repetitions = smoke ? 1 : 12;
  struct Kernel {
    const char* name;
    std::vector<u8> bytes;
  };
  std::vector<Kernel> kernels;
  kernels.push_back({"hpcg", toolchain::build_hpcg_module(hpcg)});
  kernels.push_back({"npb_is", toolchain::build_is_module(is)});
  kernels.push_back({"npb_dt", toolchain::build_dt_module(dt)});

  std::vector<Row> rows;
  for (const auto& m : micros) {
    Row row;
    row.name = m.name;
    for (size_t c = 0; c < kNumConfigs; ++c) {
      rt::set_dispatch_force_switch(kConfigs[c].force_switch);
      row.seconds[c] =
          time_micro(m.bytes, engine_for(kConfigs[c]), m.n, warm, timed,
                     kConfigs[c].jit ? &row.jit_funcs : nullptr);
    }
    rt::set_dispatch_force_switch(false);
    rows.push_back(std::move(row));
  }
  for (const auto& k : kernels) {
    Row row;
    row.name = k.name;
    for (size_t c = 0; c < kNumConfigs; ++c) {
      rt::set_dispatch_force_switch(kConfigs[c].force_switch);
      row.seconds[c] =
          time_kernel(k.bytes, engine_for(kConfigs[c]), 2, smoke ? 1 : 3,
                      kConfigs[c].jit ? &row.jit_funcs : nullptr);
    }
    rt::set_dispatch_force_switch(false);
    rows.push_back(std::move(row));
  }

  print_subhead("seconds per run (optimizing tier + jit)");
  std::printf("%-20s %12s %12s %12s %12s %12s %9s %9s\n", "kernel", "prepr",
              "switch", "threaded", "full", "jit", "full/pre", "jit/full");
  f64 log_sum = 0, jit_log_sum = 0;
  for (const Row& r : rows) {
    std::printf("%-20s %12.6f %12.6f %12.6f %12.6f %12.6f %8.2fx %8.2fx\n",
                r.name.c_str(), r.seconds[0], r.seconds[1], r.seconds[2],
                r.seconds[3], r.seconds[4], r.speedup(), r.jit_speedup());
    log_sum += std::log(r.speedup());
    jit_log_sum += std::log(r.jit_speedup());
  }
  f64 geomean = std::exp(log_sum / f64(rows.size()));
  f64 jit_geomean = std::exp(jit_log_sum / f64(rows.size()));
  std::printf("\n  => geomean speedup full vs plain-switch executor: %.2fx "
              "(target >= 1.30x)\n", geomean);
  std::printf("  => geomean speedup jit vs full: %.2fx (target >= 3.00x)\n",
              jit_geomean);

  // Soft check: fusion must not lose to the plain threaded pipeline on any
  // kernel (2% noise allowance). Warns only — timing jitter on shared CI
  // boxes must not flake the build.
  for (const Row& r : rows) {
    if (r.seconds[3] > r.seconds[2] * 1.02)
      std::printf("  !! soft check: full (%.6fs) slower than threaded "
                  "(%.6fs) on %s\n",
                  r.seconds[3], r.seconds[2], r.name.c_str());
  }

  write_json(out_path, rows, geomean, jit_geomean, smoke);

  if (smoke) {
    // Smoke mode asserts the jit column genuinely ran native code.
    for (const Row& r : rows) {
      if (r.jit_funcs == 0) {
        std::fprintf(stderr, "FAIL: jit column fell back to the interpreter "
                             "on every function of %s\n", r.name.c_str());
        return 1;
      }
    }
    std::printf("  smoke: jit column ran native code on all %zu kernels\n",
                rows.size());
    return 0;
  }
  if (geomean < 1.30) {
    std::fprintf(stderr, "FAIL: full-vs-prepr geomean %.2fx below 1.30x\n",
                 geomean);
    return 1;
  }
  if (jit_geomean < 3.0) {
    std::fprintf(stderr, "FAIL: jit-vs-full geomean %.2fx below 3.00x\n",
                 jit_geomean);
    return 1;
  }
  return 0;
}
