// bench_dispatch: the execution-core perf trajectory.
//
// Measures the executor against native codegen, per kernel, both over the
// optimizing pipeline's RegCode:
//   threaded — the computed-goto executor (EngineTier::kOptimizing)
//   jit      — native x86-64 template codegen (EngineTier::kJit)
//
// The executor checks every memory access; native code checks none and
// leaves out-of-bounds accesses to the guard region.
//
// Each cell is the median over rounds, with its interquartile range. A round
// samples every config once, in an order rotated by one per round, so slow
// drift of the host (frequency, neighbours) lands on all columns alike. A
// micro-kernel sample is the mean of a few calls; a toolchain-kernel sample
// is one 2-rank embedder run.
//
// Output: a table on stdout and a machine-readable BENCH_exec.json (path
// via --out), so the perf trajectory of the executor is tracked in-repo.
// --smoke shrinks problem sizes and rounds for CI (keeps the perf code
// compiling and running, not a measurement) and additionally asserts that
// the jit column actually ran native code.
//
// Acceptance target (enforced on non-smoke runs, exit 1 on miss), over the
// per-kernel medians: geomean(jit / threaded) >= 3.0x.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "support/stats.h"
#include "support/timing.h"
#include "wasm/builder.h"

using namespace mpiwasm;
using namespace mpiwasm::bench;
using wasm::Op;
using wasm::ValType;

namespace {

struct ExecConfig {
  const char* name;
  rt::EngineTier tier;
};

constexpr size_t kNumConfigs = 2;
constexpr size_t kThreaded = 0, kJitCol = 1;
const ExecConfig kConfigs[kNumConfigs] = {
    {"threaded", rt::EngineTier::kOptimizing},
    {"jit", rt::EngineTier::kJit},
};

rt::EngineConfig engine_for(const ExecConfig& c) {
  rt::EngineConfig cfg;
  cfg.tier = c.tier;
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

/// Takes one timing sample of one kernel under one config, in seconds.
using Sampler = std::function<f64()>;

/// Compiles a single-function micro module, warms it up, and returns a
/// sampler timing the mean of `calls` steady-state calls. `jit_funcs_out`
/// (optional) receives the module's native-function count.
Sampler micro_sampler(const std::vector<u8>& bytes,
                      const rt::EngineConfig& engine, i32 n, int warm,
                      int calls, u64* jit_funcs_out = nullptr) {
  auto cm = rt::compile({bytes.data(), bytes.size()}, engine);
  auto inst = std::make_shared<rt::Instance>(cm, rt::ImportTable{});
  auto arg = rt::Value::from_i32(n);
  for (int k = 0; k < warm; ++k) inst->invoke("run", {&arg, 1});
  // The first call built the function, and counted it.
  if (jit_funcs_out != nullptr) *jit_funcs_out = cm->jit_funcs.load();
  return [inst, arg, calls]() mutable {
    Stopwatch watch;
    for (int k = 0; k < calls; ++k) inst->invoke("run", {&arg, 1});
    return watch.elapsed_s() / calls;
  };
}

/// Compiles a toolchain kernel once and returns a sampler timing one
/// `ranks`-rank embedder run (wall seconds). One unmeasured run first warms
/// the page cache and the tier pipeline.
Sampler kernel_sampler(const std::vector<u8>& bytes,
                       const rt::EngineConfig& engine, int ranks,
                       u64* jit_funcs_out = nullptr) {
  auto collector = std::make_shared<ReportCollector>();
  embed::EmbedderConfig ec;
  ec.engine = engine;
  ec.extra_imports = collector->hook();
  auto emb = std::make_shared<embed::Embedder>(ec);
  auto cm = emb->compile({bytes.data(), bytes.size()});
  Sampler run = [collector, emb, cm, ranks, jit_funcs_out] {
    auto result = emb->run_world(cm, ranks);
    MW_CHECK(result.exit_code == 0, "kernel failed");
    if (jit_funcs_out != nullptr) *jit_funcs_out = result.tierup.jit_funcs;
    return result.wall_seconds;
  };
  run();
  return run;
}

/// Median and quartiles of one config's samples.
struct Cell {
  f64 median = 0, q1 = 0, q3 = 0;
};

struct Row {
  std::string name;
  Cell cells[kNumConfigs];  // parallel to kConfigs
  u64 jit_funcs = 0;  // native functions in the jit-config module
  f64 jit_speedup() const {
    return cells[kJitCol].median > 0
               ? cells[kThreaded].median / cells[kJitCol].median
               : 0;
  }
};

/// Samples every config once per round, starting each round one config
/// later than the last, and reduces each config's samples to a Cell.
void measure(Row& row, const Sampler (&samplers)[kNumConfigs], int rounds) {
  std::vector<f64> samples[kNumConfigs];
  for (int r = 0; r < rounds; ++r) {
    for (size_t k = 0; k < kNumConfigs; ++k) {
      const size_t c = (size_t(r) + k) % kNumConfigs;
      samples[c].push_back(samplers[c]());
    }
  }
  for (size_t c = 0; c < kNumConfigs; ++c)
    row.cells[c] = {percentile(samples[c], 50), percentile(samples[c], 25),
                    percentile(samples[c], 75)};
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                f64 jit_geomean, bool smoke, int micro_rounds,
                int micro_calls, int kernel_rounds) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_dispatch\",\n");
  std::fprintf(out, "  \"schema\": 4,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"host_hw_concurrency\": %u,\n",
               unsigned(std::thread::hardware_concurrency()));
  std::fprintf(out, "  \"tier\": \"optimizing (+jit column at tier jit)\",\n");
  std::fprintf(out, "  \"configs\": [\"threaded\", \"jit\"],\n");
  std::fprintf(out,
               "  \"sampling\": {\"micro_rounds\": %d, "
               "\"micro_calls_per_sample\": %d, \"kernel_rounds\": %d},\n",
               micro_rounds, micro_calls, kernel_rounds);
  std::fprintf(out, "  \"kernels\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out, "    {\"name\": \"%s\", \"seconds\": {", r.name.c_str());
    for (size_t c = 0; c < kNumConfigs; ++c) {
      const Cell& cell = r.cells[c];
      std::fprintf(out, "%s\"%s\": {\"median\": %.9f, \"iqr\": [%.9f, %.9f]}",
                   c > 0 ? ", " : "", kConfigs[c].name, cell.median, cell.q1,
                   cell.q3);
    }
    std::fprintf(out,
                 "}, \"jit_funcs\": %llu, "
                 "\"speedup_jit_vs_threaded\": %.3f}%s\n",
                 (unsigned long long)r.jit_funcs, r.jit_speedup(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"geomean_speedup_jit_vs_threaded\": %.3f\n",
               jit_geomean);
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

  print_banner("Executor dispatch / native codegen trajectory");

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
  const int warm = smoke ? 2 : 8;
  const int micro_rounds = smoke ? 3 : 21, micro_calls = smoke ? 1 : 8;
  const int kernel_rounds = smoke ? 2 : 15;

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
    Sampler samplers[kNumConfigs];
    for (size_t c = 0; c < kNumConfigs; ++c)
      samplers[c] = micro_sampler(m.bytes, engine_for(kConfigs[c]), m.n, warm,
                                  micro_calls,
                                  c == kJitCol ? &row.jit_funcs : nullptr);
    measure(row, samplers, micro_rounds);
    rows.push_back(std::move(row));
  }
  for (const auto& k : kernels) {
    Row row;
    row.name = k.name;
    Sampler samplers[kNumConfigs];
    for (size_t c = 0; c < kNumConfigs; ++c)
      samplers[c] = kernel_sampler(k.bytes, engine_for(kConfigs[c]), 2,
                                   c == kJitCol ? &row.jit_funcs : nullptr);
    measure(row, samplers, kernel_rounds);
    rows.push_back(std::move(row));
  }

  print_subhead("seconds per run: median [q1, q3] (optimizing tier + jit)");
  std::printf("%-19s %-28s %-28s %8s\n", "kernel", "threaded", "jit",
              "jit/thr");
  f64 jit_log_sum = 0;
  for (const Row& r : rows) {
    std::printf("%-19s", r.name.c_str());
    for (const Cell& cell : r.cells)
      std::printf(" %.6f [%.6f,%.6f]", cell.median, cell.q1, cell.q3);
    std::printf(" %7.2fx\n", r.jit_speedup());
    jit_log_sum += std::log(r.jit_speedup());
  }
  f64 jit_geomean = std::exp(jit_log_sum / f64(rows.size()));
  std::printf("\n  => geomean speedup jit vs threaded: %.2fx "
              "(target >= 3.00x)\n", jit_geomean);

  write_json(out_path, rows, jit_geomean, smoke, micro_rounds,
             micro_calls, kernel_rounds);

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
  if (jit_geomean < 3.0) {
    std::fprintf(stderr, "FAIL: jit-vs-threaded geomean %.2fx below 3.00x\n",
                 jit_geomean);
    return 1;
  }
  return 0;
}
