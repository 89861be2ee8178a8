// bench_tierup: time to first result and steady-state throughput of the
// three tiers.
//
// The tiers sit on the Table-1 trade-off curve: instant startup (interp) or
// peak throughput (optimizing, jit). kJit builds each function on its first
// call, so compile() only decodes and validates, and the first call pays
// for that one function's lowering, optimization and codegen. The table
// shows what that costs a program before its first result, and what it
// buys in steady state. The NPB rows split each run's wall time from the
// time its first calls spent building functions.
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
  print_subhead("micro loop kernel: time to first result and steady state");
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
  const Measurement& j = rows.back();
  std::printf("\n  => jit TTFR: %.3f ms, %.2fx interp (the first call builds "
              "the function)\n",
              j.ttfr_ms, interp_ttfr > 0 ? j.ttfr_ms / interp_ttfr : 0.0);
  std::printf("  => jit steady-state: %.1fx optimizing\n",
              opt_steady > 0 ? j.steady_mops / opt_steady : 0.0);
}

void npb_crossover() {
  print_subhead("NPB kernels (2 ranks): wall time by tier");
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

  std::printf("%-8s %-12s %12s %12s %14s %14s\n", "kernel", "tier",
              "compile ms", "wall s", "built/funcs", "first-call ms");
  for (const auto& kernel : kernels) {
    for (rt::EngineTier tier :
         {rt::EngineTier::kInterp, rt::EngineTier::kOptimizing,
          rt::EngineTier::kJit}) {
      embed::EmbedderConfig ec;
      ec.engine.tier = tier;
      ReportCollector collector;
      ec.extra_imports = collector.hook();
      embed::Embedder emb(ec);
      auto result =
          emb.run_world({kernel.bytes.data(), kernel.bytes.size()}, 2);
      MW_CHECK(result.exit_code == 0, "kernel failed");
      std::printf("%-8s %-12s %12.3f %12.4f %8llu/%-5llu %14.3f\n",
                  kernel.name, rt::tier_name(tier), result.compile_ms,
                  result.wall_seconds,
                  (unsigned long long)result.tierup.funcs_regcode,
                  (unsigned long long)result.tierup.funcs_total,
                  result.tierup.lazy_compile_ms);
    }
  }
}

}  // namespace

int main() {
  print_banner("Tiers — time to first result vs steady state");
  micro_crossover();
  npb_crossover();
  return 0;
}
