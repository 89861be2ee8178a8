// Micro-benchmarks (google-benchmark) of the engine building blocks:
// per-instruction dispatch cost across tiers, host-call overhead, handle
// translation, and SHA-256 hashing for the compilation cache.
#include <benchmark/benchmark.h>

#include "embedder/env.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "support/sha256.h"
#include "toolchain/kernels.h"
#include "wasm/builder.h"

using namespace mpiwasm;
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

void BM_TierLoopThroughput(benchmark::State& state) {
  auto tier = rt::EngineTier(state.range(0));
  auto bytes = loop_module();
  rt::EngineConfig cfg;
  cfg.tier = tier;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  const i32 n = 10000;
  for (auto _ : state) {
    auto v = rt::Value::from_i32(n);
    benchmark::DoNotOptimize(inst.invoke("run", {&v, 1}).as_i64());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(rt::tier_name(tier));
}
BENCHMARK(BM_TierLoopThroughput)
    ->Arg(i64(rt::EngineTier::kInterp))
    ->Arg(i64(rt::EngineTier::kOptimizing))
    ->Arg(i64(rt::EngineTier::kJit));

void BM_HostCallOverhead(benchmark::State& state) {
  wasm::ModuleBuilder b;
  u32 imp = b.import_func("env", "nop", {{}, {}});
  auto& f = b.begin_func({{ValType::kI32}, {}}, "run");
  u32 i = f.add_local(ValType::kI32);
  f.for_loop_i32(i, 0, 0, 1, [&] { f.call(imp); });
  f.end();
  auto bytes = b.build();
  rt::EngineConfig cfg;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  rt::ImportTable imports;
  imports.add("env", "nop", {{}, {}},
              [](rt::HostContext&, const rt::Slot*, rt::Slot*) {});
  rt::Instance inst(cm, imports);
  const i32 n = 1000;
  for (auto _ : state) {
    auto v = rt::Value::from_i32(n);
    inst.invoke("run", {&v, 1});
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HostCallOverhead);

void BM_DatatypeTranslation(benchmark::State& state) {
  // The Figure-6 hot path in isolation: shared_mutex read lock + lookup.
  auto shared = std::make_shared<embed::SharedHandleState>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(shared->lookup_datatype(embed::abi::MPI_DOUBLE));
  }
}
BENCHMARK(BM_DatatypeTranslation);

void BM_Sha256ModuleHash(benchmark::State& state) {
  std::vector<u8> data(size_t(state.range(0)));
  for (size_t i = 0; i < data.size(); ++i) data[i] = u8(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256({data.data(), data.size()}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256ModuleHash)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_MicroKernelSimd(benchmark::State& state) {
  // Scalar-vs-v128 kernel twins at the optimizing tier (bench_simd measures
  // the full matrix; this keeps one headline pair in the microbench suite).
  toolchain::MicroKernelParams p;
  p.kernel = toolchain::MicroKernel(state.range(0));
  p.n = 1 << 13;
  p.use_simd = state.range(1) != 0;
  auto bytes = toolchain::build_micro_kernel_module(p);
  rt::EngineConfig cfg;
  cfg.tier = rt::EngineTier::kOptimizing;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  inst.invoke("init");
  auto reps = rt::Value::from_i32(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst.invoke("run", {&reps, 1}).as_f64());
  }
  state.SetItemsProcessed(state.iterations() * p.n);
  state.SetLabel(std::string(toolchain::micro_kernel_name(p.kernel)) +
                 (p.use_simd ? "/simd" : "/scalar"));
}
BENCHMARK(BM_MicroKernelSimd)
    ->Args({i64(toolchain::MicroKernel::kReduceF64), 0})
    ->Args({i64(toolchain::MicroKernel::kReduceF64), 1})
    ->Args({i64(toolchain::MicroKernel::kDaxpy), 0})
    ->Args({i64(toolchain::MicroKernel::kDaxpy), 1})
    ->Args({i64(toolchain::MicroKernel::kStencil3), 0})
    ->Args({i64(toolchain::MicroKernel::kStencil3), 1});

void BM_CompileHpcg(benchmark::State& state) {
  auto tier = rt::EngineTier(state.range(0));
  auto bytes = toolchain::build_hpcg_module({});
  for (auto _ : state) {
    rt::EngineConfig cfg;
    cfg.tier = tier;
    benchmark::DoNotOptimize(rt::compile({bytes.data(), bytes.size()}, cfg));
  }
  state.SetLabel(rt::tier_name(tier));
}
BENCHMARK(BM_CompileHpcg)
    ->Arg(i64(rt::EngineTier::kInterp))
    ->Arg(i64(rt::EngineTier::kOptimizing))
    ->Arg(i64(rt::EngineTier::kJit));

}  // namespace

BENCHMARK_MAIN();
