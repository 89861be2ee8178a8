// Differential property tests: for a corpus of generated programs and
// pseudo-random inputs, every execution configuration must agree
// bit-exactly — the three tiers, whose compiled functions are built on
// their first call, mid-run. This is the core correctness argument for the
// compiled tiers and for first-call publication — any lowering,
// optimization, or publication bug shows up as a divergence.
#include "testlib.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <sstream>

#include "benchlib/harness.h"
#include "embedder/embedder.h"
#include "toolchain/kernels.h"

namespace mpiwasm::test {
namespace {

struct Program {
  std::string name;
  std::vector<u8> bytes;
  std::vector<std::vector<Value>> inputs;
};

Program make_arith_mix() {
  // Mixes i32/i64 arithmetic, shifts, rotates, comparisons.
  Program p;
  p.name = "arith_mix";
  p.bytes = build_single_func({{I32, I32}, {I64}}, [](auto& f) {
    u32 a = 0, b = 1;
    f.local_get(a);
    f.local_get(b);
    f.op(Op::kI32Rotl);
    f.local_get(a);
    f.local_get(b);
    f.op(Op::kI32Xor);
    f.op(Op::kI32Sub);
    f.op(Op::kI64ExtendI32S);
    f.local_get(a);
    f.op(Op::kI64ExtendI32U);
    f.i64_const(2654435761);
    f.op(Op::kI64Mul);
    f.op(Op::kI64Add);
    f.local_get(b);
    f.op(Op::kI64ExtendI32S);
    f.i64_const(13);
    f.op(Op::kI64Rotr);
    f.op(Op::kI64Xor);
    f.end();
  });
  for (i32 x : {0, 1, -1, 12345, -98765, INT32_MAX, INT32_MIN})
    for (i32 y : {0, 3, 31, 33, -7})
      p.inputs.push_back({Value::from_i32(x), Value::from_i32(y)});
  return p;
}

Program make_float_kernel() {
  // A float-heavy kernel with min/max/copysign/nearest edge semantics.
  Program p;
  p.name = "float_kernel";
  p.bytes = build_single_func({{F64, F64}, {F64}}, [](auto& f) {
    f.local_get(0);
    f.local_get(1);
    f.op(Op::kF64Min);
    f.local_get(0);
    f.local_get(1);
    f.op(Op::kF64Max);
    f.op(Op::kF64Mul);
    f.local_get(0);
    f.op(Op::kF64Nearest);
    f.op(Op::kF64Add);
    f.local_get(1);
    f.op(Op::kF64Copysign);
    f.end();
  });
  for (f64 x : {0.0, -0.0, 1.5, -2.5, 1e300, -3.7})
    for (f64 y : {0.5, -0.5, 2.5, 1e-300})
      p.inputs.push_back({Value::from_f64(x), Value::from_f64(y)});
  return p;
}

Program make_loop_memory() {
  // Writes a[i] = i*i for i in 0..n, then sums with stride 3.
  Program p;
  p.name = "loop_memory";
  p.bytes = build_single_func({{I32}, {I64}}, [](auto& f) {
    u32 n = 0;
    u32 i = f.add_local(I32);
    u32 acc = f.add_local(I64);
    f.for_loop_i32(i, 0, n, 1, [&] {
      f.local_get(i);
      f.i32_const(4);
      f.op(Op::kI32Mul);
      f.local_get(i);
      f.local_get(i);
      f.op(Op::kI32Mul);
      f.mem_op(Op::kI32Store);
    });
    f.for_loop_i32(i, 0, n, 3, [&] {
      f.local_get(acc);
      f.local_get(i);
      f.i32_const(4);
      f.op(Op::kI32Mul);
      f.mem_op(Op::kI32Load);
      f.op(Op::kI64ExtendI32U);
      f.op(Op::kI64Add);
      f.local_set(acc);
    });
    f.local_get(acc);
    f.end();
  });
  for (i32 n : {0, 1, 2, 17, 100, 1000})
    p.inputs.push_back({Value::from_i32(n)});
  return p;
}

Program make_branchy() {
  // Dense control flow: br_table + nested ifs + early returns.
  Program p;
  p.name = "branchy";
  p.bytes = build_single_func({{I32, I32}, {I32}}, [](auto& f) {
    u32 out = f.add_local(I32);
    f.block();
    f.block();
    f.block();
    f.block();
    f.local_get(0);
    f.i32_const(4);
    f.op(Op::kI32RemU);
    f.br_table({0, 1, 2}, 3);
    f.end();
    f.local_get(1);
    f.i32_const(10);
    f.op(Op::kI32Add);
    f.local_set(out);
    f.br(2);
    f.end();
    f.local_get(1);
    f.i32_const(3);
    f.op(Op::kI32GtS);
    f.if_();
    f.i32_const(777);
    f.ret();
    f.end();
    f.i32_const(20);
    f.local_set(out);
    f.br(1);
    f.end();
    f.local_get(1);
    f.i32_const(0);
    f.op(Op::kI32Sub);
    f.local_set(out);
    f.br(0);
    f.end();
    f.local_get(out);
    f.i32_const(0);
    f.op(Op::kI32Eq);
    f.if_();
    f.i32_const(-1);
    f.local_set(out);
    f.end();
    f.local_get(out);
    f.end();
  });
  for (i32 x : {0, 1, 2, 3, 4, 5, 6, 7})
    for (i32 y : {0, 2, 4, 9, -3})
      p.inputs.push_back({Value::from_i32(x), Value::from_i32(y)});
  return p;
}

Program make_simd_dot() {
  // v128 dot-product-ish kernel over memory.
  Program p;
  p.name = "simd_dot";
  p.bytes = build_single_func({{I32}, {F64}}, [](auto& f) {
    u32 n = 0;
    u32 i = f.add_local(I32);
    u32 acc = f.add_local(V128T);
    // init: a[i] = i + 0.5 ; b[i] = 2i at bytes 0.. and 32768..
    f.for_loop_i32(i, 0, n, 1, [&] {
      f.local_get(i);
      f.i32_const(8);
      f.op(Op::kI32Mul);
      f.local_get(i);
      f.op(Op::kF64ConvertI32S);
      f.f64_const(0.5);
      f.op(Op::kF64Add);
      f.mem_op(Op::kF64Store);
      f.local_get(i);
      f.i32_const(8);
      f.op(Op::kI32Mul);
      f.local_get(i);
      f.i32_const(2);
      f.op(Op::kI32Mul);
      f.op(Op::kF64ConvertI32S);
      f.mem_op(Op::kF64Store, 32768);
    });
    // acc (f64x2) += a[i..i+2) * b[i..i+2), i += 2
    f.for_loop_i32(i, 0, n, 2, [&] {
      f.local_get(acc);
      f.local_get(i);
      f.i32_const(8);
      f.op(Op::kI32Mul);
      f.mem_op(Op::kV128Load);
      f.local_get(i);
      f.i32_const(8);
      f.op(Op::kI32Mul);
      f.mem_op(Op::kV128Load, 32768);
      f.op(Op::kF64x2Mul);
      f.op(Op::kF64x2Add);
      f.local_set(acc);
    });
    f.local_get(acc);
    f.lane_op(Op::kF64x2ExtractLane, 0);
    f.local_get(acc);
    f.lane_op(Op::kF64x2ExtractLane, 1);
    f.op(Op::kF64Add);
    f.end();
  });
  for (i32 n : {0, 2, 8, 64, 256})
    p.inputs.push_back({Value::from_i32(n)});
  return p;
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

std::vector<Program>& corpus() {
  static std::vector<Program> c = {make_arith_mix(), make_float_kernel(),
                                   make_loop_memory(), make_branchy(),
                                   make_simd_dot()};
  return c;
}

INSTANTIATE_TEST_SUITE_P(Corpus, DifferentialTest,
                         ::testing::Range(0, 5), [](const auto& info) {
                           return corpus()[info.param].name;
                         });

TEST_P(DifferentialTest, AllConfigsAgreeBitExactly) {
  const Program& p = corpus()[GetParam()];
  const auto cfgs = all_engine_configs();
  std::vector<std::shared_ptr<rt::Instance>> instances;
  for (const EngineConfig& cfg : cfgs)
    instances.push_back(instantiate_cfg(p.bytes, cfg));
  for (size_t k = 0; k < p.inputs.size(); ++k) {
    std::vector<u64> results;
    for (auto& inst : instances) {
      Value v = inst->invoke("run", p.inputs[k]);
      results.push_back(v.slot.u64v);
    }
    for (size_t t = 1; t < results.size(); ++t) {
      EXPECT_EQ(results[0], results[t])
          << p.name << " input#" << k << ": interp vs " << config_label(cfgs[t]);
    }
  }
}

TEST(DifferentialTraps, AllConfigsAgreeOnTrapKind) {
  // A trapping program must trap identically everywhere — including after
  // the successful calls that built the function.
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.i32_const(100);
    f.local_get(0);
    f.op(Op::kI32DivU);
    f.end();
  });
  for (const EngineConfig& cfg : all_engine_configs()) {
    auto inst = instantiate_cfg(bytes, cfg);
    // Several good calls first, through the body the first one built.
    for (int k = 0; k < 5; ++k) {
      EXPECT_EQ(
          inst->invoke("run", std::vector<Value>{Value::from_i32(5)}).as_i32(),
          20)
          << config_label(cfg);
    }
    try {
      inst->invoke("run", std::vector<Value>{Value::from_i32(0)});
      FAIL() << "expected trap on " << config_label(cfg);
    } catch (const rt::Trap& t) {
      EXPECT_EQ(t.kind(), rt::TrapKind::kIntegerDivByZero);
    }
  }
}

// ---------------------------------------------------------------------------
// Out-of-bounds trap differential: a loop that runs off the end of memory
// must trap at exactly the original access — same trap kind, message and
// prefix of observable stores — under every engine configuration. The
// executor checks each access; native code checks none, so there the trap
// comes from a fault in the guard region.
//
// The boundary sweep has one counted loop per access width (i32, i64, f32,
// f64, v128), load and store, plain and indexed address form. Each walks
// toward the end of memory in steps of its width from `k` bytes past an
// aligned start, so its first failing access straddles the end by k bytes
// (k = 0: it lies wholly past the end). With grow = 1 the loop first grows
// the memory by a page and walks toward the new end. Iteration i writes i
// to cell 0 before its access, and stores write values with no zero byte,
// so a partial store would show in the memory image.
// ---------------------------------------------------------------------------

struct SweepAccess {
  const char* name;
  ValType type;
  u32 width_log2;
  Op load, store;
};

constexpr SweepAccess kSweepAccesses[] = {
    {"i32", I32, 2, Op::kI32Load, Op::kI32Store},
    {"i64", I64, 3, Op::kI64Load, Op::kI64Store},
    {"f32", F32, 2, Op::kF32Load, Op::kF32Store},
    {"f64", F64, 3, Op::kF64Load, Op::kF64Store},
    {"v128", V128T, 4, Op::kV128Load, Op::kV128Store},
};

constexpr i32 kSweepIters = 8;     // the 4th or 5th access fails
constexpr i32 kSweepLoadCell = 64;  // loads copy their value here

std::string sweep_export(const SweepAccess& acc, bool store, bool indexed) {
  return std::string(acc.name) + (store ? ".store" : ".load") +
         (indexed ? ".ix" : ".plain");
}

/// Pushes the value iteration `i` stores: no zero byte in any lane.
void push_sweep_value(wasm::FunctionBuilder& f, const SweepAccess& acc,
                      u32 i) {
  if (acc.type == I64 || acc.type == F64) {
    f.i64_const(i64(0xA1B2C3D4E5F60710ull));
    f.local_get(i);
    f.op(Op::kI64ExtendI32U);
    f.op(Op::kI64Add);
    if (acc.type == F64) f.op(Op::kF64ReinterpretI64);
    return;
  }
  f.i32_const(i32(0xA1B2C3D0u));
  f.local_get(i);
  f.op(Op::kI32Add);
  if (acc.type == F32) f.op(Op::kF32ReinterpretI32);
  if (acc.type == V128T) f.op(Op::kI32x4Splat);
}

/// Exports one `(k, grow) -> ()` sweep loop per access, direction and form.
std::vector<u8> boundary_sweep_module() {
  ModuleBuilder b;
  b.add_memory(1, 4, true);
  for (const SweepAccess& acc : kSweepAccesses) {
    const i32 width = 1 << acc.width_log2;
    for (bool store : {false, true}) {
      for (bool indexed : {false, true}) {
        auto& f =
            b.begin_func({{I32, I32}, {}}, sweep_export(acc, store, indexed));
        const u32 k = 0, grow = 1;
        const u32 i = f.add_local(I32), n = f.add_local(I32);
        const u32 base = f.add_local(I32), addr = f.add_local(I32);
        const u32 v = f.add_local(acc.type);
        f.local_get(grow);
        f.if_();
        f.i32_const(1);
        f.op(Op::kMemoryGrow);
        f.op(Op::kDrop);
        f.end();
        // base = addr = size - 4 * width + k
        f.op(Op::kMemorySize);
        f.i32_const(16);
        f.op(Op::kI32Shl);
        f.i32_const(-4 * width);
        f.op(Op::kI32Add);
        f.local_get(k);
        f.op(Op::kI32Add);
        f.local_tee(base);
        f.local_set(addr);
        f.i32_const(kSweepIters);
        f.local_set(n);
        f.for_loop_i32(i, 0, n, 1, [&] {
          f.i32_const(0);
          f.local_get(i);
          f.mem_op(Op::kI32Store);
          if (store) {
            push_sweep_value(f, acc, i);
            f.local_set(v);
          } else {
            f.i32_const(kSweepLoadCell);
          }
          if (indexed) {  // base + (i << width_log2)
            f.local_get(base);
            f.local_get(i);
            f.i32_const(i32(acc.width_log2));
            f.op(Op::kI32Shl);
            f.op(Op::kI32Add);
          } else {
            f.local_get(addr);
          }
          if (store) {
            f.local_get(v);
            f.mem_op(acc.store);
          } else {
            f.mem_op(acc.load);
            f.mem_op(acc.store);
          }
          f.local_get(addr);
          f.i32_const(width);
          f.op(Op::kI32Add);
          f.local_set(addr);
        });
        f.end();
      }
    }
  }
  return b.build();
}

struct SweepOutcome {
  bool trapped = false;
  rt::TrapKind kind = rt::TrapKind::kHostError;
  std::string what;
  std::vector<u8> image;  // the whole linear memory afterwards
};

SweepOutcome run_sweep(const std::shared_ptr<const rt::CompiledModule>& cm,
                       const std::string& name, i32 k, i32 grow) {
  rt::Instance inst(cm, rt::ImportTable{});
  SweepOutcome out;
  try {
    inst.invoke(name, std::vector<Value>{Value::from_i32(k),
                                         Value::from_i32(grow)});
  } catch (const rt::Trap& t) {
    out.trapped = true;
    out.kind = t.kind();
    out.what = t.what();
  }
  const u8* mem = inst.memory().base();
  out.image.assign(mem, mem + inst.memory().byte_size());
  return out;
}

bool has_indexed_access(const rt::RFunc& f) {
  for (const rt::RInstr& in : f.code)
    if (in.op >= rt::ROp::kI32LoadIx && in.op <= rt::ROp::kV128StoreIx)
      return true;
  return false;
}

TEST(DifferentialTraps, OobUnderHoistedGuardsMatchesInterp) {
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    u32 n = 0;
    u32 i = f.add_local(I32);
    f.for_loop_i32(i, 0, n, 1, [&] {
      f.local_get(i);
      f.i32_const(4);
      f.op(Op::kI32Mul);
      f.local_get(i);
      f.i32_const(3);
      f.op(Op::kI32Mul);
      f.mem_op(Op::kI32Store);
    });
    f.i32_const(0);
    f.mem_op(Op::kI32Load);
    f.end();
  });
  const i32 oob_n = 16384 + 7;  // one page holds 16384 i32 slots
  // Reference prefix from the interpreter.
  auto ref = instantiate(bytes, EngineTier::kInterp);
  EXPECT_THROW(ref->invoke("run", std::vector<Value>{Value::from_i32(oob_n)}),
               rt::Trap);
  for (const EngineConfig& cfg : all_engine_configs()) {
    auto inst = instantiate_cfg(bytes, cfg);
    // Warm calls first, through the body the first one built.
    for (int w = 0; w < 5; ++w) {
      inst->invoke("run", std::vector<Value>{Value::from_i32(64)});
    }
    try {
      inst->invoke("run", std::vector<Value>{Value::from_i32(oob_n)});
      FAIL() << "expected trap under " << config_label(cfg);
    } catch (const rt::Trap& t) {
      EXPECT_EQ(t.kind(), rt::TrapKind::kMemoryOutOfBounds) << config_label(cfg);
    }
    for (u64 off : {0ull, 4ull * 777, 4ull * 16383}) {
      EXPECT_EQ(ref->memory().load<u32>(off), inst->memory().load<u32>(off))
          << config_label(cfg) << " at byte " << off;
    }
  }

  // Boundary sweep: every (access, k, grow) against the interpreter.
  auto sweep = boundary_sweep_module();
  struct Case {
    std::string name;
    i32 k, grow;
    bool indexed;
  };
  std::vector<Case> cases;
  for (const SweepAccess& acc : kSweepAccesses)
    for (bool store : {false, true})
      for (bool indexed : {false, true})
        for (i32 k = 0; k < (1 << acc.width_log2); ++k)
          for (i32 grow : {0, 1})
            cases.push_back(
                {sweep_export(acc, store, indexed), k, grow, indexed});
  std::vector<SweepOutcome> want;
  {
    EngineConfig interp;
    interp.tier = EngineTier::kInterp;
    auto cm = rt::compile({sweep.data(), sweep.size()}, interp);
    for (const Case& c : cases) {
      want.push_back(run_sweep(cm, c.name, c.k, c.grow));
      const SweepOutcome& w = want.back();
      ASSERT_TRUE(w.trapped) << c.name;
      ASSERT_EQ(w.kind, rt::TrapKind::kMemoryOutOfBounds) << c.name;
      u32 iter = 0;
      std::memcpy(&iter, w.image.data(), 4);
      EXPECT_EQ(iter, c.k == 0 ? 4u : 3u) << c.name << " k=" << c.k;
    }
  }
  for (const EngineConfig& cfg : all_engine_configs()) {
    auto cm = rt::compile({sweep.data(), sweep.size()}, cfg);
    for (size_t ci = 0; ci < cases.size(); ++ci) {
      const Case& c = cases[ci];
      const std::string label = config_label(cfg) + " " + c.name +
                                " k=" + std::to_string(c.k) +
                                " grow=" + std::to_string(c.grow);
      if (cm->tier == EngineTier::kJit && c.k == 0 && c.grow == 0) {
        // The sweep must exercise both address forms in native code.
        rt::Instance probe(cm, rt::ImportTable{});
        const rt::RFunc& body =
            rt::compiled_body(*cm, *probe.exported_func(c.name));
        ASSERT_NE(body.jit, nullptr) << label;
        EXPECT_GT(body.jit->fault_sites, 0u) << label;
        EXPECT_EQ(has_indexed_access(body), c.indexed) << label;
      }
      const SweepOutcome got = run_sweep(cm, c.name, c.k, c.grow);
      const SweepOutcome& w = want[ci];
      EXPECT_TRUE(got.trapped) << label;
      EXPECT_EQ(got.kind, w.kind) << label;
      EXPECT_EQ(got.what, w.what) << label;
      ASSERT_EQ(got.image.size(), w.image.size()) << label;
      auto diff = std::mismatch(got.image.begin(), got.image.end(),
                                w.image.begin());
      EXPECT_TRUE(diff.first == got.image.end())
          << label << ": memory differs at byte "
          << (diff.first - got.image.begin());
    }
  }
}

// ---------------------------------------------------------------------------
// Toolchain-kernel differential: every generated benchmark kernel runs
// through the embedder under all three tiers, and
// must produce identical correctness-relevant outputs (exit codes, report
// row counts, checksums/residuals/verification flags — not timings).
// ---------------------------------------------------------------------------

struct KernelRun {
  int exit_code = 0;
  std::string stdout_text;
  std::vector<bench::ReportRow> rows;
};

/// Rank threads interleave nondeterministically; compare stdout as a
/// sorted line multiset.
std::string normalized_stdout(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

KernelRun run_kernel_cfg(const std::vector<u8>& bytes, int ranks,
                         const EngineConfig& engine,
                         embed::EmbedderConfig cfg = {}) {
  bench::ReportCollector collector;
  cfg.engine = engine;
  cfg.extra_imports = collector.hook();
  KernelRun out;
  std::mutex mu;
  cfg.stdout_sink = [&](int, std::string_view s) {
    std::lock_guard<std::mutex> lock(mu);
    out.stdout_text.append(s);
  };
  embed::Embedder emb(cfg);
  auto result = emb.run_world({bytes.data(), bytes.size()}, ranks);
  out.exit_code = result.exit_code;
  out.rows = collector.rows();
  return out;
}

/// Runs `bytes` under every engine config and checks the deterministic
/// projection of each run against the interp reference.
void expect_kernel_agreement(
    const std::string& kernel, const std::vector<u8>& bytes, int ranks,
    const std::function<std::vector<f64>(const KernelRun&)>& project,
    embed::EmbedderConfig cfg = {}) {
  const auto cfgs = all_engine_configs();
  KernelRun ref;
  std::vector<f64> ref_proj;
  for (size_t i = 0; i < cfgs.size(); ++i) {
    KernelRun run = run_kernel_cfg(bytes, ranks, cfgs[i], cfg);
    if (i == 0) {
      ref = std::move(run);
      ref_proj = project(ref);
      continue;
    }
    const std::string label = kernel + ": interp vs " + config_label(cfgs[i]);
    EXPECT_EQ(ref.exit_code, run.exit_code) << label;
    EXPECT_EQ(normalized_stdout(ref.stdout_text),
              normalized_stdout(run.stdout_text))
        << label;
    EXPECT_EQ(ref.rows.size(), run.rows.size()) << label;
    std::vector<f64> proj = project(run);
    ASSERT_EQ(ref_proj.size(), proj.size()) << label;
    for (size_t k = 0; k < proj.size(); ++k) {
      EXPECT_EQ(ref_proj[k], proj[k]) << label << " field#" << k;
    }
  }
}

std::vector<f64> no_fields(const KernelRun&) { return {}; }

TEST(KernelDifferential, MicroKernels) {
  using namespace toolchain;
  expect_kernel_agreement("hello", build_hello_module(), 2, no_fields);
  expect_kernel_agreement("compute", build_compute_module(2000), 1, no_fields);
  expect_kernel_agreement("allreduce_check", build_allreduce_check_module(), 4,
                          no_fields);
  expect_kernel_agreement("alloc_mem", build_alloc_mem_module(), 1, no_fields);
}

TEST(KernelDifferential, ThreadsCheck) {
  // Guest probe: MPI_Init_thread must report MPI_THREAD_MULTIPLE, wasi
  // thread-spawn must work, and the 0xFE atomics (rmw contention, fence,
  // wait/notify, cmpxchg) must behave — under every engine config.
  expect_kernel_agreement("threads_check",
                          toolchain::build_threads_check_module(), 2,
                          no_fields);
}

TEST(KernelDifferential, Hpcg) {
  toolchain::HpcgParams p;
  p.n_per_rank = 128;
  p.iterations = 5;
  expect_kernel_agreement("hpcg", toolchain::build_hpcg_module(p), 2,
                          [](const KernelRun& r) {
                            std::vector<f64> v;
                            for (const auto& row : r.rows)
                              v.push_back(row.c);  // residual
                            return v;
                          });
}

TEST(KernelDifferential, IntegerSort) {
  toolchain::IsParams p;
  p.keys_per_rank = 1 << 9;
  p.repetitions = 2;
  expect_kernel_agreement("is", toolchain::build_is_module(p), 2,
                          [](const KernelRun& r) {
                            std::vector<f64> v;
                            for (const auto& row : r.rows)
                              v.push_back(row.b);  // verification flag
                            return v;
                          });
}

TEST(KernelDifferential, DataTraffic) {
  toolchain::DtParams p;
  p.doubles_per_msg = 1 << 7;
  p.repetitions = 2;
  expect_kernel_agreement("dt", toolchain::build_dt_module(p), 3,
                          [](const KernelRun& r) {
                            std::vector<f64> v;
                            for (const auto& row : r.rows)
                              v.push_back(row.b);  // checksum
                            return v;
                          });
}

TEST(KernelDifferential, ImbPingPong) {
  toolchain::ImbParams p;
  p.max_bytes = 1 << 8;
  p.base_iters = 1 << 10;
  p.max_iters = 4;
  // Timings differ run to run; row count + exit code are the contract.
  expect_kernel_agreement("imb_pingpong", toolchain::build_imb_module(p), 2,
                          no_fields);
}

TEST(KernelDifferential, DatatypeProbe) {
  toolchain::DatatypePingPongParams p;
  p.max_bytes = 1 << 9;
  p.iters_per_size = 2;
  expect_kernel_agreement("datatype_probe",
                          toolchain::build_datatype_pingpong_module(p), 2,
                          no_fields);
}

TEST(KernelDifferential, IorThroughSandbox) {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() /
             ("mpiwasm-difftest-ior-" + std::to_string(::getpid()));
  toolchain::IorParams p;
  p.block_bytes = 1 << 12;
  p.blocks = 2;
  p.repetitions = 1;
  auto bytes = toolchain::build_ior_module(p);
  for (const EngineConfig& engine : all_engine_configs()) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    embed::EmbedderConfig cfg;
    cfg.preopens = {{dir.string(), "data", false}};
    KernelRun run = run_kernel_cfg(bytes, 2, engine, cfg);
    EXPECT_EQ(run.exit_code, 0) << config_label(engine);
    ASSERT_EQ(run.rows.size(), 1u) << config_label(engine);
    EXPECT_GT(run.rows[0].a, 0.0) << config_label(engine);
    EXPECT_GT(run.rows[0].b, 0.0) << config_label(engine);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mpiwasm::test
