// Toolchain kernel tests: every generated benchmark module validates,
// runs at small scale through the embedder, and agrees with its native
// twin on correctness-relevant outputs (checksums, verification flags).
#include "testlib.h"

#include <filesystem>

#include "benchlib/harness.h"
#include "embedder/embedder.h"
#include "toolchain/kernels.h"
#include "toolchain/native_kernels.h"

namespace mpiwasm::test {
namespace {

namespace fs = std::filesystem;
using bench::ReportCollector;
using embed::Embedder;
using embed::EmbedderConfig;
using namespace toolchain;

std::vector<bench::ReportRow> run_kernel(const std::vector<u8>& bytes,
                                         int ranks,
                                         EmbedderConfig cfg = {}) {
  ReportCollector collector;
  cfg.extra_imports = collector.hook();
  Embedder emb(cfg);
  auto result = emb.run_world({bytes.data(), bytes.size()}, ranks);
  EXPECT_EQ(result.exit_code, 0);
  return collector.rows();
}

TEST(KernelImb, EveryRoutineBuildsAndRuns) {
  for (ImbRoutine r :
       {ImbRoutine::kPingPong, ImbRoutine::kSendRecv, ImbRoutine::kBcast,
        ImbRoutine::kAllReduce, ImbRoutine::kAllGather, ImbRoutine::kAlltoall,
        ImbRoutine::kReduce, ImbRoutine::kGather, ImbRoutine::kScatter}) {
    ImbParams p;
    p.routine = r;
    p.max_bytes = 1 << 10;
    p.base_iters = 1 << 11;
    p.max_iters = 8;
    auto bytes = build_imb_module(p);
    auto rows = run_kernel(bytes, 2);
    // One report per message size (1..1024 = 11 sizes), from rank 0 only.
    EXPECT_EQ(rows.size(), 11u) << imb_routine_name(r);
    for (const auto& row : rows) {
      EXPECT_GT(row.b, 0.0) << "t_avg_us must be positive";
    }
  }
}

TEST(KernelImb, ItersScaleDownWithSize) {
  ImbParams p;
  EXPECT_GT(imb_iters_for(p, 1), imb_iters_for(p, 1 << 20));
  EXPECT_GE(imb_iters_for(p, 1 << 22), p.min_iters);
  EXPECT_LE(imb_iters_for(p, 1), p.max_iters);
}

TEST(KernelHpcg, WasmMatchesNativeResidualAcrossRankCounts) {
  // Both kernel builds: the scalar loops, and the f64x2 SIMD twin whose
  // native counterpart mirrors the two-lane dot accumulation — residuals
  // must stay bit-exact either way.
  for (bool simd : {false, true}) {
    HpcgParams p;
    p.n_per_rank = 256;
    p.iterations = 8;
    p.use_simd = simd;
    auto bytes = build_hpcg_module(p);
    for (int ranks : {1, 2, 4}) {
      auto rows = run_kernel(bytes, ranks);
      ASSERT_EQ(rows.size(), 1u);
      f64 wasm_residual = rows[0].c;

      f64 native_residual = -1;
      simmpi::World world(ranks);
      world.run([&](simmpi::Rank& r) {
        auto res = native_hpcg_run(r, p);
        if (r.rank() == 0) native_residual = res.residual;
      });
      EXPECT_EQ(wasm_residual, native_residual)
          << "ranks=" << ranks << " simd=" << simd;
    }
  }
}

TEST(KernelIs, VerifiesAndMatchesNativeAcrossRankCounts) {
  IsParams p;
  p.keys_per_rank = 1 << 10;
  p.repetitions = 2;
  auto bytes = build_is_module(p);
  for (int ranks : {1, 2, 4, 5}) {
    auto rows = run_kernel(bytes, ranks);
    ASSERT_EQ(rows.size(), 1u) << "ranks=" << ranks;
    EXPECT_EQ(rows[0].b, 1.0) << "IS verification failed at ranks=" << ranks;

    simmpi::World world(ranks);
    world.run([&](simmpi::Rank& r) {
      auto res = native_is_run(r, p);
      if (r.rank() == 0) {
        EXPECT_TRUE(res.ok);
      }
    });
  }
}

TEST(KernelDt, ChecksumsMatchNativeForAllTopologies) {
  for (DtTopology topo :
       {DtTopology::kBlackHole, DtTopology::kWhiteHole, DtTopology::kShuffle}) {
    DtParams p;
    p.topology = topo;
    p.doubles_per_msg = 1 << 8;
    p.repetitions = 3;
    p.use_simd = false;
    auto scalar = build_dt_module(p);
    p.use_simd = true;
    auto simd = build_dt_module(p);

    auto rows_scalar = run_kernel(scalar, 4);
    auto rows_simd = run_kernel(simd, 4);
    ASSERT_EQ(rows_scalar.size(), 1u);
    ASSERT_EQ(rows_simd.size(), 1u);

    f64 native_checksum = 0;
    simmpi::World world(4);
    world.run([&](simmpi::Rank& r) {
      auto res = native_dt_run(r, p);
      if (r.rank() == 0) native_checksum = res.checksum;
    });

    // Same combine arithmetic => identical checksums in all three builds.
    EXPECT_EQ(rows_scalar[0].b, native_checksum)
        << dt_topology_name(topo) << " scalar";
    EXPECT_EQ(rows_simd[0].b, native_checksum)
        << dt_topology_name(topo) << " simd";
  }
}

TEST(KernelIor, WritesAndReadsThroughSandbox) {
  auto dir = fs::temp_directory_path() /
             ("mpiwasm-ior-test-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  IorParams p;
  p.block_bytes = 1 << 14;
  p.blocks = 4;
  p.repetitions = 2;
  auto bytes = build_ior_module(p);

  EmbedderConfig cfg;
  cfg.preopens = {{dir.string(), "data", false}};
  auto rows = run_kernel(bytes, 2, cfg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0].a, 0.0) << "write bandwidth";
  EXPECT_GT(rows[0].b, 0.0) << "read bandwidth";
  // Files must exist with the right size (blocks * block_bytes).
  for (char c : {'A', 'B'}) {
    fs::path file = dir / (std::string("r") + c + ".dat");
    ASSERT_TRUE(fs::exists(file)) << file;
    EXPECT_EQ(fs::file_size(file), u64(p.blocks) * p.block_bytes);
  }
  fs::remove_all(dir);
}

TEST(KernelIor, FailsLoudlyWithoutPreopen) {
  IorParams p;
  p.block_bytes = 1 << 12;
  p.blocks = 1;
  p.repetitions = 1;
  auto bytes = build_ior_module(p);
  ReportCollector collector;
  EmbedderConfig cfg;
  cfg.extra_imports = collector.hook();
  Embedder emb(cfg);
  auto result = emb.run_world({bytes.data(), bytes.size()}, 1);
  EXPECT_EQ(result.exit_code, 90);  // kernel's path_open failure exit
}

TEST(KernelDatatypeProbe, CoversAllDatatypesAndSizes) {
  DatatypePingPongParams p;
  p.max_bytes = 1 << 9;  // 8 and 64 and 512
  p.iters_per_size = 2;
  auto bytes = build_datatype_pingpong_module(p);
  auto rows = run_kernel(bytes, 2);
  // sizes {8, 64, 512} x 6 datatypes = 18 completion reports.
  EXPECT_EQ(rows.size(), 18u);
}

TEST(KernelTiers, HpcgIdenticalAcrossTiers) {
  HpcgParams p;
  p.n_per_rank = 128;
  p.iterations = 5;
  auto bytes = build_hpcg_module(p);
  std::vector<f64> residuals;
  for (EngineTier tier : all_tiers()) {
    EmbedderConfig cfg;
    cfg.engine.tier = tier;
    auto rows = run_kernel(bytes, 2, cfg);
    ASSERT_EQ(rows.size(), 1u);
    residuals.push_back(rows[0].c);
  }
  EXPECT_EQ(residuals[0], residuals[1]);
  EXPECT_EQ(residuals[0], residuals[2]);
}

TEST(KernelCanonicalIds, MatchTheFirstStructurallyEqualType) {
  // call_indirect compares canonical signature ids: each type's id is the
  // index of the first structurally equal type, and each function's is its
  // type's. Checked against the pairwise definition on every kernel.
  const std::vector<std::pair<const char*, std::vector<u8>>> kernels = {
      {"imb", build_imb_module(ImbParams{})},
      {"hpcg", build_hpcg_module(HpcgParams{})},
      {"is", build_is_module(IsParams{})},
      {"dt", build_dt_module(DtParams{})},
      {"ior", build_ior_module(IorParams{})},
      {"datatype", build_datatype_pingpong_module(DatatypePingPongParams{})},
      {"overlap", build_overlap_module(OverlapParams{})},
      {"micro", build_micro_kernel_module(MicroKernelParams{})},
      {"threaded micro",
       build_threaded_micro_kernel_module(ThreadedKernelParams{})},
      {"threaded cg", build_threaded_cg_module(ThreadedCgParams{})},
      {"threads check", build_threads_check_module()},
      {"hello", build_hello_module()},
      {"compile stress", build_compile_stress_module(16)},
      {"allreduce check", build_allreduce_check_module()},
      {"icoll check", build_icoll_check_module()},
  };
  for (const auto& [name, bytes] : kernels) {
    SCOPED_TRACE(name);
    EngineConfig cfg;
    cfg.tier = EngineTier::kInterp;
    auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
    const wasm::Module& m = cm->module;
    std::vector<u32> canon(m.types.size());
    for (u32 i = 0; i < m.types.size(); ++i) {
      canon[i] = i;
      for (u32 j = 0; j < i; ++j)
        if (m.types[j] == m.types[i]) {
          canon[i] = j;
          break;
        }
    }
    EXPECT_EQ(cm->canon_type_ids, canon);
    ASSERT_EQ(cm->func_canon.size(), m.total_funcs());
    for (u32 f = 0; f < m.total_funcs(); ++f)
      EXPECT_EQ(cm->func_canon[f], canon[&m.func_type(f) - m.types.data()])
          << "func " << f;
  }
}

}  // namespace
}  // namespace mpiwasm::test
