// Embedder integration tests: end-to-end MPI-over-Wasm execution, handle
// and address translation, Alloc_mem via exported malloc, comm management
// from the guest, the copy-mode ablation, and the Faasm-compat subset.
#include "testlib.h"

#include <set>

#include "embedder/abi.h"
#include "embedder/embedder.h"
#include "toolchain/kernels.h"
#include "toolchain/mpi_imports.h"
#include "toolchain/native_kernels.h"

namespace mpiwasm::test {
namespace {

using embed::Embedder;
using embed::EmbedderConfig;
namespace abi = embed::abi;
using toolchain::MpiImports;
using toolchain::MpiImportSet;

class EmbedderTest : public ::testing::TestWithParam<EngineTier> {};

INSTANTIATE_TEST_SUITE_P(AllTiers, EmbedderTest,
                         ::testing::ValuesIn(all_tiers()),
                         [](const auto& info) {
                           return rt::tier_name(info.param);
                         });

EmbedderConfig config_for(EngineTier tier) {
  EmbedderConfig cfg;
  cfg.engine.tier = tier;
  cfg.engine.enable_cache = false;
  return cfg;
}

TEST_P(EmbedderTest, HelloRunsOnEveryRankCount) {
  auto bytes = toolchain::build_hello_module();
  for (int ranks : {1, 2, 4, 7}) {
    std::mutex mu;
    std::string all_output;
    EmbedderConfig cfg = config_for(GetParam());
    cfg.stdout_sink = [&](int, std::string_view s) {
      std::lock_guard<std::mutex> lock(mu);
      all_output += s;
    };
    Embedder emb(cfg);
    auto result = emb.run_world({bytes.data(), bytes.size()}, ranks);
    EXPECT_EQ(result.exit_code, 0);
    for (int r = 0; r < ranks; ++r) {
      std::string expect = "hello from rank " + std::to_string(r) + " of " +
                           std::to_string(ranks) + "\n";
      EXPECT_NE(all_output.find(expect), std::string::npos)
          << "missing: " << expect;
    }
  }
}

TEST_P(EmbedderTest, AllreduceCheckPasses) {
  auto bytes = toolchain::build_allreduce_check_module();
  Embedder emb(config_for(GetParam()));
  for (int ranks : {1, 2, 3, 8}) {
    auto result = emb.run_world({bytes.data(), bytes.size()}, ranks);
    EXPECT_EQ(result.exit_code, 0) << "ranks=" << ranks;
  }
}

TEST_P(EmbedderTest, IcollCheckPasses) {
  auto bytes = toolchain::build_icoll_check_module();
  Embedder emb(config_for(GetParam()));
  for (int ranks : {1, 2, 3, 8}) {
    auto result = emb.run_world({bytes.data(), bytes.size()}, ranks);
    EXPECT_EQ(result.exit_code, 0) << "ranks=" << ranks;
  }
}

TEST_P(EmbedderTest, AllocMemUsesExportedMalloc) {
  auto bytes = toolchain::build_alloc_mem_module();
  Embedder emb(config_for(GetParam()));
  auto result = emb.run_world({bytes.data(), bytes.size()}, 2);
  EXPECT_EQ(result.exit_code, 0);
}

TEST_P(EmbedderTest, ComputeModuleExitCode) {
  auto bytes = toolchain::build_compute_module(10000);
  Embedder emb(config_for(GetParam()));
  auto result = emb.run_world({bytes.data(), bytes.size()}, 1);
  EXPECT_EQ(result.exit_code, toolchain::compute_module_expected(10000));
}

// Builds a module that round-trips a value through guest-side
// MPI_Comm_split + Allreduce on the sub-communicator.
std::vector<u8> build_comm_split_module() {
  using wasm::Op;
  wasm::ModuleBuilder b;
  MpiImportSet set;
  set.collectives = true;
  set.comm_mgmt = true;
  MpiImports mpi = toolchain::declare_mpi_imports(b, set);
  u32 proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit",
                                {{I32}, {}});
  b.add_memory(1);
  b.export_memory();
  auto& f = b.begin_func({{}, {}}, "_start");
  u32 rank = f.add_local(I32);
  u32 sub = f.add_local(I32);
  f.i32_const(0);
  f.i32_const(0);
  f.call(mpi.init);
  f.op(Op::kDrop);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(1024);
  f.call(mpi.comm_rank);
  f.op(Op::kDrop);
  f.i32_const(1024);
  f.mem_op(Op::kI32Load);
  f.local_set(rank);
  // split(world, color = rank % 2, key = rank) -> sub
  f.i32_const(abi::MPI_COMM_WORLD);
  f.local_get(rank);
  f.i32_const(2);
  f.op(Op::kI32RemS);
  f.local_get(rank);
  f.i32_const(1040);
  f.call(mpi.comm_split);
  f.op(Op::kDrop);
  f.i32_const(1040);
  f.mem_op(Op::kI32Load);
  f.local_set(sub);
  // allreduce(1, SUM) over sub -> group size
  f.i32_const(2048);
  f.i32_const(1);
  f.mem_op(Op::kI32Store);
  f.i32_const(2048);
  f.i32_const(2056);
  f.i32_const(1);
  f.i32_const(abi::MPI_INT);
  f.i32_const(abi::MPI_SUM);
  f.local_get(sub);
  f.call(mpi.allreduce);
  f.op(Op::kDrop);
  // exit(group size) — harness checks 2 for a 4-rank world.
  f.i32_const(2056);
  f.mem_op(Op::kI32Load);
  f.call(proc_exit);
  f.end();
  return b.build();
}

TEST_P(EmbedderTest, GuestCommSplitWorks) {
  auto bytes = build_comm_split_module();
  Embedder emb(config_for(GetParam()));
  auto result = emb.run_world({bytes.data(), bytes.size()}, 4);
  EXPECT_EQ(result.exit_code, 2);  // each parity class has 2 members
}

// Builds a module exercising the scan-family imports plus MPI_IN_PLACE:
// scan of (rank + 1), then an in-place MAX allreduce of the prefix sums.
std::vector<u8> build_scan_in_place_module() {
  using wasm::Op;
  wasm::ModuleBuilder b;
  MpiImportSet set;
  set.collectives = true;
  set.scan_family = true;
  MpiImports mpi = toolchain::declare_mpi_imports(b, set);
  u32 proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit",
                                {{I32}, {}});
  b.add_memory(1);
  b.export_memory();
  auto& f = b.begin_func({{}, {}}, "_start");
  f.i32_const(0);
  f.i32_const(0);
  f.call(mpi.init);
  f.op(Op::kDrop);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(1024);
  f.call(mpi.comm_rank);
  f.op(Op::kDrop);
  // mem[1024] = rank + 1
  f.i32_const(1024);
  f.i32_const(1024);
  f.mem_op(Op::kI32Load);
  f.i32_const(1);
  f.op(Op::kI32Add);
  f.mem_op(Op::kI32Store);
  // Scan(1024 -> 2048, 1, INT, SUM): prefix sum (rank+1)(rank+2)/2
  f.i32_const(1024);
  f.i32_const(2048);
  f.i32_const(1);
  f.i32_const(abi::MPI_INT);
  f.i32_const(abi::MPI_SUM);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.call(mpi.scan);
  f.op(Op::kDrop);
  // Allreduce(IN_PLACE, 2048, 1, INT, MAX): n(n+1)/2 everywhere
  f.i32_const(abi::MPI_IN_PLACE);
  f.i32_const(2048);
  f.i32_const(1);
  f.i32_const(abi::MPI_INT);
  f.i32_const(abi::MPI_MAX);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.call(mpi.allreduce);
  f.op(Op::kDrop);
  f.i32_const(2048);
  f.mem_op(Op::kI32Load);
  f.call(proc_exit);
  f.end();
  return b.build();
}

TEST_P(EmbedderTest, GuestScanAndInPlaceAllreduce) {
  auto bytes = build_scan_in_place_module();
  Embedder emb(config_for(GetParam()));
  auto result = emb.run_world({bytes.data(), bytes.size()}, 4);
  EXPECT_EQ(result.exit_code, 10);  // 4 * 5 / 2
}

TEST(EmbedderModes, GuestScanInPlaceAllreduceCopyMode) {
  // The staged (zero_copy = false) path must preserve IN_PLACE semantics.
  auto bytes = build_scan_in_place_module();
  EmbedderConfig cfg;
  cfg.zero_copy = false;
  Embedder emb(cfg);
  auto result = emb.run_world({bytes.data(), bytes.size()}, 4);
  EXPECT_EQ(result.exit_code, 10);
}

TEST(EmbedderModes, FaasmCompatRejectsCommSplit) {
  auto bytes = build_comm_split_module();
  EmbedderConfig cfg;
  cfg.faasm_compat = true;
  Embedder emb(cfg);
  // Faasm supports no user-defined communicators (§6): the import does not
  // resolve and instantiation fails as a link error.
  EXPECT_THROW(emb.run_world({bytes.data(), bytes.size()}, 4), rt::LinkError);
}

TEST(EmbedderModes, FaasmCompatStillRunsP2P) {
  toolchain::ImbParams p;
  p.routine = toolchain::ImbRoutine::kPingPong;
  p.max_bytes = 1 << 10;
  p.base_iters = 1 << 12;
  auto bytes = toolchain::build_imb_module(p);
  EmbedderConfig cfg;
  cfg.faasm_compat = true;
  cfg.extra_imports = [](rt::ImportTable& t, int) {
    t.add("bench", "report", {{I32, F64, F64, F64}, {}},
          [](rt::HostContext&, const rt::Slot*, rt::Slot*) {});
  };
  Embedder emb(cfg);
  auto result = emb.run_world({bytes.data(), bytes.size()}, 2);
  EXPECT_EQ(result.exit_code, 0);
}

TEST(EmbedderModes, CopyModeMatchesZeroCopyResults) {
  // The §3.5 ablation: zero-copy off must change performance, not results.
  auto bytes = toolchain::build_allreduce_check_module();
  EmbedderConfig cfg;
  cfg.zero_copy = false;
  Embedder emb(cfg);
  auto result = emb.run_world({bytes.data(), bytes.size()}, 4);
  EXPECT_EQ(result.exit_code, 0);
}

TEST(EmbedderModes, TranslationInstrumentationCollectsSamples) {
  toolchain::DatatypePingPongParams p;
  p.max_bytes = 1 << 12;
  p.iters_per_size = 4;
  auto bytes = toolchain::build_datatype_pingpong_module(p);
  EmbedderConfig cfg;
  cfg.record_translation = true;
  cfg.extra_imports = [](rt::ImportTable& t, int) {
    t.add("bench", "report",
          {{I32, F64, F64, F64}, {}},
          [](rt::HostContext&, const rt::Slot*, rt::Slot*) {});
  };
  Embedder emb(cfg);
  auto result = emb.run_world({bytes.data(), bytes.size()}, 2);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_FALSE(result.translation_samples.empty());
  // Samples must cover all six datatypes of Figure 6.
  std::set<i32> seen;
  for (const auto& s : result.translation_samples) seen.insert(s.wasm_datatype);
  EXPECT_GE(seen.size(), 6u);
}

TEST(EmbedderModes, InvalidDatatypeHandleTraps) {
  using wasm::Op;
  wasm::ModuleBuilder b;
  MpiImportSet set;
  set.collectives = true;
  MpiImports mpi = toolchain::declare_mpi_imports(b, set);
  b.add_memory(1);
  b.export_memory();
  auto& f = b.begin_func({{}, {}}, "_start");
  f.i32_const(0);
  f.i32_const(0);
  f.call(mpi.init);
  f.op(Op::kDrop);
  f.i32_const(1024);
  f.i32_const(2048);
  f.i32_const(1);
  f.i32_const(999);  // bogus datatype handle
  f.i32_const(abi::MPI_SUM);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.call(mpi.allreduce);
  f.op(Op::kDrop);
  f.end();
  auto bytes = b.build();
  Embedder emb(EmbedderConfig{});
  EXPECT_THROW(emb.run_world({bytes.data(), bytes.size()}, 1), rt::Trap);
}

// MPI_Alltoall whose send block (16 ints) is larger than its receive block
// (8 ints), with the receive buffer ending at the last byte of linear
// memory. The host validates the receive view for recvcount x size bytes
// only, so copying a whole send block would write past the end of memory:
// the call must trap instead.
std::vector<u8> build_truncating_alltoall_module(int ranks) {
  using wasm::Op;
  constexpr i32 kSendCount = 16, kRecvCount = 8;
  wasm::ModuleBuilder b;
  MpiImportSet set;
  set.alltoall = true;
  MpiImports mpi = toolchain::declare_mpi_imports(b, set);
  b.add_memory(1);
  b.export_memory();
  auto& f = b.begin_func({{}, {}}, "_start");
  f.i32_const(0);
  f.i32_const(0);
  f.call(mpi.init);
  f.op(Op::kDrop);
  f.i32_const(1024);
  f.i32_const(kSendCount);
  f.i32_const(abi::MPI_INT);
  f.i32_const(65536 - kRecvCount * 4 * ranks);
  f.i32_const(kRecvCount);
  f.i32_const(abi::MPI_INT);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.call(mpi.alltoall);
  f.op(Op::kDrop);
  f.end();
  return b.build();
}

TEST(EmbedderModes, TruncatingAlltoallAtEndOfMemoryTraps) {
  for (int ranks : {1, 2}) {
    auto bytes = build_truncating_alltoall_module(ranks);
    Embedder emb(EmbedderConfig{});
    try {
      emb.run_world({bytes.data(), bytes.size()}, ranks);
      ADD_FAILURE() << "no trap at ranks=" << ranks;
    } catch (const rt::Trap& t) {
      EXPECT_EQ(t.kind(), rt::TrapKind::kHostError) << t.what();
      EXPECT_NE(std::string(t.what()).find("truncated"), std::string::npos)
          << t.what();
    }
  }
}

TEST(EmbedderModes, NativeAndWasmHpcgResidualsAgree) {
  // The strongest embedder correctness check: the full CG solve must
  // produce bit-identical residuals through the Wasm + translation path
  // and the direct native path.
  toolchain::HpcgParams p;
  p.n_per_rank = 512;
  p.iterations = 10;
  auto bytes = toolchain::build_hpcg_module(p);

  f64 wasm_residual = 0;
  EmbedderConfig cfg;
  cfg.extra_imports = [&](rt::ImportTable& t, int) {
    t.add("bench", "report",
          {{I32, F64, F64, F64}, {}},
          [&](rt::HostContext&, const rt::Slot* a, rt::Slot*) {
            wasm_residual = a[3].f64v;
          });
  };
  Embedder emb(cfg);
  auto result = emb.run_world({bytes.data(), bytes.size()}, 2);
  ASSERT_EQ(result.exit_code, 0);

  f64 native_residual = 0;
  simmpi::World world(2);
  world.run([&](simmpi::Rank& rank) {
    auto res = toolchain::native_hpcg_run(rank, p);
    if (rank.rank() == 0) native_residual = res.residual;
  });

  EXPECT_EQ(wasm_residual, native_residual)
      << "CG through the embedder must match native bit-for-bit";
}

}  // namespace
}  // namespace mpiwasm::test
