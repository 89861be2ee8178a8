// Figure 4: selected IMB routines + HPCG on the AWS Graviton2 profile
// (single-node aarch64, shared-memory transport model).
//
// Paper result: same near-native story as Figure 3 on a different
// architecture — PingPong GM ~1.01x speedup, SendRecv 0.07x slowdown,
// Allreduce 0.10x, Allgather 0.09x, Alltoall 0.10x; HPCG tracks native up
// to 32 ranks (§4.5, Fig. 4f).
#include "bench_common.h"

using namespace mpiwasm;
using namespace mpiwasm::bench;
using namespace mpiwasm::toolchain;

int main() {
  print_banner("Figure 4 — IMB + HPCG on the Graviton2 profile");
  print_default_tier();
  const auto profile = simmpi::NetworkProfile::graviton2();
  const int ranks = 4;  // paper: 32 cores on one Graviton2 node; scaled

  const ImbRoutine routines[] = {ImbRoutine::kPingPong, ImbRoutine::kSendRecv,
                                 ImbRoutine::kAllReduce, ImbRoutine::kAllGather,
                                 ImbRoutine::kAlltoall};
  for (ImbRoutine routine : routines) {
    ImbParams p;
    p.routine = routine;
    p.max_bytes = routine == ImbRoutine::kAllGather ||
                          routine == ImbRoutine::kAlltoall
                      ? 1 << 17
                      : 1 << 22;
    p.base_iters = 1 << 19;
    p.max_iters = 100;
    p.min_iters = 3;
    int np = routine == ImbRoutine::kPingPong ? 2 : ranks;
    imb_panel(p, np, profile,
              std::string("fig4_") + imb_routine_name(routine) + ".csv");
  }

  // Figure 4f: HPCG GFLOP/s across rank counts.
  print_subhead("HPCG GFLOP/s vs ranks (Fig. 4f)");
  HpcgParams hp;
  hp.n_per_rank = 1 << 14;
  hp.iterations = 20;
  std::vector<ComparisonRow> rows;
  for (int np : {1, 2, 4}) {
    f64 native_gflops = 0;
    simmpi::World world(np, profile);
    world.run([&](simmpi::Rank& r) {
      auto res = native_hpcg_run(r, hp);
      if (r.rank() == 0) native_gflops = res.gflops;
    });
    auto bytes = build_hpcg_module(hp);
    ReportCollector collector;
    embed::EmbedderConfig cfg;
    cfg.net_profile = profile;
    cfg.extra_imports = collector.hook();
    embed::Embedder emb(cfg);
    emb.run_world({bytes.data(), bytes.size()}, np);
    auto r = collector.rows_with_id(hp.report_id);
    rows.push_back({f64(np), native_gflops, r.empty() ? 0 : r[0].a});
  }
  print_comparison_table("GFLOP/s", rows, /*lower_is_better=*/false);
  write_csv("fig4_hpcg.csv", "ranks,native_gflops,wasm_gflops", rows);
  std::printf(
      "\nNote: the wasm side runs native code from the jit tier's templates,\n"
      "which keep loop values in registers chosen by a linear-scan\n"
      "allocator; values live across calls and operands of helper-calling\n"
      "ops go through a frame in memory (docs/ARCHITECTURE.md,\n"
      "\"src/runtime\"). The paper's Wasmer/LLVM backend allocates\n"
      "registers across the whole function, calls included.\n");
  return 0;
}
