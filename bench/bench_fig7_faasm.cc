// Figure 7: PingPong — MPIWasm vs the Faasm-like baseline.
//
// Paper result: MPIWasm achieves a GM average speedup of 4.28x over Faasm
// across message sizes. The mechanism (§6): MPIWasm defers to the host MPI
// library with zero-copy translation, while Faasm re-implements MPI-1 on
// its gRPC-based Faabric messaging layer with serialization and staging
// copies. Our baseline embedder models exactly that difference.
#include "bench_common.h"

using namespace mpiwasm;
using namespace mpiwasm::bench;
using namespace mpiwasm::toolchain;

int main() {
  print_banner("Figure 7 — PingPong: MPIWasm vs Faasm-like baseline");
  print_default_tier();

  ImbParams p;
  p.routine = ImbRoutine::kPingPong;
  p.max_bytes = 1 << 22;
  p.base_iters = 1 << 18;
  p.max_iters = 50;
  p.min_iters = 3;
  auto bytes = build_imb_module(p);

  auto run_mode = [&](bool faasm) {
    ReportCollector collector;
    embed::EmbedderConfig cfg;
    cfg.faasm_compat = faasm;
    if (!faasm) cfg.net_profile = simmpi::NetworkProfile::omnipath();
    cfg.extra_imports = collector.hook();
    embed::Embedder emb(cfg);
    auto result = emb.run_world({bytes.data(), bytes.size()}, 2);
    MW_CHECK(result.exit_code == 0, "pingpong failed");
    std::map<u32, f64> by_size;
    for (const auto& r : collector.rows_with_id(p.report_id))
      by_size[u32(r.a)] = r.b;
    return by_size;
  };

  auto mpiwasm_rows = run_mode(false);
  auto faasm_rows = run_mode(true);

  std::printf("%12s %16s %16s %10s\n", "bytes", "MPIWasm us", "Faasm-like us",
              "speedup");
  std::vector<f64> mpiwasm_times, faasm_times;
  std::vector<ComparisonRow> csv_rows;
  for (const auto& [size, t_mpiwasm] : mpiwasm_rows) {
    auto it = faasm_rows.find(size);
    if (it == faasm_rows.end()) continue;
    std::printf("%12u %16.3f %16.3f %9.2fx\n", size, t_mpiwasm, it->second,
                it->second / t_mpiwasm);
    mpiwasm_times.push_back(t_mpiwasm);
    faasm_times.push_back(it->second);
    csv_rows.push_back({f64(size), it->second, t_mpiwasm});
  }
  f64 speedup = gm_speedup(faasm_times, mpiwasm_times);
  std::printf("  => GM average speedup of MPIWasm over Faasm-like: %.2fx\n",
              speedup);
  write_csv("fig7_faasm.csv", "bytes,faasm_us,mpiwasm_us", csv_rows);
  std::printf(
      "\nPaper reference: 4.28x GM speedup across all message sizes.\n");
  return 0;
}
