// Ablation A (docs/BENCHMARKS.md, "Benches without committed artifacts"):
// how much does §3.5's zero-copy address translation actually buy? Same
// module, same host MPI, same interconnect profile — only the embedder's
// buffer handling differs (direct base+offset pointers vs staging copies
// on every Send/Recv).
#include "bench_common.h"

using namespace mpiwasm;
using namespace mpiwasm::bench;
using namespace mpiwasm::toolchain;

int main() {
  print_banner("Ablation — zero-copy translation vs copy-based translation");

  ImbParams p;
  p.routine = ImbRoutine::kPingPong;
  p.max_bytes = 1 << 22;
  p.base_iters = 1 << 18;
  p.max_iters = 50;
  p.min_iters = 3;
  auto bytes = build_imb_module(p);

  auto run_mode = [&](bool zero_copy) {
    ReportCollector collector;
    embed::EmbedderConfig cfg;
    cfg.net_profile = simmpi::NetworkProfile::omnipath();
    cfg.zero_copy = zero_copy;
    cfg.extra_imports = collector.hook();
    embed::Embedder emb(cfg);
    auto result = emb.run_world({bytes.data(), bytes.size()}, 2);
    MW_CHECK(result.exit_code == 0, "pingpong failed");
    std::map<u32, f64> by_size;
    for (const auto& r : collector.rows_with_id(p.report_id))
      by_size[u32(r.a)] = r.b;
    return by_size;
  };

  auto zc = run_mode(true);
  auto copy = run_mode(false);

  std::printf("%12s %16s %16s %12s\n", "bytes", "zero-copy us", "copy-mode us",
              "copy cost");
  std::vector<f64> zc_times, copy_times;
  for (const auto& [size, t_zc] : zc) {
    auto it = copy.find(size);
    if (it == copy.end()) continue;
    std::printf("%12u %16.3f %16.3f %11.2fx\n", size, t_zc, it->second,
                it->second / t_zc);
    zc_times.push_back(t_zc);
    copy_times.push_back(it->second);
  }
  std::printf("  => GM slowdown from disabling zero-copy: %.2fx\n",
              gm_speedup(copy_times, zc_times));
  std::printf(
      "\nShape to check: copy mode costs little for small messages (latency\n"
      "dominated) and grows with size — the reason §3.5 calls zero-copy out\n"
      "as a design requirement for large-message HPC workloads.\n");
  return 0;
}
