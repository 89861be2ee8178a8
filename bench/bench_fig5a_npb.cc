// Figure 5a: NPB kernels — IS total Mop/s across rank counts, and DT
// throughput per topology for native vs Wasm-without-SIMD vs
// Wasm-with-SIMD.
//
// Paper results: IS 8260 Mop/s (Wasm) vs 8546 (native) at 1024 ranks —
// near parity; DT's Wasm-with-SIMD is 1.36x faster than Wasm-without-SIMD,
// and native stays ahead of both because Wasm SIMD is capped at 128-bit
// lanes while the Skylake host has AVX-512 (§4.5).
#include "bench_common.h"

using namespace mpiwasm;
using namespace mpiwasm::bench;
using namespace mpiwasm::toolchain;

int main() {
  print_banner("Figure 5a — NPB IS and DT: native vs WASM (SIMD on/off)");
  print_default_tier();
  const auto profile = simmpi::NetworkProfile::omnipath();

  // --- IS: Mop/s across rank counts ----------------------------------------
  // 2^18 keys per rank keep each run long enough to time. Every rank count
  // runs its native/wasm pair kPairs times, alternating which side goes
  // first, and reports the medians: single runs of 2^14 keys swung from 26
  // to 47 Mop/s between runs of one build.
  constexpr int kPairs = 5;
  print_subhead("IS total Mop/s vs ranks (medians of 5 interleaved pairs)");
  IsParams is;
  is.keys_per_rank = 1 << 18;
  is.repetitions = 5;
  const auto is_bytes = build_is_module(is);
  ReportCollector collector;
  embed::EmbedderConfig is_cfg;
  is_cfg.net_profile = profile;
  is_cfg.extra_imports = collector.hook();
  embed::Embedder is_emb(is_cfg);
  const auto is_module = is_emb.compile({is_bytes.data(), is_bytes.size()});
  std::vector<ComparisonRow> is_rows;
  for (int np : {2, 4, 8}) {
    std::vector<f64> native_mops;
    std::vector<f64> wasm_mops;
    auto run_native = [&] {
      simmpi::World world(np, profile);
      world.run([&](simmpi::Rank& r) {
        auto res = native_is_run(r, is);
        if (r.rank() == 0) {
          MW_CHECK(res.ok, "native IS verification failed");
          native_mops.push_back(res.mops);
        }
      });
    };
    auto run_wasm = [&] {
      collector.clear();
      is_emb.run_world(is_module, np);
      auto rows = collector.rows_with_id(is.report_id);
      MW_CHECK(!rows.empty() && rows[0].b == 1.0, "wasm IS verification failed");
      wasm_mops.push_back(rows[0].a);
    };
    for (int pair = 0; pair < kPairs; ++pair) {
      if (pair % 2 == 0) {
        run_native();
        run_wasm();
      } else {
        run_wasm();
        run_native();
      }
    }
    is_rows.push_back({f64(np), percentile(native_mops, 50),
                       percentile(wasm_mops, 50)});
  }
  print_comparison_table("Mop/s", is_rows, /*lower_is_better=*/false);
  write_csv("fig5a_is.csv", "ranks,native_mops,wasm_mops", is_rows);

  // --- DT: throughput per topology, scalar vs SIMD --------------------------
  print_subhead("DT throughput by topology (native / wasm scalar / wasm simd)");
  std::printf("%-10s %14s %18s %16s %12s\n", "topology", "native MB/s",
              "wasm w/o SIMD MB/s", "wasm w SIMD MB/s", "SIMD gain");
  DtParams dt;
  dt.doubles_per_msg = 1 << 16;
  dt.repetitions = 10;
  const int np = 4;
  for (DtTopology topo :
       {DtTopology::kBlackHole, DtTopology::kWhiteHole, DtTopology::kShuffle}) {
    dt.topology = topo;
    f64 native_mbps = 0;
    simmpi::World world(np, profile);
    world.run([&](simmpi::Rank& r) {
      auto res = native_dt_run(r, dt);
      if (r.rank() == 0) native_mbps = res.mbps;
    });
    f64 mbps[2] = {0, 0};
    for (int simd = 0; simd <= 1; ++simd) {
      dt.use_simd = simd == 1;
      auto bytes = build_dt_module(dt);
      ReportCollector collector;
      embed::EmbedderConfig cfg;
      cfg.net_profile = profile;
      cfg.extra_imports = collector.hook();
      embed::Embedder emb(cfg);
      emb.run_world({bytes.data(), bytes.size()}, np);
      auto rows = collector.rows_with_id(dt.report_id);
      mbps[simd] = rows.empty() ? 0 : rows[0].a;
    }
    std::printf("%-10s %14.1f %18.1f %16.1f %11.2fx\n",
                dt_topology_name(topo), native_mbps, mbps[0], mbps[1],
                mbps[0] > 0 ? mbps[1] / mbps[0] : 0);
  }
  std::printf(
      "\nPaper reference: wasm-with-SIMD / wasm-without-SIMD = 1.36x on DT;\n"
      "native > wasm on DT because Wasm SIMD is 128-bit only.\n");
  return 0;
}
