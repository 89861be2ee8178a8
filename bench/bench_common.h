// Shared helpers for the per-figure bench binaries.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "benchlib/harness.h"
#include "embedder/embedder.h"
#include "toolchain/kernels.h"
#include "toolchain/native_kernels.h"

namespace mpiwasm::bench {

/// Prints the tier a figure bench's wasm runs execute at: the engine
/// default.
inline void print_default_tier() {
  std::printf("tier: %s\n", rt::tier_name(rt::EngineConfig{}.tier));
}

/// Runs an IMB routine natively on `ranks` ranks; returns rank-0 rows.
inline std::vector<toolchain::ImbRow> run_native_imb(
    const toolchain::ImbParams& p, int ranks,
    const simmpi::NetworkProfile& profile) {
  std::vector<toolchain::ImbRow> rows;
  simmpi::World world(ranks, profile);
  world.run([&](simmpi::Rank& r) {
    auto local = toolchain::native_imb_run(r, p);
    if (r.rank() == 0) rows = std::move(local);
  });
  return rows;
}

/// Runs the Wasm build of the same routine through the embedder.
inline std::vector<toolchain::ImbRow> run_wasm_imb(
    const toolchain::ImbParams& p, int ranks, embed::EmbedderConfig cfg) {
  auto bytes = toolchain::build_imb_module(p);
  ReportCollector collector;
  cfg.extra_imports = collector.hook();
  embed::Embedder emb(cfg);
  auto result = emb.run_world({bytes.data(), bytes.size()}, ranks);
  MW_CHECK(result.exit_code == 0, "imb wasm kernel failed");
  std::vector<toolchain::ImbRow> rows;
  for (const auto& r : collector.rows_with_id(p.report_id))
    rows.push_back({u32(r.a), r.b, u32(r.c)});
  return rows;
}

/// Zips native/wasm rows by message size.
inline std::vector<ComparisonRow> zip_rows(
    const std::vector<toolchain::ImbRow>& native,
    const std::vector<toolchain::ImbRow>& wasm_rows) {
  std::vector<ComparisonRow> out;
  std::map<u32, f64> wasm_by_size;
  for (const auto& w : wasm_rows) wasm_by_size[w.bytes] = w.t_avg_us;
  for (const auto& n : native) {
    auto it = wasm_by_size.find(n.bytes);
    if (it != wasm_by_size.end())
      out.push_back({f64(n.bytes), n.t_avg_us, it->second});
  }
  return out;
}

/// One full IMB comparison (Figure 3/4 panel). Returns the zipped rows so
/// callers can aggregate them into trajectory artifacts (BENCH_*.json).
inline std::vector<ComparisonRow> imb_panel(
    const toolchain::ImbParams& p, int ranks,
    const simmpi::NetworkProfile& profile, const std::string& csv_path = "") {
  print_subhead(std::string(toolchain::imb_routine_name(p.routine)) + ", " +
                std::to_string(ranks) + " ranks, profile=" + profile.name);
  auto native = run_native_imb(p, ranks, profile);
  embed::EmbedderConfig cfg;
  cfg.net_profile = profile;
  auto wasm_rows = run_wasm_imb(p, ranks, cfg);
  auto rows = zip_rows(native, wasm_rows);
  print_comparison_table("t_avg [us]", rows, /*lower_is_better=*/true);
  if (!csv_path.empty())
    write_csv(csv_path, "bytes,native_us,wasm_us", rows);
  return rows;
}

}  // namespace mpiwasm::bench
