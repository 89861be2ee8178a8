// Nonblocking-collective overlap trajectory (BENCH_icoll.json).
//
// Section 1 — overlap sweep (the acceptance gate): at 8 ranks on the
// OmniPath profile, per message-size bin, measures
//   blocking : { MPI_Allreduce; compute }          per iteration
//   overlap  : { MPI_Iallreduce; compute chunks interleaved with progress
//                polls; MPI_Wait }                  per iteration
// with the per-rank compute budget calibrated to the measured blocking
// collective latency (scaled by the host's core/rank ratio, so the number
// is meaningful both on dedicated and oversubscribed CI hosts). The
// schedule engine charges wire time as completion deadlines instead of
// injection spins, so the transfer genuinely proceeds while the rank
// computes — the speedup and overlap-efficiency columns quantify how much
// of the collective the compute window hides.
//
// Section 2 — toolchain kernel panel: the heat-diffusion overlap kernel
// (halo exchange + Iallreduce residual), blocking vs nonblocking, native
// and Wasm-through-the-embedder, with bit-exact residual agreement checked
// across all four runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "support/timing.h"

using namespace mpiwasm;
using namespace mpiwasm::bench;
using namespace mpiwasm::simmpi;
using namespace mpiwasm::toolchain;

namespace {

struct OverlapRow {
  int ranks = 0;
  size_t bytes = 0;
  f64 factor = 1.0;     // compute budget as a fraction of the coll latency
  f64 coll_us = 0;      // blocking allreduce alone
  f64 compute_us = 0;   // calibrated per-rank compute budget
  f64 blocking_us = 0;  // allreduce + compute
  f64 overlap_us = 0;   // iallreduce + compute folded into the wait window
  f64 speedup = 0;
  f64 efficiency = 0;   // fraction of the collective hidden by compute
};

OverlapRow measure_overlap(int ranks, size_t bytes, f64 factor, int iters,
                           const NetworkProfile& prof) {
  OverlapRow row;
  row.ranks = ranks;
  row.bytes = bytes;
  row.factor = factor;
  const int count = int(bytes / 8);
  // Min-of-reps filters scheduler noise on CI hosts. Small payloads get
  // proportionally more samples: their windows are microseconds, so one
  // descheduled thread flips the ratio by 20%+, and the extra reps cost
  // nearly nothing against the large-size rows.
  const int reps = bytes <= 32768 ? 6 : 5;
  const int n_iters = bytes <= 32768 ? iters * 3 : iters * 3 / 2;
  World world(ranks, prof, CollTuning{});
  world.run([&](Rank& r) {
    std::vector<f64> in(size_t(count), 1.0), out(size_t(count), 0.0);
    auto coll = [&] {
      r.allreduce(in.data(), out.data(), count, Datatype::kDouble,
                  ReduceOp::kSum);
    };
    auto timed = [&](auto&& body) {
      f64 best = 1e300;
      for (int rep = 0; rep < reps; ++rep) {
        r.barrier();
        Stopwatch sw;
        for (int i = 0; i < n_iters; ++i) body();
        r.barrier();
        best = std::min(best, sw.elapsed_us() / f64(n_iters));
      }
      return best;
    };
    // Phase 1: the collective alone, after a few warmup calls.
    for (int w = 0; w < 16; ++w) coll();
    f64 coll_us = timed(coll);
    // Every rank computes with the same budget: the wall-clock collective
    // latency scaled by the effective parallelism, so aggregate compute
    // roughly matches aggregate communication even when rank threads
    // outnumber cores (CI hosts).
    f64 par = std::min<f64>(
        f64(ranks), f64(std::max(1u, std::thread::hardware_concurrency())));
    r.bcast(&coll_us, 1, Datatype::kDouble, 0);
    const u64 compute_ns = u64(coll_us * 1e3 * par * factor / f64(ranks));
    // Phase 2/3: blocking collective + compute vs nonblocking collective
    // with the same compute folded into the wait window — chunked, with a
    // progress poll between chunks (the canonical overlap pattern).
    // Chunk count adapts to the budget but stays small: each chunk pays a
    // progress pass plus a scheduler round-trip, and on oversubscribed
    // hosts those round-trips serialize against the rank threads doing the
    // actual transfer. Coarse chunks (>=25us of compute each, at most 4)
    // keep that overhead below the overlap gain at every size bin.
    // The two variants interleave rep-by-rep so host-level noise (a CI
    // neighbor, a scheduler hiccup) lands on both sides of the speedup
    // ratio instead of biasing whichever phase it happened to hit.
    const int n_chunks =
        std::max(1, std::min(4, int(compute_ns / 25000)));
    f64 blocking_us = 1e300, overlap_us = 1e300;
    for (int rep = 0; rep < reps + 1; ++rep) {
      r.barrier();
      Stopwatch swb;
      for (int i = 0; i < n_iters; ++i) {
        coll();
        spin_for_ns(compute_ns);
      }
      r.barrier();
      blocking_us = std::min(blocking_us, swb.elapsed_us() / f64(n_iters));
      r.barrier();
      Stopwatch swo;
      for (int i = 0; i < n_iters; ++i) {
        Request req = r.iallreduce(in.data(), out.data(), count,
                                   Datatype::kDouble, ReduceOp::kSum);
        for (int k = 0; k < n_chunks; ++k) {
          spin_for_ns(compute_ns / u64(n_chunks));
          r.progress();
        }
        r.wait(req);
      }
      r.barrier();
      overlap_us = std::min(overlap_us, swo.elapsed_us() / f64(n_iters));
    }
    if (r.rank() == 0) {
      row.coll_us = coll_us;
      row.compute_us = f64(compute_ns) / 1e3;
      row.blocking_us = blocking_us;
      row.overlap_us = overlap_us;
      row.speedup = overlap_us > 0 ? blocking_us / overlap_us : 0;
      row.efficiency =
          coll_us > 0 ? std::min(1.0, std::max(0.0, (blocking_us - overlap_us) /
                                                        coll_us))
                      : 0;
    }
  });
  return row;
}

struct KernelRow {
  std::string variant;  // "native" | "wasm"
  f64 blocking_s = 0;
  f64 overlap_s = 0;
  f64 residual = 0;     // from the nonblocking run
  f64 speedup = 0;
};

f64 run_native_kernel(const OverlapParams& p, int ranks,
                      const NetworkProfile& prof, f64* residual) {
  f64 seconds = 0;
  World world(ranks, prof);
  world.run([&](Rank& r) {
    auto res = native_overlap_run(r, p);
    if (r.rank() == 0) {
      seconds = res.seconds;
      *residual = res.residual;
    }
  });
  return seconds;
}

f64 run_wasm_kernel(const OverlapParams& p, int ranks,
                    const NetworkProfile& prof, f64* residual) {
  auto bytes = build_overlap_module(p);
  ReportCollector collector;
  embed::EmbedderConfig cfg;
  // Native x86-64 codegen for the compute phases — this is what closes the
  // wasm-vs-native gap on the kernel panel.
  cfg.engine.tier = rt::EngineTier::kJit;
  cfg.net_profile = prof;
  cfg.extra_imports = collector.hook();
  embed::Embedder emb(cfg);
  auto result = emb.run_world({bytes.data(), bytes.size()}, ranks);
  MW_CHECK(result.exit_code == 0, "overlap wasm kernel failed");
  auto rows = collector.rows_with_id(p.report_id);
  MW_CHECK(!rows.empty(), "overlap wasm kernel reported nothing");
  *residual = rows[0].b;
  return rows[0].a;
}

void write_json(const std::string& path, const std::vector<OverlapRow>& rows,
                const std::vector<KernelRow>& kernels, f64 headline,
                bool smoke) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_icoll\",\n");
  std::fprintf(out, "  \"schema\": 3,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"host_hw_concurrency\": %u,\n",
               unsigned(std::thread::hardware_concurrency()));
  std::fprintf(out, "  \"profile\": \"omnipath\",\n");
  std::fprintf(out, "  \"overlap\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const OverlapRow& r = rows[i];
    std::fprintf(out,
                 "    {\"ranks\": %d, \"bytes\": %zu, \"compute_factor\": "
                 "%.2f, \"coll_us\": %.3f, \"compute_us\": %.3f, "
                 "\"blocking_us\": %.3f, \"overlap_us\": %.3f, "
                 "\"speedup\": %.3f, \"overlap_efficiency\": %.3f}%s\n",
                 r.ranks, r.bytes, r.factor, r.coll_us, r.compute_us,
                 r.blocking_us, r.overlap_us, r.speedup, r.efficiency,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"kernel\": [\n");
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelRow& k = kernels[i];
    std::fprintf(out,
                 "    {\"variant\": \"%s\", \"blocking_s\": %.6f, "
                 "\"overlap_s\": %.6f, \"speedup\": %.3f, "
                 "\"residual\": %.6f}%s\n",
                 k.variant.c_str(), k.blocking_s, k.overlap_s, k.speedup,
                 k.residual, i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  if (kernels.size() == 2 && kernels[0].overlap_s > 0)
    std::fprintf(out, "  \"wasm_vs_native_overlap\": %.3f,\n",
                 kernels[1].overlap_s / kernels[0].overlap_s);
  std::fprintf(out, "  \"max_midsize_speedup_8ranks\": %.3f\n", headline);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_icoll.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }

  print_banner("Nonblocking collectives: compute/communication overlap");
  const auto profile = NetworkProfile::omnipath();

  // --- Section 1: overlap sweep -------------------------------------------
  const std::vector<int> rank_counts = smoke ? std::vector<int>{8}
                                             : std::vector<int>{4, 8};
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{16384, 65536}
            : std::vector<size_t>{4096, 16384, 32768, 65536, 262144};
  const int iters = smoke ? 6 : 16;

  // Two compute budgets per bin: aggregate compute matching the collective
  // latency (factor 1.0) and half of it (0.5) — overlap pays off across a
  // range of compute/communication ratios, not one tuned point.
  const std::vector<f64> factors = smoke ? std::vector<f64>{1.0}
                                         : std::vector<f64>{0.5, 1.0};
  std::vector<OverlapRow> rows;
  for (int ranks : rank_counts) {
    print_subhead("Iallreduce overlap, " + std::to_string(ranks) +
                  " ranks, profile=omnipath");
    std::printf("  %10s %6s %10s %10s %12s %11s %8s %6s\n", "bytes", "comp/coll",
                "coll_us", "comp_us", "blocking_us", "overlap_us", "speedup",
                "eff");
    for (size_t bytes : sizes) {
      for (f64 factor : factors) {
        OverlapRow row =
            measure_overlap(ranks, bytes, factor, iters, profile);
        std::printf("  %10zu %6.2f %10.2f %10.2f %12.2f %11.2f %7.2fx %6.2f\n",
                    row.bytes, row.factor, row.coll_us, row.compute_us,
                    row.blocking_us, row.overlap_us, row.speedup,
                    row.efficiency);
        rows.push_back(row);
      }
    }
  }

  // Headline: best mid-size-bin (16 KiB - 256 KiB) speedup at 8 ranks.
  f64 headline = 0;
  for (const OverlapRow& r : rows)
    if (r.ranks == 8 && r.bytes >= 16384 && r.bytes <= 262144)
      headline = std::max(headline, r.speedup);
  std::printf(
      "\nmax mid-size (16KiB-256KiB) nonblocking-vs-blocking speedup at 8 "
      "ranks: %.2fx (gate: >= 1.2x)\n",
      headline);

  // --- Section 2: heat-diffusion overlap kernel, native + wasm -------------
  OverlapParams kp;
  kp.n_per_rank = smoke ? (1u << 13) : (1u << 15);
  kp.iterations = smoke ? 10 : 30;
  const int kernel_ranks = 8;
  std::vector<KernelRow> kernels;
  print_subhead("heat-diffusion kernel (halo + Iallreduce residual), " +
                std::to_string(kernel_ranks) + " ranks");
  f64 residual_ref = 0;
  bool residuals_agree = true;
  for (const char* variant : {"native", "wasm"}) {
    KernelRow k;
    k.variant = variant;
    f64 res_block = 0, res_overlap = 0;
    OverlapParams blocking = kp;
    blocking.nonblocking = false;
    OverlapParams overlap = kp;
    overlap.nonblocking = true;
    if (std::strcmp(variant, "native") == 0) {
      k.blocking_s = run_native_kernel(blocking, kernel_ranks, profile,
                                       &res_block);
      k.overlap_s = run_native_kernel(overlap, kernel_ranks, profile,
                                      &res_overlap);
    } else {
      k.blocking_s = run_wasm_kernel(blocking, kernel_ranks, profile,
                                     &res_block);
      k.overlap_s = run_wasm_kernel(overlap, kernel_ranks, profile,
                                    &res_overlap);
    }
    k.residual = res_overlap;
    k.speedup = k.overlap_s > 0 ? k.blocking_s / k.overlap_s : 0;
    if (res_block != res_overlap) residuals_agree = false;
    if (kernels.empty())
      residual_ref = res_overlap;
    else if (res_overlap != residual_ref)
      residuals_agree = false;
    std::printf("  %-6s blocking=%.4fs overlap=%.4fs speedup=%.2fx "
                "residual=%.4f\n",
                variant, k.blocking_s, k.overlap_s, k.speedup, k.residual);
    kernels.push_back(std::move(k));
  }
  MW_CHECK(residuals_agree,
           "overlap/blocking or native/wasm residuals diverged");
  std::printf("  residuals agree across all four runs\n");
  if (kernels[0].overlap_s > 0) {
    f64 ratio = kernels[1].overlap_s / kernels[0].overlap_s;
    std::printf("  wasm/native overlap time: %.2fx (target: <= 3x with the "
                "jit tier)\n", ratio);
  }

  write_json(out_path, rows, kernels, headline, smoke);

  // Hard gate in smoke mode (wired into CI): overlap must never lose more
  // than 10% against blocking in any measured bin, and the mid-size
  // headline must clear 1.2x. A regression fails the build, not just the
  // committed JSON.
  if (smoke) {
    bool ok = true;
    for (const OverlapRow& r : rows)
      if (r.speedup < 0.9) {
        std::fprintf(stderr,
                     "GATE FAIL: overlap speedup %.3f < 0.9 at ranks=%d "
                     "bytes=%zu factor=%.2f\n",
                     r.speedup, r.ranks, r.bytes, r.factor);
        ok = false;
      }
    if (headline < 1.2) {
      std::fprintf(stderr,
                   "GATE FAIL: mid-size headline speedup %.3f < 1.2\n",
                   headline);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("smoke gates passed (all bins >= 0.9x, headline >= 1.2x)\n");
  }
  return 0;
}
