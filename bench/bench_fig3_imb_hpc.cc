// Figure 3: Intel MPI Benchmarks, native vs MPIWasm, on the HPC-system
// profile (Intel OmniPath interconnect model, x86_64).
//
// Paper result being reproduced: MPIWasm's GM average slowdown across all
// message sizes stays in the 0.05x-0.14x band for every routine — neither
// Wasmer's host-call mechanism nor the translation layer adds significant
// overhead to MPI communication (§4.5).
//
// Besides the per-routine CSVs, the run is aggregated into
// BENCH_coll_fig3.json so the collective-latency trajectory is tracked
// in-repo alongside BENCH_coll.json (--smoke shrinks the sweep for CI).
#include <cstring>
#include <thread>

#include "bench_common.h"

using namespace mpiwasm;
using namespace mpiwasm::bench;
using namespace mpiwasm::toolchain;

namespace {

struct PanelResult {
  std::string routine;
  f64 gm = 0;  // GM slowdown, paper convention
  std::vector<ComparisonRow> rows;
};

void write_json(const std::string& path, const std::vector<PanelResult>& rs,
                bool smoke) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_fig3_imb_hpc\",\n");
  std::fprintf(out, "  \"schema\": 1,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"host_hw_concurrency\": %u,\n",
               unsigned(std::thread::hardware_concurrency()));
  std::fprintf(out, "  \"profile\": \"omnipath\",\n");
  std::fprintf(out, "  \"routines\": [\n");
  for (size_t i = 0; i < rs.size(); ++i) {
    const PanelResult& r = rs[i];
    std::fprintf(out, "    {\"routine\": \"%s\", \"gm_slowdown\": %.4f, "
                      "\"rows\": [\n", r.routine.c_str(), r.gm);
    for (size_t j = 0; j < r.rows.size(); ++j) {
      const ComparisonRow& row = r.rows[j];
      std::fprintf(out,
                   "      {\"bytes\": %.0f, \"native_us\": %.3f, "
                   "\"wasm_us\": %.3f}%s\n",
                   row.x, row.native, row.wasm,
                   j + 1 < r.rows.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", i + 1 < rs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_coll_fig3.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }

  print_banner(
      "Figure 3 — IMB on the HPC profile (OmniPath model): native vs WASM");
  print_default_tier();
  const auto profile = simmpi::NetworkProfile::omnipath();
  const int ranks = 8;  // paper: 768/6144 ranks; scaled to one node

  struct Panel {
    ImbRoutine routine;
    u32 max_bytes;
  };
  // Per-routine sweep caps follow the paper's figure x-axes (collectives
  // with size-scaled buffers stop earlier, §4.5 / Fig. 3e-3i).
  const Panel panels[] = {
      {ImbRoutine::kPingPong, 1 << 22},  {ImbRoutine::kSendRecv, 1 << 22},
      {ImbRoutine::kBcast, 1 << 20},     {ImbRoutine::kAllReduce, 1 << 20},
      {ImbRoutine::kAllGather, 1 << 17}, {ImbRoutine::kAlltoall, 1 << 16},
      {ImbRoutine::kReduce, 1 << 20},    {ImbRoutine::kGather, 1 << 17},
      {ImbRoutine::kScatter, 1 << 17},   {ImbRoutine::kBarrier, 1},
  };
  std::vector<PanelResult> results;
  for (const Panel& panel : panels) {
    ImbParams p;
    p.routine = panel.routine;
    p.max_bytes = smoke ? std::min(panel.max_bytes, u32(1) << 12)
                        : panel.max_bytes;
    p.base_iters = smoke ? 1 << 14 : 1 << 19;
    p.max_iters = smoke ? 20 : 100;
    p.min_iters = 3;
    int np = panel.routine == ImbRoutine::kPingPong ? 2 : ranks;
    auto rows =
        imb_panel(p, np, profile,
                  std::string("fig3_") + imb_routine_name(panel.routine) +
                      ".csv");
    PanelResult r;
    r.routine = imb_routine_name(panel.routine);
    r.gm = gm_slowdown(rows, /*lower_is_better=*/true);
    r.rows = std::move(rows);
    results.push_back(std::move(r));
  }
  write_json(out_path, results, smoke);
  std::printf(
      "\nPaper reference (GM slowdowns at scale): PingPong 0.05x, SendRecv "
      "0.06x,\nBcast 0.13x, Allreduce 0.06x, Allgather 0.06x, Alltoall "
      "0.10x,\nReduce 0.05-0.12x, Gather 0.10-0.14x, Scatter 0.05-0.08x\n");
  return 0;
}
