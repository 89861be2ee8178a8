// Collective algorithm trajectory: sweeps every registered algorithm of
// every simmpi collective across message sizes and rank counts on the
// zero-cost interconnect profile, so the numbers isolate the runtime-layer
// synchronization/copy costs the algorithms differ in (the overheads the
// paper's Figures 3/4 are dominated by at small sizes).
//
// Output: a table on stdout and a machine-readable BENCH_coll.json (path
// via --out). The headline number is the geomean small-message (<= 1 KiB)
// speedup of the auto-selected algorithms over the naive linear ones for
// allreduce/bcast/barrier at 8 ranks — the acceptance gate for the
// shared-memory path.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "simmpi/coll_algos.h"
#include "support/common.h"
#include "support/timing.h"

using namespace mpiwasm;
using namespace mpiwasm::simmpi;
using coll::CollOp;
using mpiwasm::simmpi::CollAlgo;
using mpiwasm::simmpi::coll::coll_name;

namespace {

/// Warmup calls per configuration.
constexpr int kWarmups = 3;

/// One timed configuration (`algo` forced for `op`, kAuto = the static
/// table's pick); returns the per-operation latency in us.
f64 time_coll(CollOp op, CollAlgo algo, int ranks, size_t bytes, int iters) {
  World world(ranks, NetworkProfile::zero(), coll::forced_tuning(op, algo));
  f64 us_per_op = 0;
  world.run([&](Rank& r) {
    int n = r.size();
    int count = int(bytes);
    std::vector<u8> a(bytes + 1, u8(1)), b(bytes + 1, u8(0));
    std::vector<u8> big_a((bytes + 1) * size_t(n), u8(1));
    std::vector<u8> big_b((bytes + 1) * size_t(n), u8(0));
    std::vector<int> counts(size_t(n), 0);
    for (size_t i = 0; i < size_t(n); ++i)
      counts[i] = count / n + (int(i) < count % n ? 1 : 0);
    auto once = [&] {
      switch (op) {
        case CollOp::kBarrier: r.barrier(); break;
        case CollOp::kBcast:
          r.bcast(a.data(), count, Datatype::kByte, 0);
          break;
        case CollOp::kReduce:
          r.reduce(a.data(), b.data(), count, Datatype::kByte, ReduceOp::kSum,
                   0);
          break;
        case CollOp::kAllreduce:
          r.allreduce(a.data(), b.data(), count, Datatype::kByte,
                      ReduceOp::kSum);
          break;
        case CollOp::kGather:
          r.gather(a.data(), count, big_b.data(), count, Datatype::kByte, 0);
          break;
        case CollOp::kScatter:
          r.scatter(big_a.data(), count, b.data(), count, Datatype::kByte, 0);
          break;
        case CollOp::kAllgather:
          r.allgather(a.data(), count, big_b.data(), count, Datatype::kByte);
          break;
        case CollOp::kAlltoall:
          r.alltoall(big_a.data(), count, big_b.data(), count,
                     Datatype::kByte);
          break;
        case CollOp::kReduceScatter:
          r.reduce_scatter(a.data(), b.data(), counts.data(), Datatype::kByte,
                           ReduceOp::kSum);
          break;
        case CollOp::kScan:
          r.scan(a.data(), b.data(), count, Datatype::kByte, ReduceOp::kSum);
          break;
        case CollOp::kExscan:
          r.exscan(a.data(), b.data(), count, Datatype::kByte, ReduceOp::kSum);
          break;
      }
    };
    for (int w = 0; w < kWarmups; ++w) once();
    r.barrier();
    Stopwatch sw;
    for (int i = 0; i < iters; ++i) once();
    r.barrier();
    if (r.rank() == 0) us_per_op = sw.elapsed_us() / f64(iters);
  });
  return us_per_op;
}

struct Entry {
  std::string coll, algo;
  int ranks = 0;
  size_t bytes = 0;
  f64 us = 0;
};

int iters_for(size_t bytes, bool smoke) {
  size_t cap = smoke ? 60 : 400;
  size_t iters = (size_t(1) << 21) / (bytes + 1);
  if (iters > cap) iters = cap;
  if (iters < 20) iters = 20;
  return int(iters);
}

void write_json(const std::string& path, const std::vector<Entry>& entries,
                f64 small_speedup, bool smoke) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"bench_coll\",\n");
  std::fprintf(out, "  \"schema\": 3,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"host_hw_concurrency\": %u,\n",
               unsigned(std::thread::hardware_concurrency()));
  std::fprintf(out, "  \"profile\": \"zero\",\n");
  std::fprintf(out, "  \"entries\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(out,
                 "    {\"coll\": \"%s\", \"algo\": \"%s\", \"ranks\": %d, "
                 "\"bytes\": %zu, \"us_per_op\": %.3f}%s\n",
                 e.coll.c_str(), e.algo.c_str(), e.ranks, e.bytes, e.us,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"small_message_speedup_auto_vs_linear_8ranks\": %.3f\n",
               small_speedup);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_coll.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }

  std::printf("=== Collective algorithm sweep (profile=zero) ===\n");

  const CollOp kOps[] = {
      CollOp::kBarrier,       CollOp::kBcast,  CollOp::kReduce,
      CollOp::kAllreduce,     CollOp::kGather, CollOp::kScatter,
      CollOp::kAllgather,     CollOp::kAlltoall,
      CollOp::kReduceScatter, CollOp::kScan,   CollOp::kExscan,
  };
  std::vector<int> rank_counts = smoke ? std::vector<int>{8}
                                       : std::vector<int>{2, 4, 8};
  std::vector<size_t> sizes = smoke
                                  ? std::vector<size_t>{8, 1024}
                                  : std::vector<size_t>{8, 64, 1024, 16384,
                                                        262144};

  std::vector<Entry> entries;
  // (coll, algo, ranks, bytes) -> us, for the summary reduction.
  std::map<std::string, f64> by_key;
  auto key = [](const char* coll, const char* algo, int ranks, size_t bytes) {
    return std::string(coll) + "/" + algo + "/" + std::to_string(ranks) + "/" +
           std::to_string(bytes);
  };

  for (CollOp op : kOps) {
    std::printf("\n--- %s ---\n", coll_name(op));
    std::vector<CollAlgo> algos(coll::algos_for(op).begin(),
                                coll::algos_for(op).end());
    algos.push_back(CollAlgo::kAuto);
    std::vector<size_t> op_sizes =
        op == CollOp::kBarrier ? std::vector<size_t>{0} : sizes;
    for (int ranks : rank_counts) {
      for (size_t bytes : op_sizes) {
        std::printf("  r=%d %8zu B:", ranks, bytes);
        for (CollAlgo a : algos) {
          f64 us = time_coll(op, a, ranks, bytes, iters_for(bytes, smoke));
          entries.push_back({coll_name(op), coll::algo_name(a), ranks, bytes,
                             us});
          by_key[key(coll_name(op), coll::algo_name(a), ranks, bytes)] = us;
          std::printf("  %s=%.2fus", coll::algo_name(a), us);
        }
        std::printf("\n");
      }
    }
  }

  // Acceptance headline: small-message (<= 1 KiB) auto vs linear geomean
  // for allreduce/bcast/barrier at 8 ranks.
  f64 log_sum = 0;
  int log_n = 0;
  for (const char* coll : {"allreduce", "bcast", "barrier"}) {
    std::vector<size_t> small =
        std::string(coll) == "barrier"
            ? std::vector<size_t>{0}
            : (smoke ? std::vector<size_t>{8, 1024}
                     : std::vector<size_t>{8, 64, 1024});
    for (size_t bytes : small) {
      auto lin = by_key.find(key(coll, "linear", 8, bytes));
      auto aut = by_key.find(key(coll, "auto", 8, bytes));
      if (lin == by_key.end() || aut == by_key.end() || aut->second <= 0)
        continue;
      log_sum += std::log(lin->second / aut->second);
      ++log_n;
    }
  }
  f64 small_speedup = log_n > 0 ? std::exp(log_sum / log_n) : 0;
  std::printf(
      "\nsmall-message (<=1KiB) geomean speedup, auto vs linear, 8 ranks "
      "(allreduce/bcast/barrier): %.2fx\n",
      small_speedup);

  write_json(out_path, entries, small_speedup, smoke);
  return 0;
}
