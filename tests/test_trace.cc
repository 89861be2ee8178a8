// mpiwasm-trace tests: ring-buffer wraparound, concurrent writers (the
// TSan leg runs this binary), Chrome-trace JSON well-formedness for a real
// traced workload, and --profile aggregate totals against a known guest
// call sequence.
//
// The trace registry is process-global; every test that flips the enable
// switches resets the recorded state first and switches everything off on
// the way out, so the groups stay independent within one binary.
#include "testlib.h"

#include <cctype>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/harness.h"
#include "embedder/abi.h"
#include "embedder/embedder.h"
#include "simmpi/coll_algos.h"
#include "simmpi/world.h"
#include "support/timing.h"
#include "support/trace.h"
#include "toolchain/kernels.h"
#include "toolchain/mpi_imports.h"

namespace mpiwasm::test {
namespace {

using embed::Embedder;
using embed::EmbedderConfig;
namespace abi = embed::abi;
using toolchain::MpiImports;
using toolchain::MpiImportSet;

// ---------------------------------------------------------------------------
// Ring wraparound.

TEST(TraceRing, WraparoundKeepsNewestAndCountsDrops) {
  trace::Ring ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);

  for (u64 i = 0; i < 20; ++i) {
    trace::Event e;
    e.ts_ns = i;
    e.name = "tick";
    ring.push(e);
  }
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 12u);

  // The retained window is the newest 8 events, oldest-first.
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (u64 i = 0; i < events.size(); ++i) EXPECT_EQ(events[i].ts_ns, 12 + i);
}

TEST(TraceRing, UnderfilledSnapshotIsInsertionOrder) {
  trace::Ring ring(16);
  for (u64 i = 0; i < 5; ++i) {
    trace::Event e;
    e.ts_ns = 100 + i;
    ring.push(e);
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (u64 i = 0; i < events.size(); ++i) EXPECT_EQ(events[i].ts_ns, 100 + i);
}

#ifndef MPIWASM_TRACE_DISABLED

/// Turns everything off and clears recorded state; used on both sides of
/// each enable-switch test.
void trace_quiesce() {
  trace::enable_tracing(false);
  trace::enable_profiling(false);
  trace::reset();
}

// ---------------------------------------------------------------------------
// Concurrent writers. Each thread owns its ring, so parallel emission must
// be race-free; the TSan CI leg builds and runs this test.

TEST(TraceConcurrency, ParallelWritersLoseNothing) {
  trace_quiesce();
  trace::enable_tracing(true);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;  // < default ring capacity (1<<15)
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      trace::set_thread_label("writer", t);
      for (int i = 0; i < kPerThread; ++i)
        trace::instant("test", "tick", "i", i);
    });
  }
  for (auto& th : threads) th.join();

  // The joins give the reads a happens-before over every ring.
  EXPECT_EQ(trace::event_count(), u64(kThreads) * kPerThread);
  EXPECT_EQ(trace::dropped_count(), 0u);
  trace_quiesce();
}

// ---------------------------------------------------------------------------
// JSON well-formedness. A minimal recursive-descent JSON validator (no JSON
// library in tree) that also collects the string values of "name" keys.

struct JsonChecker {
  const std::string& text;
  size_t pos = 0;
  std::set<std::string> names;

  explicit JsonChecker(const std::string& t) : text(t) {}

  void ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\n' || text[pos] == '\t' ||
            text[pos] == '\r'))
      ++pos;
  }
  bool eat(char c) {
    ws();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }
  bool string_lit(std::string* out) {
    ws();
    if (pos >= text.size() || text[pos] != '"') return false;
    ++pos;
    std::string s;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) return false;
        char esc = text[pos++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i)
            if (pos >= text.size() || !std::isxdigit(u8(text[pos++])))
              return false;
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
        s.push_back('?');
      } else {
        s.push_back(c);
      }
    }
    if (pos >= text.size()) return false;
    ++pos;  // closing quote
    if (out != nullptr) *out = std::move(s);
    return true;
  }
  bool number() {
    ws();
    size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(u8(text[pos])) || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '-' ||
            text[pos] == '+'))
      ++pos;
    return pos > start;
  }
  bool literal(const char* word) {
    size_t n = std::strlen(word);
    if (text.compare(pos, n, word) != 0) return false;
    pos += n;
    return true;
  }
  bool value() {
    ws();
    if (pos >= text.size()) return false;
    switch (text[pos]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_lit(nullptr);
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    do {
      std::string key;
      if (!string_lit(&key)) return false;
      if (!eat(':')) return false;
      ws();
      if (key == "name" && pos < text.size() && text[pos] == '"') {
        std::string v;
        if (!string_lit(&v)) return false;
        names.insert(std::move(v));
      } else if (!value()) {
        return false;
      }
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool parse() {
    bool ok = value();
    ws();
    return ok && pos == text.size();
  }
};

TEST(TraceJson, TracedWorkloadEmitsWellFormedChromeJson) {
  trace_quiesce();
  // Enabled manually (not via EmbedderConfig::trace_path) so run_world does
  // not flush-and-reset before we can inspect the events.
  trace::enable_tracing(true);

  // Leg 1: an 8-rank allreduce guest at kJit with the cache off, so each
  // function the guest calls is built on its first call, mid-run. Covers
  // the mpi (MpiScope), coll (pick_algo), and engine layers.
  toolchain::ImbParams p;
  p.routine = toolchain::ImbRoutine::kAllReduce;
  p.min_bytes = 4096;
  p.max_bytes = 4096;
  p.max_iters = 20;
  p.min_iters = 20;
  auto bytes = toolchain::build_imb_module(p);
  bench::ReportCollector collector;
  EmbedderConfig cfg;
  cfg.engine.tier = EngineTier::kJit;
  cfg.engine.enable_cache = false;
  cfg.extra_imports = collector.hook();
  Embedder emb(cfg);
  auto result = emb.run_world({bytes.data(), bytes.size()}, 8);
  ASSERT_EQ(result.exit_code, 0);

  // Leg 2: a nonblocking allreduce large enough that every schedule exchange
  // (forced recursive doubling: full-buffer swaps) crosses the 64 KiB eager
  // limit and takes the segmented pipelined-rendezvous path.
  constexpr int kCount = 32768;  // doubles -> 256 KiB per message
  simmpi::CollTuning forced = simmpi::coll::forced_tuning(
      simmpi::coll::CollOp::kAllreduce, simmpi::CollAlgo::kRecursiveDoubling);
  simmpi::World world(8, simmpi::NetworkProfile::zero(), forced);
  world.run([&](simmpi::Rank& rank) {
    trace::set_thread_label("rank", rank.world_rank());
    std::vector<f64> src(kCount, f64(rank.world_rank()));
    std::vector<f64> dst(kCount, 0.0);
    auto req = rank.iallreduce(src.data(), dst.data(), kCount,
                               simmpi::Datatype::kDouble,
                               simmpi::ReduceOp::kSum);
    rank.wait(req);
    EXPECT_DOUBLE_EQ(dst[0], 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
  });

  const std::string json = trace::chrome_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.parse()) << "invalid JSON near offset " << checker.pos;

  // Every instrumented layer shows up: guest lifecycle, MPI calls,
  // collective algorithm selection, first-call builds, schedule steps, and
  // rendezvous segment drains — plus the per-thread timeline metadata.
  for (const char* name :
       {"guest._start", "MPI_Allreduce", "MPI_Init", "MPI_Finalize",
        "coll.select", "materialize", "sched.step", "rndv.segment",
        "thread_name"}) {
    EXPECT_TRUE(checker.names.count(name)) << "missing event: " << name;
  }
  trace_quiesce();
}

// ---------------------------------------------------------------------------
// Profile totals. A guest issuing a known MPI call sequence must produce
// exactly-matching aggregate counts and byte totals, and the per-call time
// must stay within the credited rank wall time.

/// _start: MPI_Init, then kCalls MPI_Allreduce of kInts MPI_INTs, then
/// MPI_Finalize and exit(0).
std::vector<u8> build_profile_guest(int calls, int ints) {
  using wasm::Op;
  wasm::ModuleBuilder b;
  MpiImportSet set;
  set.collectives = true;
  MpiImports mpi = toolchain::declare_mpi_imports(b, set);
  u32 proc_exit =
      b.import_func("wasi_snapshot_preview1", "proc_exit", {{I32}, {}});
  b.add_memory(4);
  b.export_memory();
  auto& f = b.begin_func({{}, {}}, "_start");
  f.i32_const(0);
  f.i32_const(0);
  f.call(mpi.init);
  f.op(Op::kDrop);
  for (int i = 0; i < calls; ++i) {
    f.i32_const(4096);           // sendbuf
    f.i32_const(65536);          // recvbuf
    f.i32_const(ints);
    f.i32_const(abi::MPI_INT);
    f.i32_const(abi::MPI_SUM);
    f.i32_const(abi::MPI_COMM_WORLD);
    f.call(mpi.allreduce);
    f.op(Op::kDrop);
  }
  f.call(mpi.finalize);
  f.op(Op::kDrop);
  f.i32_const(0);
  f.call(proc_exit);
  f.end();
  return b.build();
}

TEST(TraceProfile, TotalsMatchKnownCallSequence) {
  trace_quiesce();
  trace::enable_profiling(true);  // profile only: no trace events needed

  constexpr int kRanks = 4;
  constexpr int kCalls = 5;
  constexpr int kInts = 1024;  // 4096 bytes per allreduce
  auto bytes = build_profile_guest(kCalls, kInts);
  EmbedderConfig cfg;
  cfg.engine.enable_cache = false;
  Embedder emb(cfg);
  Stopwatch wall;
  auto result = emb.run_world({bytes.data(), bytes.size()}, kRanks);
  const u64 outer_wall_ns = u64(wall.elapsed_ns());
  ASSERT_EQ(result.exit_code, 0);

  auto stats = trace::profile_call_stats();
  ASSERT_TRUE(stats.count("MPI_Allreduce"));
  const auto& ar = stats.at("MPI_Allreduce");
  EXPECT_EQ(ar.count, u64(kRanks) * kCalls);
  EXPECT_EQ(ar.bytes, u64(kRanks) * kCalls * kInts * 4);
  EXPECT_GT(ar.total_ns, 0u);
  ASSERT_TRUE(stats.count("MPI_Init"));
  EXPECT_EQ(stats.at("MPI_Init").count, u64(kRanks));
  ASSERT_TRUE(stats.count("MPI_Finalize"));
  EXPECT_EQ(stats.at("MPI_Finalize").count, u64(kRanks));

  // Per-call time is a subset of the credited rank wall time, which in turn
  // cannot exceed ranks x the outer wall clock.
  u64 total_mpi_ns = 0;
  for (const auto& [name, cs] : stats) total_mpi_ns += cs.total_ns;
  const u64 wall_ns = trace::profile_wall_ns();
  EXPECT_GT(wall_ns, 0u);
  EXPECT_LE(total_mpi_ns, wall_ns);
  EXPECT_LE(wall_ns, u64(kRanks) * outer_wall_ns);

  // The report renders every profiled call plus the aggregate row.
  const std::string report = trace::profile_report();
  EXPECT_NE(report.find("MPI_Allreduce"), std::string::npos);
  EXPECT_NE(report.find("[all MPI]"), std::string::npos);

  // Profiling also feeds the algorithm-selection histogram.
  auto algos = trace::algo_histogram();
  u64 allreduce_decisions = 0;
  for (const auto& [key, n] : algos)
    if (key.rfind("allreduce/", 0) == 0) allreduce_decisions += n;
  EXPECT_EQ(allreduce_decisions, u64(kRanks) * kCalls);
  trace_quiesce();
}

#endif  // MPIWASM_TRACE_DISABLED

}  // namespace
}  // namespace mpiwasm::test
