// The repository benchmark driver. One invocation runs one workload through
// the public API (Embedder::compile / run_world, wasm::decode_module /
// validate_module, simmpi::World::run with the toolchain's native twins),
// checks every output, and prints one JSON result line last:
//
//   mpiwasm_perfbench --workload hpcg|npb_is|startup --seed N
//                     --seconds S --trace 0|1 --scratch DIR [--spans FILE]
//
// --trace 0 measures the end-to-end metrics with all tracing off.
// --trace 1 is a separate run that times each layer's public calls from
// this side (spans kept in memory, written to --spans once at exit) and
// turns on the embedder's translation recording and MPI profile; its
// numbers are the per-layer metrics. perfbench/README.md maps every metric
// to its layer and to the end-to-end metric it moves.
//
// Every wasm run uses EngineTier::kJit, the zero network profile, and its
// own empty cache directory under --scratch, deleted after the run, so no
// run reads a code cache or collective-tuning table another run left.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/harness.h"
#include "embedder/embedder.h"
#include "simmpi/world.h"
#include "support/timing.h"
#include "support/trace.h"
#include "toolchain/kernels.h"
#include "toolchain/native_kernels.h"
#include "wasm/decoder.h"
#include "wasm/validator.h"

extern char** environ;

namespace {

using namespace mpiwasm;
namespace fs = std::filesystem;
using toolchain::ImbRoutine;

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1].
f64 quantile(std::vector<f64> v, f64 q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const f64 pos = q * f64(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - f64(lo));
}

f64 median(const std::vector<f64>& v) { return quantile(v, 0.5); }

f64 geomean(const std::vector<f64>& v) {
  if (v.empty()) return 0;
  f64 log_sum = 0;
  for (f64 x : v) log_sum += std::log(x);
  return std::exp(log_sum / f64(v.size()));
}

/// run_s is also given as p75, the highest percentile with at least ten
/// samples beyond it once there are kMinRunSamples samples.
constexpr f64 kTailQuantile = 0.75;
constexpr size_t kMinRunSamples = 40;
constexpr size_t kMinSetupSamples = 5;
/// Timed cache loads per module in one warm set-up sample (their mean).
constexpr int kWarmLoads = 4;
/// Share of --seconds that the MPI probe (the IMB programs) measures; the
/// workload's own program gets the rest.
constexpr f64 kProbeShare = 1.0 / 3;

// ---------------------------------------------------------------------------
// Benchmark-side spans: one per public call, with a parent and a repetition
// id. Kept in memory; written once at exit.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  /// Times `fn` and, when tracing, records it as a span under the innermost
  /// open span. Returns the call's wall time in seconds.
  template <class F>
  f64 time(const std::string& name, int rep, F&& fn) {
    const int id = on_ ? open(name, rep) : -1;
    const u64 t0 = now_ns();
    fn();
    const u64 t1 = now_ns();
    if (id >= 0) close(id, t0, t1);
    return f64(t1 - t0) * 1e-9;
  }

  /// Total duration (seconds) of the spans named `name`, one value per
  /// repetition id.
  std::vector<f64> durations(const std::string& name) const {
    std::map<int, f64> per_rep;
    for (const Span& s : spans_)
      if (s.name == name) per_rep[s.rep] += f64(s.end_ns - s.start_ns) * 1e-9;
    std::vector<f64> out;
    for (const auto& [rep, secs] : per_rep) out.push_back(secs);
    return out;
  }

  /// Writes every span with its self time (duration minus the part its
  /// children cover) as a JSON array.
  bool write(const std::string& path) const {
    std::vector<u64> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[size_t(s.parent)] += s.end_ns - s.start_ns;
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent << ", \"rep\": " << s.rep
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"self_ns\": " << (s.end_ns - s.start_ns - child_ns[i])
          << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return bool(out);
  }

  /// RAII parent span for a group of calls.
  class Scope {
   public:
    Scope(SpanLog& log, const std::string& name, int rep)
        : log_(log), id_(log.on_ ? log.open(name, rep) : -1), t0_(now_ns()) {}
    ~Scope() {
      if (id_ >= 0) log_.close(id_, t0_, now_ns());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
    u64 t0_;
  };

 private:
  struct Span {
    std::string name;
    int parent = -1;
    int rep = 0;
    u64 start_ns = 0;
    u64 end_ns = 0;
  };

  int open(const std::string& name, int rep) {
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), rep, 0, 0});
    stack_.push_back(int(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id, u64 t0, u64 t1) {
    spans_[size_t(id)].start_ns = t0;
    spans_[size_t(id)].end_ns = t1;
    stack_.pop_back();
  }

  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Per-run isolation: a fresh, empty directory under --scratch.
// ---------------------------------------------------------------------------

class TempDir {
 public:
  explicit TempDir(const fs::path& path) : path_(path) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  std::string str() const { return path_.string(); }

  /// Total bytes of the regular files inside.
  u64 bytes() const {
    u64 total = 0;
    for (const auto& e : fs::recursive_directory_iterator(path_))
      if (e.is_regular_file()) total += e.file_size();
    return total;
  }

 private:
  fs::path path_;
};

// ---------------------------------------------------------------------------
// Host description.
// ---------------------------------------------------------------------------

/// Size in bytes of cpu0's data/unified cache at `level` (0 if unknown).
u64 sysfs_cache_bytes(int level) {
  for (int i = 0; i < 8; ++i) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream lv(base + "level"), ty(base + "type"), sz(base + "size");
    int l = 0;
    std::string type, size;
    if (!(lv >> l) || !(ty >> type) || !(sz >> size)) continue;
    if (l != level || type == "Instruction" || size.empty()) continue;
    u64 mult = 1;
    if (size.back() == 'K') mult = 1024;
    if (size.back() == 'M') mult = 1024 * 1024;
    return std::strtoull(size.c_str(), nullptr, 10) * mult;
  }
  return 0;
}

/// CPU time the hypervisor stole from this host, in USER_HZ ticks summed
/// over all CPUs (the `steal` column of /proc/stat); 0 where unreported.
u64 host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  u64 field[8] = {};
  in >> cpu;
  for (u64& f : field) in >> f;
  return cpu == "cpu" ? field[7] : 0;
}

// ---------------------------------------------------------------------------
// IMB routines: the MPI probe of every workload and the traced run's MPI
// layers.
// ---------------------------------------------------------------------------

struct ImbCase {
  ImbRoutine routine;
  const char* name;
  int ranks;
};
constexpr ImbCase kImbCases[] = {
    {ImbRoutine::kAllReduce, "allreduce", 4},
    {ImbRoutine::kAlltoall, "alltoall", 4},
    {ImbRoutine::kBcast, "bcast", 4},
    {ImbRoutine::kPingPong, "pingpong", 2},
};
constexpr u32 kSmallMin = 8, kSmallMax = 1024;
constexpr u32 kLargeMin = 64 * 1024, kLargeMax = 1024 * 1024;

toolchain::ImbParams imb_params(const ImbCase& c, bool large, i32 report_id) {
  toolchain::ImbParams p;
  p.routine = c.routine;
  p.min_bytes = large ? kLargeMin : kSmallMin;
  p.max_bytes = large ? kLargeMax : kSmallMax;
  p.base_iters = 1u << 25;
  p.max_iters = large ? 400 : 1000;
  p.min_iters = 32;
  p.report_id = report_id;
  return p;
}

u32 size_count(u32 lo, u32 hi) {
  u32 n = 0;
  for (u32 s = lo; s <= hi; s *= 2) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// The benchmark.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string spans_path;
  bool rss_probe = false;  // child process of Bench::peak_rss_mb()
};

/// What one native twin run produced.
struct NativeOut {
  f64 ref = 0;                          // value the wasm output must match
  std::vector<toolchain::ImbRow> rows;  // IMB: rank 0's rows
};

/// One wasm world program with its native twin and output checks.
struct Program {
  std::string name;
  std::vector<u8> wasm;
  int ranks = 1;
  i32 report_id = 0;
  /// Runs the native twin on `ranks` ranks; false on a wrong result.
  std::function<bool(int ranks, NativeOut& out)> native;
  /// Checks one wasm run's reported rows and stdout against the native
  /// twin's reference value.
  std::function<bool(const std::vector<bench::ReportRow>& rows,
                     const std::string& out, int ranks, f64 ref)>
      check;
};

struct WasmRun {
  bool ok = false;  // ran to completion with exit code 0 on every rank
  f64 wall_s = 0;
  embed::RunResult result;
  std::vector<bench::ReportRow> rows;
  std::string out;  // every rank's stdout
};

// --- workload programs ------------------------------------------------------

constexpr u32 kHpcgN = 1 << 15;  // 4 vectors x 256 KiB per rank: fits in L2
constexpr u32 kHpcgIters = 200;

Program hpcg_program() {
  toolchain::HpcgParams p;
  p.n_per_rank = kHpcgN;
  p.iterations = kHpcgIters;
  p.use_simd = true;
  Program prog;
  prog.name = "hpcg";
  prog.wasm = toolchain::build_hpcg_module(p);
  prog.ranks = 2;
  prog.report_id = p.report_id;
  prog.native = [p](int ranks, NativeOut& out) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Rank& r) {
      auto local = toolchain::native_hpcg_run(r, p);
      if (r.rank() == 0) out.ref = local.residual;
    });
    return std::isfinite(out.ref);
  };
  // The residual must be bit-equal to the native twin's.
  prog.check = [](const std::vector<bench::ReportRow>& rows,
                  const std::string&, int, f64 ref) {
    return rows.size() == 1 && rows[0].c == ref;
  };
  return prog;
}

toolchain::IsParams is_params() {
  toolchain::IsParams p;
  p.keys_per_rank = 1 << 21;  // 8 MiB of keys per rank: larger than L2
  p.key_log2_max = 19;
  p.repetitions = 1;
  return p;
}

Program is_program() {
  const toolchain::IsParams p = is_params();
  Program prog;
  prog.name = "npb_is";
  prog.wasm = toolchain::build_is_module(p);
  prog.ranks = 4;
  prog.report_id = p.report_id;
  prog.native = [p](int ranks, NativeOut&) {
    std::atomic<bool> ok{true};
    simmpi::World world(ranks);
    world.run([&](simmpi::Rank& r) {
      if (!toolchain::native_is_run(r, p).ok) ok = false;
    });
    return ok.load();
  };
  // checksum_ok on the wasm side; `native` checks the native side.
  prog.check = [](const std::vector<bench::ReportRow>& rows,
                  const std::string&, int, f64) {
    return rows.size() == 1 && rows[0].b == 1.0;
  };
  return prog;
}

std::string hello_line(int rank, int size) {
  return "hello from rank " + std::to_string(rank) + " of " +
         std::to_string(size) + "\n";
}

Program hello_program() {
  Program prog;
  prog.name = "hello";
  prog.wasm = toolchain::build_hello_module();
  // Two ranks: four threads of a sub-millisecond run on a 4-core host
  // mostly time the host's thread wake-ups.
  prog.ranks = 2;
  prog.native = [](int ranks, NativeOut&) {
    std::mutex mu;
    std::string out;
    simmpi::World world(ranks);
    world.run([&](simmpi::Rank& r) {
      const std::string line = hello_line(r.rank(), r.size());
      std::lock_guard<std::mutex> lock(mu);
      out += line;
    });
    return out.size() == size_t(ranks) * hello_line(0, ranks).size();
  };
  // Every rank printed its line.
  prog.check = [](const std::vector<bench::ReportRow>&, const std::string& out,
                  int ranks, f64) {
    for (int r = 0; r < ranks; ++r)
      if (out.find(hello_line(r, ranks)) == std::string::npos) return false;
    return out.size() == size_t(ranks) * hello_line(0, ranks).size();
  };
  return prog;
}

Program imb_program(const ImbCase& c, bool large, i32 report_id) {
  const toolchain::ImbParams p = imb_params(c, large, report_id);
  const u32 sizes = size_count(p.min_bytes, p.max_bytes);
  Program prog;
  prog.name = std::string("imb_") + c.name + (large ? "_large" : "_small");
  prog.wasm = toolchain::build_imb_module(p);
  prog.ranks = c.ranks;
  prog.report_id = report_id;
  prog.native = [p, sizes](int ranks, NativeOut& out) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Rank& r) {
      auto local = toolchain::native_imb_run(r, p);
      if (r.rank() == 0) out.rows = std::move(local);
    });
    return out.rows.size() == sizes;
  };
  // One row per size, each with a positive latency.
  prog.check = [sizes](const std::vector<bench::ReportRow>& rows,
                       const std::string&, int, f64) {
    return rows.size() == sizes &&
           std::all_of(rows.begin(), rows.end(),
                       [](const bench::ReportRow& r) { return r.b > 0; });
  };
  return prog;
}

// --- the driver -------------------------------------------------------------

class Bench {
 public:
  explicit Bench(Options opt)
      : opt_(std::move(opt)), rng_(opt_.seed), spans_(opt_.trace) {}

  int main();
  /// The child's side of peak_rss_mb(); returns the process exit code.
  int rss_probe();

 private:
  // --- bookkeeping ---------------------------------------------------------
  bool op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("# FAIL %s\n", what.c_str());
    }
    return ok;
  }
  void metric(const std::string& name, f64 value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A count that must repeat exactly every time it is taken.
  void count(const std::string& name, f64 value) {
    auto [it, fresh] = counts_.emplace(name, value);
    if (!fresh && it->second != value)
      op(false, "count " + name + " did not repeat");
  }
  fs::path fresh_dir() {
    return fs::path(opt_.scratch) / ("run" + std::to_string(dir_seq_++));
  }
  bool coin() { return (rng_() & 1) != 0; }

  /// Starts a sampling phase that measures for about `seconds`.
  void begin_phase(f64 seconds) {
    phase_end_ns_ = now_ns() + u64(seconds * 1e9);
  }
  bool in_phase() const { return now_ns() < phase_end_ns_; }
  /// Whether a timed window that began at steal reading `steal0` and took
  /// `wall_s` counts as a sample. A window during which the hypervisor
  /// stole more than kStealShare of the host's CPU time stalled the rank
  /// threads, so it is rejected: the caller retries it after a pause, and
  /// the phase is extended by the time lost. Once the run's noise budget is
  /// spent, every window counts.
  bool keep(u64 steal0, f64 wall_s) {
    const f64 capacity_ticks = wall_s * ticks_per_s_ * nproc_;
    const f64 stolen = f64(host_steal_ticks() - steal0);
    if (stolen <= std::max(2.0, kStealShare * capacity_ticks)) return true;
    if (noise_spent_s_ >= kNoiseBudget * opt_.seconds) {
      ++noisy_kept_;
      return true;
    }
    ++noisy_retried_;
    std::this_thread::sleep_for(std::chrono::milliseconds(kPauseMs));
    const f64 lost = wall_s + kPauseMs * 1e-3;
    noise_spent_s_ += lost;
    phase_end_ns_ += u64(lost * 1e9);
    return false;
  }

  // --- public-API calls ----------------------------------------------------
  embed::EmbedderConfig wasm_config(const std::string& cache_dir,
                                    bool cache) const {
    embed::EmbedderConfig cfg;
    cfg.engine.tier = rt::EngineTier::kJit;
    cfg.engine.jit = true;
    cfg.engine.enable_cache = cache;
    cfg.engine.cache_dir = cache_dir;
    cfg.net_profile = simmpi::NetworkProfile::zero();
    cfg.coll = simmpi::CollTuning{};
    return cfg;
  }
  std::shared_ptr<const rt::CompiledModule> compile(
      const std::vector<u8>& wasm, rt::EngineTier tier,
      const std::string& span, int rep, f64* seconds);
  WasmRun run_wasm(const std::shared_ptr<const rt::CompiledModule>& cm,
                   const Program& prog, int ranks, const std::string& span,
                   int rep, bool record);
  /// Counts one output check of a completed wasm run.
  bool check(const Program& prog, const WasmRun& run, int ranks, f64 ref) {
    return run.ok && op(prog.check(run.rows, run.out, ranks, ref),
                        prog.name + ": wrong output");
  }
  bool run_native(const Program& prog, int ranks, const std::string& span,
                  int rep, f64* seconds, NativeOut& out);

  // --- phases --------------------------------------------------------------
  void build_programs();
  void report_host();
  /// One set-up sample: a cold compile of the workload's set-up module,
  /// then compiles of it through `warm`, whose cache holds the module. False
  /// on a failed operation (counted).
  bool setup_rep(int rep, embed::Embedder& warm, f64* cold_s, f64* warm_s);
  /// Cycles of a set-up sample and `pairs_per_setup` wasm/native pairs of
  /// `prog` for about `seconds`. Interleaving spreads the set-up samples
  /// over the whole run, so a slow spell on a shared host moves them no
  /// more than the run-time samples. Each side of a pair is `batch`
  /// back-to-back runs and gives their mean as one sample, so a sample of a
  /// sub-millisecond program is not one thread wake-up.
  void run_phase(const Program& prog, f64 seconds, int pairs_per_setup,
                 int batch);
  /// Passes over the IMB programs for about `seconds` and at least
  /// `min_passes`.
  void imb_phase(f64 seconds, size_t min_passes, bool native_side);
  void layer_phase();
  /// Median peak RSS (MB) of five child processes that each compile and run
  /// the workload's wasm program once and do nothing else.
  f64 peak_rss_mb();
  /// This process's peak RSS in MB (VmHWM; unlike ru_maxrss it does not
  /// carry over the spawning process's footprint across exec).
  static f64 own_peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("VmHWM:", 0) == 0)
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
  }

  /// Geomean over routines (all when `routine` < 0) and sizes of the median
  /// per-op latency at 8 B - 1 KiB, in us.
  f64 imb_small_us(int routine, bool native) const;
  /// Geomean over routines and sizes of bytes per second at the median
  /// per-op latency at 64 KiB - 1 MiB, in GB/s.
  f64 imb_large_gbs(int routine, bool native) const;

  static constexpr f64 kStealShare = 0.05;
  /// Time a run may spend on rejected windows, in units of --seconds.
  static constexpr f64 kNoiseBudget = 1.5;
  static constexpr int kPauseMs = 250;

  Options opt_;
  std::mt19937_64 rng_;
  SpanLog spans_;
  const f64 ticks_per_s_ = f64(sysconf(_SC_CLK_TCK));
  const f64 nproc_ = f64(std::max(1u, std::thread::hardware_concurrency()));
  u64 phase_end_ns_ = 0;
  f64 noise_spent_s_ = 0;
  u64 noisy_retried_ = 0, noisy_kept_ = 0;
  int dir_seq_ = 0;
  u64 attempted_ = 0, failed_ = 0;
  struct Metric {
    std::string name;
    f64 value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::map<std::string, f64> counts_;

  // Workload description.
  Program main_;  // the workload's world program
  std::vector<Program> imb_progs_;  // small and large range per routine
  std::vector<u8> stress_module_;
  /// The module whose compile is the workload's set-up.
  const std::vector<u8>* setup_module_ = nullptr;
  u64 working_set_bytes_ = 0;
  f64 kernel_ops_ = 0, kernel_bytes_ = 0;

  // Samples.
  std::vector<f64> setup_cold_s_, setup_warm_s_;
  std::vector<f64> run_wasm_s_, run_native_s_;
  /// Per IMB program: per-op latencies (us) by message size.
  struct ImbSamples {
    std::map<u32, std::vector<f64>> wasm_us, native_us;
  };
  std::vector<ImbSamples> imb_;
};

std::shared_ptr<const rt::CompiledModule> Bench::compile(
    const std::vector<u8>& wasm, rt::EngineTier tier, const std::string& span,
    int rep, f64* seconds) {
  // Cache off: the directory stays empty, but is still private to the call.
  TempDir dir(fresh_dir());
  auto cfg = wasm_config(dir.str(), /*cache=*/false);
  cfg.engine.tier = tier;
  embed::Embedder emb(cfg);
  std::shared_ptr<const rt::CompiledModule> cm;
  try {
    const f64 s = spans_.time(span, rep, [&] {
      cm = emb.compile({wasm.data(), wasm.size()});
    });
    if (seconds) *seconds = s;
  } catch (const std::exception& e) {
    op(false, span + ": " + e.what());
    return nullptr;
  }
  return op(cm != nullptr && !cm->loaded_from_cache, span) ? cm : nullptr;
}

WasmRun Bench::run_wasm(const std::shared_ptr<const rt::CompiledModule>& cm,
                        const Program& prog, int ranks,
                        const std::string& span, int rep, bool record) {
  WasmRun run;
  TempDir dir(fresh_dir());
  bench::ReportCollector collector;
  std::mutex out_mu;
  auto cfg = wasm_config(dir.str(), /*cache=*/false);
  cfg.extra_imports = collector.hook();
  cfg.record_translation = record;
  cfg.stdout_sink = [&](int, std::string_view s) {
    std::lock_guard<std::mutex> lock(out_mu);
    run.out.append(s);
  };
  embed::Embedder emb(cfg);
  try {
    run.wall_s = spans_.time(span, rep, [&] {
      run.result = emb.run_world(cm, ranks);
    });
  } catch (const std::exception& e) {
    op(false, span + " (" + prog.name + "): trap: " + e.what());
    return run;
  }
  run.rows = collector.rows_with_id(prog.report_id);
  run.ok = op(run.result.exit_code == 0,
              span + " (" + prog.name + "): exit code " +
                  std::to_string(run.result.exit_code));
  return run;
}

bool Bench::run_native(const Program& prog, int ranks, const std::string& span,
                       int rep, f64* seconds, NativeOut& out) {
  bool ok = false;
  try {
    const f64 s =
        spans_.time(span, rep, [&] { ok = prog.native(ranks, out); });
    if (seconds) *seconds = s;
  } catch (const std::exception& e) {
    return op(false, span + " (" + prog.name + "): " + e.what());
  }
  return op(ok, span + " (" + prog.name + "): wrong native result");
}

// --- phases -----------------------------------------------------------------

void Bench::build_programs() {
  const std::string& w = opt_.workload;
  i32 id = 1000;
  for (const ImbCase& c : kImbCases)
    for (bool large : {false, true})
      imb_progs_.push_back(imb_program(c, large, id++));
  imb_.resize(imb_progs_.size());
  if (w == "hpcg") {
    main_ = hpcg_program();
    working_set_bytes_ = 4 * (u64(kHpcgN) + 2) * 8;
    // The module's own flop and byte formulas.
    kernel_ops_ = f64(kHpcgIters) * 14 * kHpcgN * main_.ranks;
    kernel_bytes_ = f64(kHpcgIters) * 144 * kHpcgN * main_.ranks;
  } else if (w == "npb_is") {
    main_ = is_program();
    const auto p = is_params();
    const f64 keys = f64(p.keys_per_rank) * main_.ranks * p.repetitions;
    // keys + send buffer + received keys, and the local histogram.
    working_set_bytes_ = u64(p.keys_per_rank) * 12 +
                         (u64(1) << p.key_log2_max) / u64(main_.ranks) * 4;
    // One key operation is the NPB Mop unit; per key the kernel writes it,
    // reads it for the histogram and the scatter, writes the send buffer,
    // exchanges it (send + receive) and reads and rewrites it in the sort.
    kernel_ops_ = keys;
    kernel_bytes_ = keys * 4 * 8;
  } else {
    main_ = hello_program();
    stress_module_ = toolchain::build_compile_stress_module(8192);
    working_set_bytes_ = stress_module_.size();
  }
  setup_module_ = w == "startup" ? &stress_module_ : &main_.wasm;
}

void Bench::report_host() {
  const u64 l2 = sysfs_cache_bytes(2), l3 = sysfs_cache_bytes(3);
  const u64 llc = l3 ? l3 : l2;
  const int ranks = main_.ranks;
  std::printf("# host: nproc=%u l2_bytes=%llu l3_bytes=%llu\n",
              std::thread::hardware_concurrency(), (unsigned long long)l2,
              (unsigned long long)l3);
  std::printf(
      "# inputs: workload=%s seed=%llu seconds=%g trace=%d tier=%s "
      "net_profile=zero ranks=%d working_set_bytes_per_rank=%llu "
      "working_set_to_llc=%.4f\n",
      opt_.workload.c_str(), (unsigned long long)opt_.seed, opt_.seconds,
      int(opt_.trace), rt::tier_name(rt::EngineTier::kJit), ranks,
      (unsigned long long)working_set_bytes_,
      llc ? f64(working_set_bytes_) * ranks / f64(llc) : 0.0);
  std::printf(
      "# seed: the kernel builders fix every input; the seed orders each "
      "wasm/native pair and the IMB programs within a pass\n");
}

bool Bench::setup_rep(int rep, embed::Embedder& warm, f64* cold_s,
                      f64* warm_s) {
  const std::span<const u8> wasm{setup_module_->data(), setup_module_->size()};
  auto cm = compile(*setup_module_, rt::EngineTier::kJit,
                    "embedder.compile_cold", rep, cold_s);
  if (!cm) return false;
  // Warm: load from the populated cache once untimed, then time kWarmLoads
  // loads. The untimed load refills the CPU caches, which the runs before
  // this sample filled with their own data; without it the sample times
  // their footprint as much as the load.
  *warm_s = 0;
  try {
    for (int k = 0; k <= kWarmLoads; ++k) {
      std::shared_ptr<const rt::CompiledModule> loaded;
      const f64 s = spans_.time(
          k == 0 ? "embedder.compile_warm_up" : "embedder.compile_warm", rep,
          [&] { loaded = warm.compile(wasm); });
      if (!op(loaded->loaded_from_cache && loaded->module.functions.size() ==
                                               cm->module.functions.size(),
              "warm compile not served from the cache"))
        return false;
      if (k > 0) *warm_s += s / kWarmLoads;
    }
  } catch (const std::exception& e) {
    return op(false, std::string("warm compile: ") + e.what());
  }
  return true;
}

void Bench::run_phase(const Program& prog, f64 seconds, int pairs_per_setup,
                      int batch) {
  auto cm = compile(prog.wasm, rt::EngineTier::kJit, "embedder.compile_cold",
                    0, nullptr);
  if (!cm) return;
  // The warm set-up samples load from one cache, populated here: the loads
  // only read it, and populating it again per sample would cost a second
  // cold compile each time.
  TempDir warm_dir(fresh_dir());
  embed::Embedder warm(wasm_config(warm_dir.str(), /*cache=*/true));
  try {
    warm.compile({setup_module_->data(), setup_module_->size()});
  } catch (const std::exception& e) {
    op(false, std::string("populating the cache: ") + e.what());
    return;
  }
  begin_phase(seconds);
  for (int cycle = 0;
       failed_ == 0 && (in_phase() || run_wasm_s_.size() < kMinRunSamples ||
                        setup_cold_s_.size() < kMinSetupSamples);
       ++cycle) {
    u64 steal0 = host_steal_ticks();
    Stopwatch window;
    f64 cold_s = 0, warm_s = 0;
    if (!setup_rep(cycle, warm, &cold_s, &warm_s)) return;
    if (keep(steal0, window.elapsed_s())) {
      setup_cold_s_.push_back(cold_s);
      setup_warm_s_.push_back(warm_s);
    }
    // One steal check covers all the cycle's pairs: a hello batch is far
    // shorter than the 10 ms tick in which /proc/stat counts steal.
    steal0 = host_steal_ticks();
    window.reset();
    std::vector<f64> wasm_samples, native_samples;
    for (int pair = 0; pair < pairs_per_setup; ++pair) {
      const int rep = cycle * pairs_per_setup + pair;
      NativeOut native;
      f64 native_s = 0, wasm_s = 0;
      bool ok = true;
      std::vector<WasmRun> runs;
      auto native_side = [&] {
        for (int b = 0; b < batch && ok; ++b) {
          f64 s = 0;
          ok = run_native(prog, prog.ranks, "toolchain.native_run", rep, &s,
                          native);
          native_s += s / batch;
        }
      };
      auto wasm_side = [&] {
        for (int b = 0; b < batch; ++b) {
          runs.push_back(
              run_wasm(cm, prog, prog.ranks, "embedder.run_world", rep, false));
          wasm_s += runs.back().wall_s / batch;
        }
      };
      // The seed decides which twin of the pair runs first.
      if (coin()) {
        native_side();
        wasm_side();
      } else {
        wasm_side();
        native_side();
      }
      for (const WasmRun& run : runs) {
        if (!check(prog, run, prog.ranks, native.ref)) ok = false;
        else count("runtime.jit_funcs", f64(run.result.tierup.jit_funcs));
      }
      if (!ok) return;
      // Where set-up is heavy enough to share a cycle with several pairs,
      // it leaves the CPU caches and the heap to the compiler, so the first
      // pair after it is a warm-up: run and checked, not timed.
      if (pairs_per_setup > 1 && pair == 0) continue;
      wasm_samples.push_back(wasm_s);
      native_samples.push_back(native_s);
    }
    if (!keep(steal0, window.elapsed_s())) continue;
    run_wasm_s_.insert(run_wasm_s_.end(), wasm_samples.begin(),
                       wasm_samples.end());
    run_native_s_.insert(run_native_s_.end(), native_samples.begin(),
                         native_samples.end());
  }
}

void Bench::imb_phase(f64 seconds, size_t min_passes, bool native_side) {
  std::vector<std::shared_ptr<const rt::CompiledModule>> cms;
  for (const Program& p : imb_progs_) {
    cms.push_back(compile(p.wasm, rt::EngineTier::kJit, "embedder.compile_cold",
                          0, nullptr));
    if (!cms.back()) return;
  }
  begin_phase(seconds);
  for (int pass = 0;
       failed_ == 0 && (size_t(pass) < min_passes || in_phase()); ++pass) {
    SpanLog::Scope span(spans_, "imb.pass", pass);
    std::vector<size_t> order(imb_progs_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng_);
    for (size_t i : order) {
      const Program& p = imb_progs_[i];
      // Each side repeats until one of its runs is a kept window.
      auto native_run = [&] {
        for (;;) {
          NativeOut out;
          f64 s = 0;
          const u64 steal0 = host_steal_ticks();
          if (!run_native(p, p.ranks, "imb.native_run", pass, &s, out)) return;
          if (!keep(steal0, s)) continue;
          for (const auto& r : out.rows)
            imb_[i].native_us[r.bytes].push_back(r.t_avg_us);
          return;
        }
      };
      auto wasm_run = [&] {
        for (;;) {
          const u64 steal0 = host_steal_ticks();
          WasmRun run =
              run_wasm(cms[i], p, p.ranks, "imb.run_world", pass, false);
          if (!check(p, run, p.ranks, 0)) return;
          if (!keep(steal0, run.wall_s)) continue;
          for (const auto& r : run.rows)
            imb_[i].wasm_us[u32(r.a)].push_back(r.b);
          return;
        }
      };
      if (native_side && coin()) {
        native_run();
        wasm_run();
      } else {
        wasm_run();
        if (native_side) native_run();
      }
    }
  }
}

f64 Bench::imb_small_us(int routine, bool native) const {
  std::vector<f64> v;
  for (size_t i = 0; i < imb_.size(); ++i) {
    if ((routine >= 0 && int(i / 2) != routine) || i % 2 == 1) continue;
    for (const auto& [bytes, us] : native ? imb_[i].native_us : imb_[i].wasm_us)
      v.push_back(median(us));
  }
  return geomean(v);
}

f64 Bench::imb_large_gbs(int routine, bool native) const {
  std::vector<f64> v;
  for (size_t i = 0; i < imb_.size(); ++i) {
    if ((routine >= 0 && int(i / 2) != routine) || i % 2 == 0) continue;
    for (const auto& [bytes, us] : native ? imb_[i].native_us : imb_[i].wasm_us)
      v.push_back(f64(bytes) / (median(us) * 1e-6) / 1e9);
  }
  return geomean(v);
}

void Bench::layer_phase() {
  const bool startup = opt_.workload == "startup";

  // wasm + runtime: decode, validate and compile the workload's set-up
  // module at each tier, then store it into and load it from a fresh cache.
  u64 module_bytes = 0, funcs = 0, cache_bytes = 0;
  {
    SpanLog::Scope phase(spans_, "phase.compile_layers", 0);
    const std::vector<u8>& wasm = *setup_module_;
    const std::span<const u8> bytes{wasm.data(), wasm.size()};
    const int reps = startup ? 3 : 15;
    for (int rep = 0; rep < reps; ++rep) {
      wasm::DecodeResult dr;
      spans_.time("wasm.decode", rep, [&] { dr = wasm::decode_module(bytes); });
      if (!op(dr.ok(), "decode: " + dr.error)) continue;
      wasm::ValidationResult vr;
      spans_.time("wasm.validate", rep,
                  [&] { vr = wasm::validate_module(*dr.module); });
      op(vr.ok, "validate: " + vr.error);
      module_bytes = wasm.size();
      funcs = dr.module->functions.size();
      compile(wasm, rt::EngineTier::kInterp, "runtime.compile_interp", rep,
              nullptr);
      compile(wasm, rt::EngineTier::kOptimizing, "runtime.compile_opt", rep,
              nullptr);
      compile(wasm, rt::EngineTier::kJit, "runtime.compile_jit", rep, nullptr);
      TempDir dir(fresh_dir());
      embed::Embedder emb(wasm_config(dir.str(), /*cache=*/true));
      try {
        spans_.time("runtime.cache_store", rep, [&] { emb.compile(bytes); });
        cache_bytes = dir.bytes();
        std::shared_ptr<const rt::CompiledModule> loaded;
        spans_.time("runtime.cache_load", rep,
                    [&] { loaded = emb.compile(bytes); });
        op(loaded->loaded_from_cache, "cache load missed");
      } catch (const std::exception& e) {
        op(false, std::string("cache: ") + e.what());
      }
      count("wasm.module_bytes", f64(module_bytes));
      count("wasm.funcs", f64(funcs));
      count("runtime.cache_bytes", f64(cache_bytes));
    }
  }

  // embedder: the fixed instantiate-and-spawn cost at the workload's ranks.
  {
    SpanLog::Scope phase(spans_, "phase.world_start", 0);
    const Program hello = hello_program();
    const int ranks = main_.ranks;
    auto cm = compile(hello.wasm, rt::EngineTier::kJit, "embedder.compile_cold",
                      0, nullptr);
    for (int rep = 0; cm && rep < 30; ++rep)
      check(hello,
            run_wasm(cm, hello, ranks, "embedder.world_start", rep, false),
            ranks, 0);
  }

  // The workload's program: native twin, untraced and traced wasm runs, and
  // the same program on one rank.
  f64 mpi_ns = 0, wall_ns = 0, samples = 0, sample_ns = 0;
  u64 jit_funcs = 0, jit_fallback = 0, jit_code = 0;
  {
    SpanLog::Scope phase(spans_, "phase.program", 0);
    const Program& p = main_;
    auto cm = compile(p.wasm, rt::EngineTier::kJit, "embedder.compile_cold", 0,
                      nullptr);
    const int reps = startup ? 30 : 5;
    for (int rep = 0; cm && rep < reps; ++rep) {
      u64 msgs = 0, bytes = 0;
      NativeOut native;
      if (!run_native(p, p.ranks, "toolchain.native_run", rep, nullptr,
                      native))
        continue;
      auto plain = run_wasm(cm, p, p.ranks, "embedder.run_world", rep, false);
      check(p, plain, p.ranks, native.ref);
      jit_funcs = plain.result.tierup.jit_funcs;
      jit_fallback = plain.result.tierup.jit_fallback_funcs;
      jit_code = plain.result.tierup.jit_code_bytes;

      trace::reset();
      trace::enable_profiling(true);
      auto traced =
          run_wasm(cm, p, p.ranks, "embedder.run_world_traced", rep, true);
      trace::enable_profiling(false);
      check(p, traced, p.ranks, native.ref);
      for (const auto& [name, st] : trace::profile_call_stats()) {
        msgs += st.count;
        bytes += st.bytes;
        mpi_ns += f64(st.total_ns);
      }
      wall_ns += f64(trace::profile_wall_ns());
      trace::reset();
      for (const auto& smp : traced.result.translation_samples) {
        samples += 1;
        sample_ns += f64(smp.ns);
      }

      NativeOut native_one;
      if (run_native(p, 1, "toolchain.native_1rank", rep, nullptr, native_one))
        check(p, run_wasm(cm, p, 1, "runtime.guest_1rank", rep, false), 1,
              native_one.ref);
      count("runtime.jit_funcs", f64(jit_funcs));
      count("runtime.jit_fallback_funcs", f64(jit_fallback));
      count("runtime.jit_code_bytes", f64(jit_code));
      count("simmpi.msgs", f64(msgs));
      count("simmpi.bytes", f64(bytes));
    }
  }

  // embedder + simmpi: the IMB routines, wasm and native side by side.
  {
    SpanLog::Scope phase(spans_, "phase.imb", 0);
    imb_phase(0, 3, /*native_side=*/true);
  }

  auto med = [&](const char* name) { return median(spans_.durations(name)); };
  metric("wasm.decode_s", med("wasm.decode"), "s");
  metric("wasm.validate_s", med("wasm.validate"), "s");
  metric("wasm.module_bytes", f64(module_bytes), "bytes");
  metric("wasm.funcs", f64(funcs), "count");
  metric("runtime.compile_interp_s", med("runtime.compile_interp"), "s");
  metric("runtime.compile_opt_s", med("runtime.compile_opt"), "s");
  metric("runtime.compile_jit_s", med("runtime.compile_jit"), "s");
  metric("runtime.cache_load_s", med("runtime.cache_load"), "s");
  metric("runtime.cache_bytes", f64(cache_bytes), "bytes");
  metric("runtime.jit_funcs", f64(jit_funcs), "count");
  metric("runtime.jit_fallback_funcs", f64(jit_fallback), "count");
  metric("runtime.jit_code_bytes", f64(jit_code), "bytes");
  metric("runtime.guest_1rank_s", med("runtime.guest_1rank"), "s");
  metric("runtime.kernel_ops", kernel_ops_, "ops");
  metric("runtime.kernel_bytes", kernel_bytes_, "bytes");
  metric("embedder.world_start_s", med("embedder.world_start"), "s");
  for (int r = 0; r < 4; ++r)
    metric(std::string("embedder.") + kImbCases[r].name + "_overhead_us",
           imb_small_us(r, false) - imb_small_us(r, true), "us");
  metric("embedder.translate_ns", samples ? sample_ns / samples : 0, "ns");
  metric("embedder.mpi_share", wall_ns ? mpi_ns / wall_ns : 0, "ratio");
  for (int r = 0; r < 4; ++r)
    metric(std::string("simmpi.") + kImbCases[r].name + "_small_us",
           imb_small_us(r, true), "us");
  for (int r = 0; r < 4; ++r)
    metric(std::string("simmpi.") + kImbCases[r].name + "_large_gbs",
           imb_large_gbs(r, true), "GB/s");
  metric("simmpi.msgs", counts_["simmpi.msgs"], "count");
  metric("simmpi.bytes", counts_["simmpi.bytes"], "bytes");
  const f64 native_s = med("toolchain.native_run");
  const f64 wasm_s = med("embedder.run_world");
  metric("toolchain.native_run_s", native_s, "s");
  metric("toolchain.wasm_native_ratio", wasm_s / native_s, "ratio");
  metric("trace.overhead", med("embedder.run_world_traced") / wasm_s, "ratio");
}

f64 Bench::peak_rss_mb() {
  const std::string dir = (fs::path(opt_.scratch) / "rss").string();
  std::vector<std::string> args = {"/proc/self/exe", "--workload",
                                   opt_.workload,    "--seconds",
                                   "1",              "--scratch",
                                   dir,              "--rss-probe",
                                   "1"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const fs::path out = fs::path(opt_.scratch) / "rss-peak";
  std::vector<f64> mb;
  for (int i = 0; i < 5; ++i) {
    fs::create_directories(opt_.scratch);
    fs::remove(out);
    pid_t pid = 0;
    if (!op(posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(),
                        environ) == 0,
            "spawning the peak-RSS probe"))
      continue;
    int status = 0;
    const bool exited = waitpid(pid, &status, 0) == pid &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
    f64 peak = 0;
    std::ifstream(out) >> peak;
    if (op(exited && peak > 0, "peak-RSS probe failed")) mb.push_back(peak);
  }
  return median(mb);
}

int Bench::rss_probe() {
  build_programs();
  if (opt_.workload == "startup")
    compile(stress_module_, rt::EngineTier::kJit, "compile", 0, nullptr);
  auto cm = compile(main_.wasm, rt::EngineTier::kJit, "compile", 0, nullptr);
  if (cm) run_wasm(cm, main_, main_.ranks, "run_world", 0, false);
  std::ofstream(fs::path(opt_.scratch).parent_path() / "rss-peak")
      << own_peak_rss_mb() << "\n";
  return failed_ == 0 ? 0 : 1;
}

int Bench::main() {
  build_programs();
  report_host();
  Stopwatch phase;
  auto phase_done = [&](const char* name) {
    std::printf("# phase %s: %.3f s\n", name, phase.elapsed_s());
    phase.reset();
  };
  if (!opt_.trace) {
    // A start-up set-up sample costs about 0.9 s and a hello run under a
    // millisecond; elsewhere a set-up sample is the cheaper part.
    const bool startup = opt_.workload == "startup";
    run_phase(main_, opt_.seconds * (1 - kProbeShare), startup ? 9 : 1,
              startup ? 8 : 1);
    phase_done("run");
    // The MPI probe: the IMB programs, wasm side only.
    imb_phase(opt_.seconds * kProbeShare, 5, /*native_side=*/false);
    phase_done("imb probe");
    metric("setup_s", median(setup_cold_s_), "s");
    metric("warm_setup_s", median(setup_warm_s_), "s");
    const size_t n = run_wasm_s_.size();
    std::printf("# run_s: samples=%zu median=%.9g", n, median(run_wasm_s_));
    if (n >= kMinRunSamples)
      std::printf(" p75=%.9g", quantile(run_wasm_s_, kTailQuantile));
    if (!run_native_s_.empty())
      std::printf(" native_twin_median=%.9g", median(run_native_s_));
    std::printf("\n");
    metric("run_s", median(run_wasm_s_), "s");
    metric("small_lat_us", imb_small_us(-1, false), "us");
    metric("large_bw_gbs", imb_large_gbs(-1, false), "GB/s");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
    phase_done("peak rss");
  } else {
    layer_phase();
  }
  std::printf(
      "# windows during which the hypervisor stole CPU: %llu retried, "
      "%llu kept (%.1f s spent)\n",
      (unsigned long long)noisy_retried_, (unsigned long long)noisy_kept_,
      noise_spent_s_);
  for (const auto& [name, value] : counts_)
    std::printf("# count %s = %.17g\n", name.c_str(), value);
  if (opt_.trace && !opt_.spans_path.empty())
    op(spans_.write(opt_.spans_path), "writing spans to " + opt_.spans_path);

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      failed_ == 0 ? "true" : "false", (unsigned long long)attempted_,
      (unsigned long long)failed_);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--scratch") opt.scratch = v;
    else if (k == "--spans") opt.spans_path = v;
    else if (k == "--rss-probe") opt.rss_probe = v == "1";
    else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  static const char* kWorkloads[] = {"hpcg", "npb_is", "startup"};
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return opt.workload == w; }) ==
          std::end(kWorkloads) ||
      opt.scratch.empty() || !(opt.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: %s --workload hpcg|npb_is|startup --seed N "
                 "--seconds S --trace 0|1 --scratch DIR [--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  // MPIWASM_* variables change what runs (MPIWASM_JIT=0 silently turns
  // kJit into the optimizing tier); record them and refuse to run.
  if (opt.rss_probe) return Bench(opt).rss_probe();
  std::string set_vars;
  for (char** e = environ; *e; ++e)
    if (std::string(*e).rfind("MPIWASM_", 0) == 0) set_vars += " " + std::string(*e);
  std::printf("# MPIWASM_ variables:%s\n", set_vars.empty() ? " none" : set_vars.c_str());
  if (!set_vars.empty()) {
    std::fprintf(stderr, "refusing to run with MPIWASM_* variables set\n");
    return 2;
  }
  try {
    Bench bench(opt);
    return bench.main();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}
