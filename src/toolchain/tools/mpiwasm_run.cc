// mpiwasm-run: the command-line embedder — the in-process equivalent of
// the paper's `mpirun -np N ./mpiWasm app.wasm` (Listing 4).
//
// Synopsis: mpiwasm-run [flags] module.wasm [args...]
// The flag set below (kFlags) is the single source of truth; --help (and
// any parse error) prints the generated usage text.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "embedder/embedder.h"

using namespace mpiwasm;

namespace {

/// One row per accepted flag: `arg` is the value placeholder shown in the
/// usage text (nullptr = boolean flag). Both the parser and usage() iterate
/// this table, so the two can never drift apart again.
struct FlagSpec {
  const char* name;
  const char* arg;  // nullptr for flags that take no value
  const char* help;
};

constexpr FlagSpec kFlags[] = {
    {"--np", "N", "number of MPI ranks (default 1)"},
    {"--tier", "interp|optimizing|jit", "execution tier (default jit)"},
    {"--cache", nullptr, "enable the on-disk compilation cache"},
    {"--stats", nullptr, "print engine counters to stderr"},
    {"--stats-json", "FILE", "write engine counters as JSON"},
    {"--trace", "FILE",
     "write a Chrome trace-event JSON (Perfetto-loadable); also via "
     "MPIWASM_TRACE"},
    {"--profile", nullptr, "print an mpiP-style per-call MPI profile"},
    {"--faasm", nullptr, "Faasm-compat baseline (gRPC costs, no zero-copy)"},
    {"--netprofile", "omnipath|graviton2|zero",
     "simulated interconnect cost model (default zero)"},
    {"--dir", "host[:guest[:ro]]", "preopen a directory for the guest"},
    {"--help", nullptr, "show this help"},
};

void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [flags] module.wasm [args...]\n\nflags:\n",
               argv0);
  for (const FlagSpec& f : kFlags) {
    std::string left = f.name;
    if (f.arg != nullptr) left += std::string(" ") + f.arg;
    std::fprintf(stderr, "  %-28s %s\n", left.c_str(), f.help);
  }
}

/// Pulls flag values out of argv supporting both `--flag value` and
/// `--flag=value` spellings.
struct ArgCursor {
  int argc;
  char** argv;
  int i = 1;

  // Current token split at the first '=' (flag part / inline value part).
  std::string flag{};
  const char* inline_val = nullptr;

  bool next() {
    if (++i > argc) return false;
    return split();
  }
  bool split() {
    if (i >= argc) return false;
    const char* s = argv[i];
    const char* eq = std::strchr(s, '=');
    if (s[0] == '-' && s[1] == '-' && eq != nullptr) {
      flag.assign(s, size_t(eq - s));
      inline_val = eq + 1;
    } else {
      flag = s;
      inline_val = nullptr;
    }
    return true;
  }
  /// The flag's value: inline (`--f=v`) or the next token (`--f v`).
  const char* value() {
    if (inline_val != nullptr) return inline_val;
    if (i + 1 < argc) return argv[++i];
    return nullptr;
  }
};

void write_stats_json(const std::string& path, const char* tier, int ranks,
                      const embed::RunResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "[mpiwasm] cannot write %s\n", path.c_str());
    return;
  }
  const auto& t = r.tierup;
  std::fprintf(f,
               "{\n"
               "  \"tool\": \"mpiwasm-run\",\n"
               "  \"schema\": 4,\n"
               "  \"tier\": \"%s\",\n"
               "  \"ranks\": %d,\n"
               "  \"exit_code\": %d,\n"
               "  \"compile_ms\": %.3f,\n"
               "  \"decode_ms\": %.3f,\n"
               "  \"validate_ms\": %.3f,\n"
               "  \"funcs_validated\": %u,\n"
               "  \"wall_seconds\": %.6f,\n"
               "  \"loaded_from_cache\": %s,\n"
               "  \"rank_minor_faults\": %llu,\n"
               "  \"tierup\": {\n"
               "    \"funcs_total\": %llu,\n"
               "    \"funcs_predecoded\": %llu,\n"
               "    \"funcs_regcode\": %llu,\n"
               "    \"lazy_compiled_funcs\": %llu,\n"
               "    \"lazy_compile_ms\": %.3f,\n"
               "    \"jit_funcs\": %llu,\n"
               "    \"jit_fallback_funcs\": %llu,\n"
               "    \"jit_code_bytes\": %llu,\n"
               "    \"guard_fallbacks\": %llu,\n"
               "    \"cache_materialized_funcs\": %llu,\n"
               "    \"cache_record_fallbacks\": %llu\n"
               "  }\n"
               "}\n",
               tier, ranks, r.exit_code, r.compile_ms, r.decode_ms,
               r.validate_ms, r.funcs_validated, r.wall_seconds,
               r.loaded_from_cache ? "true" : "false",
               (unsigned long long)r.rank_minor_faults,
               (unsigned long long)t.funcs_total,
               (unsigned long long)t.funcs_predecoded,
               (unsigned long long)t.funcs_regcode,
               (unsigned long long)t.lazy_compiled_funcs, t.lazy_compile_ms,
               (unsigned long long)t.jit_funcs,
               (unsigned long long)t.jit_fallback_funcs,
               (unsigned long long)t.jit_code_bytes,
               (unsigned long long)t.guard_fallbacks,
               (unsigned long long)t.cache_materialized_funcs,
               (unsigned long long)t.cache_record_fallbacks);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  embed::EmbedderConfig cfg;
  int ranks = 1;
  bool print_stats = false;
  std::string stats_json_path;
  std::string module_path;

  ArgCursor cur{argc, argv};
  cur.split();
  for (; cur.i < argc; cur.next()) {
    const std::string& arg = cur.flag;
    if (arg == "--help") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--np") {
      const char* v = cur.value();
      if (v == nullptr) { usage(argv[0]); return 2; }
      ranks = std::atoi(v);
    } else if (arg == "--tier") {
      const char* v = cur.value();
      std::string t = v != nullptr ? v : "";
      if (t == "interp") cfg.engine.tier = rt::EngineTier::kInterp;
      else if (t == "optimizing") cfg.engine.tier = rt::EngineTier::kOptimizing;
      else if (t == "jit") cfg.engine.tier = rt::EngineTier::kJit;
      else { usage(argv[0]); return 2; }
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--stats-json") {
      const char* v = cur.value();
      if (v == nullptr) { usage(argv[0]); return 2; }
      stats_json_path = v;
    } else if (arg == "--trace") {
      const char* v = cur.value();
      if (v == nullptr) { usage(argv[0]); return 2; }
      cfg.trace_path = v;
    } else if (arg == "--profile") {
      cfg.profile = true;
    } else if (arg == "--cache") {
      cfg.engine.enable_cache = true;
    } else if (arg == "--faasm") {
      cfg.faasm_compat = true;
    } else if (arg == "--netprofile") {
      const char* v = cur.value();
      std::string p = v != nullptr ? v : "";
      if (p == "omnipath") cfg.net_profile = simmpi::NetworkProfile::omnipath();
      else if (p == "graviton2")
        cfg.net_profile = simmpi::NetworkProfile::graviton2();
      else cfg.net_profile = simmpi::NetworkProfile::zero();
    } else if (arg == "--dir") {
      // host[:guest[:ro]] — the paper's -d isolation flag (§3.4).
      const char* v = cur.value();
      if (v == nullptr) { usage(argv[0]); return 2; }
      std::string spec = v;
      wasi::Preopen pre;
      size_t c1 = spec.find(':');
      pre.host_dir = spec.substr(0, c1);
      pre.guest_name = "data";
      if (c1 != std::string::npos) {
        size_t c2 = spec.find(':', c1 + 1);
        pre.guest_name = spec.substr(c1 + 1, c2 - c1 - 1);
        pre.read_only = c2 != std::string::npos && spec.substr(c2 + 1) == "ro";
      }
      cfg.preopens.push_back(pre);
    } else if (arg.rfind("--", 0) == 0) {
      usage(argv[0]);
      return 2;
    } else {
      module_path = arg;
      break;
    }
  }
  if (module_path.empty() || ranks < 1) {
    usage(argv[0]);
    return 2;
  }
  cfg.args = {module_path};
  for (int k = cur.i + 1; k < argc; ++k) cfg.args.push_back(argv[k]);

  std::ifstream in(module_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", module_path.c_str());
    return 1;
  }
  std::vector<u8> bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());

  // Benchmark kernels report through bench.report; print rows as they come.
  cfg.extra_imports = [](rt::ImportTable& t, int rank) {
    (void)rank;
    t.add("bench", "report",
          {{wasm::ValType::kI32, wasm::ValType::kF64, wasm::ValType::kF64,
            wasm::ValType::kF64},
           {}},
          [](rt::HostContext&, const rt::Slot* a, rt::Slot*) {
            std::printf("[report id=%d] %16.4f %16.4f %16.4f\n", a[0].i32v,
                        a[1].f64v, a[2].f64v, a[3].f64v);
          });
  };

  try {
    embed::Embedder embedder(cfg);
    auto cm = embedder.compile({bytes.data(), bytes.size()});
    std::fprintf(stderr, "[mpiwasm] compiled %s: tier=%s %.2fms%s\n",
                 module_path.c_str(), rt::tier_name(cm->tier), cm->compile_ms,
                 cm->loaded_from_cache ? " (cache hit)" : "");
    embed::RunResult result = embedder.run_world(cm, ranks);
    std::fprintf(stderr, "[mpiwasm] %d ranks finished in %.3fs, exit=%d\n",
                 ranks, result.wall_seconds, result.exit_code);
    if (print_stats) {
      const auto& t = result.tierup;
      std::fprintf(stderr,
                   "[mpiwasm] stats: tier=%s funcs=%llu built=%llu "
                   "(%llu on first call, %.2fms)\n",
                   rt::tier_name(cm->tier), (unsigned long long)t.funcs_total,
                   (unsigned long long)t.funcs_regcode,
                   (unsigned long long)t.lazy_compiled_funcs,
                   t.lazy_compile_ms);
      std::fprintf(stderr,
                   "[mpiwasm] stats: jit: %llu native funcs, %llu interpreter "
                   "fallbacks, %llu code bytes\n",
                   (unsigned long long)t.jit_funcs,
                   (unsigned long long)t.jit_fallback_funcs,
                   (unsigned long long)t.jit_code_bytes);
    }
    if (!stats_json_path.empty())
      write_stats_json(stats_json_path, rt::tier_name(cm->tier), ranks, result);
    if (cfg.profile && !result.profile_text.empty())
      std::fputs(result.profile_text.c_str(), stderr);
    return result.exit_code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[mpiwasm] error: %s\n", e.what());
    return 1;
  }
}
