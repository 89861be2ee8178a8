#include "simmpi/coll_tune.h"

#include <bit>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "simmpi/coll_algos.h"

namespace mpiwasm::simmpi::coll {

namespace fs = std::filesystem;

namespace {
constexpr const char* kMagic = "mpiwasm-coll-tune v1";
}  // namespace

Autotuner::Autotuner(std::string signature) : sig_(std::move(signature)) {}

std::string Autotuner::host_signature(int hw_threads,
                                      const std::string& profile,
                                      int world_size) {
  std::ostringstream os;
  os << "hw=" << hw_threads << " profile=" << profile
     << " ranks=" << world_size;
  return os.str();
}

u64 Autotuner::key(CollOp op, int nranks, size_t bytes) {
  // Size bins are powers of two: bit_width collapses e.g. 5..8 bytes into
  // one bin, which keeps the table small and the measurements dense.
  const u64 bin = u64(std::bit_width(u64(bytes)));
  return (u64(i32(op)) << 40) | (u64(u32(nranks)) << 8) | bin;
}

CollAlgo Autotuner::choose(u64 key, u64 call_idx,
                           std::span<const CollAlgo> candidates,
                           CollAlgo fallback, bool* exploring) {
  *exploring = false;
  if (candidates.empty()) return fallback;
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = table_[key];
  // A preloaded winner is immutable for the whole run, so returning it
  // from call 0 is rank-consistent; a winner locked mid-run is not seen
  // until the caller's own call index leaves the exploration window (the
  // choice must stay a pure function of the rank-consistent index — a rank
  // observing the lock earlier than its peer would diverge and deadlock).
  if (e.preloaded && e.locked != CollAlgo::kAuto) return e.locked;
  const u64 n = candidates.size();
  if (call_idx < u64(kExploreRounds) * n) {
    *exploring = true;
    return candidates[size_t(call_idx % n)];
  }
  if (e.locked != CollAlgo::kAuto) return e.locked;
  // Budget spent: the first arriver locks the EWMA argmin, write-once;
  // every later call reads that value. Keys never measured (e.g. a purely
  // nonblocking workload, which explores but cannot time individual
  // calls) keep the static table's pick.
  CollAlgo best = fallback;
  f64 best_us = std::numeric_limits<f64>::infinity();
  for (CollAlgo a : candidates) {
    auto it = e.ewma.find(a);
    if (it != e.ewma.end() && it->second < best_us) {
      best_us = it->second;
      best = a;
    }
  }
  // Hysteresis toward the static table's pick: the samples are per-call
  // blocking latencies, which are blind to cross-call pipelining (a bcast
  // leaf exits the moment its data lands, so unsynchronized algorithms
  // overlap successive calls and win on throughput while measuring even),
  // and on an oversubscribed host they carry scheduler noise besides. The
  // static prior stays locked unless a candidate measures a clear win —
  // and a fallback that was never sampled (e.g. the shm path, which is
  // kept out of the candidate set) stays locked unconditionally: there is
  // no measured evidence against it.
  auto fb = e.ewma.find(fallback);
  if (best != fallback &&
      (fb == e.ewma.end() || best_us > fb->second * kLockMargin)) {
    best = fallback;
  }
  e.locked = best;
  dirty_ = true;
  return best;
}

void Autotuner::record(u64 key, CollAlgo algo, f64 us) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = table_[key];
  auto [it, fresh] = e.ewma.try_emplace(algo, us);
  if (fresh) return;
  // Clamp spikes before smoothing: a thread descheduled mid-collective
  // reports a sample an order of magnitude above the algorithm's real
  // cost, and with a handful of exploration samples one such outlier
  // would dominate the average and poison the lock decision.
  us = std::min(us, it->second * 8.0);
  it->second += kAlpha * (us - it->second);
}

CollAlgo Autotuner::winner(u64 key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(key);
  return it == table_.end() ? CollAlgo::kAuto : it->second.locked;
}

f64 Autotuner::ewma_us(u64 key, CollAlgo algo) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(key);
  if (it == table_.end()) return -1.0;
  auto jt = it->second.ewma.find(algo);
  return jt == it->second.ewma.end() ? -1.0 : jt->second;
}

bool Autotuner::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line) || line != kMagic) return false;
  if (!std::getline(in, line) || line != "sig " + sig_) return false;
  std::map<u64, Entry> loaded;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    u64 k = 0;
    std::string name;
    if (!(ls >> k >> name)) return false;
    CollAlgo a;
    if (!algo_from_name(name, &a) || a == CollAlgo::kAuto) return false;
    loaded[k].locked = a;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, e] : loaded) {
    table_[k].locked = e.locked;
    table_[k].preloaded = true;
  }
  return true;
}

bool Autotuner::save(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  const fs::path target(path);
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
  }
  const fs::path tmp = target.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << kMagic << '\n' << "sig " << sig_ << '\n';
    for (const auto& [k, e] : table_) {
      if (e.locked == CollAlgo::kAuto) continue;
      out << k << ' ' << algo_name(e.locked) << '\n';
    }
    if (!out) return false;
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

bool Autotuner::dirty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dirty_;
}

}  // namespace mpiwasm::simmpi::coll
