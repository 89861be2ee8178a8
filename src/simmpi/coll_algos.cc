#include "simmpi/coll_algos.h"

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string_view>

#include "simmpi/coll_tree.h"
#include "simmpi/reduce_ops.h"
#include "support/log.h"
#include "support/timing.h"

namespace mpiwasm::simmpi {

// ---------------------------------------------------------------------------
// CollTuning::from_env (declared in types.h; lives here next to the names)
// ---------------------------------------------------------------------------

namespace coll_detail {

/// The single CollOp -> CollTuning-field mapping shared by from_env,
/// forced_algo, and forced_tuning (one row to add per new collective).
struct CollVar {
  coll::CollOp op;
  const char* env;
  CollAlgo CollTuning::*field;
};
constexpr CollVar kCollVars[] = {
    {coll::CollOp::kBarrier, "MPIWASM_COLL_BARRIER", &CollTuning::barrier},
    {coll::CollOp::kBcast, "MPIWASM_COLL_BCAST", &CollTuning::bcast},
    {coll::CollOp::kReduce, "MPIWASM_COLL_REDUCE", &CollTuning::reduce},
    {coll::CollOp::kAllreduce, "MPIWASM_COLL_ALLREDUCE",
     &CollTuning::allreduce},
    {coll::CollOp::kGather, "MPIWASM_COLL_GATHER", &CollTuning::gather},
    {coll::CollOp::kScatter, "MPIWASM_COLL_SCATTER", &CollTuning::scatter},
    {coll::CollOp::kAllgather, "MPIWASM_COLL_ALLGATHER",
     &CollTuning::allgather},
    {coll::CollOp::kAlltoall, "MPIWASM_COLL_ALLTOALL", &CollTuning::alltoall},
    {coll::CollOp::kReduceScatter, "MPIWASM_COLL_REDUCE_SCATTER",
     &CollTuning::reduce_scatter},
    {coll::CollOp::kScan, "MPIWASM_COLL_SCAN", &CollTuning::scan},
    {coll::CollOp::kExscan, "MPIWASM_COLL_EXSCAN", &CollTuning::exscan},
};
static_assert(std::size(kCollVars) == size_t(coll::kNumCollOps));

bool algo_supported(coll::CollOp op, CollAlgo a) {
  if (a == CollAlgo::kAuto) return true;
  for (CollAlgo v : coll::algos_for(op))
    if (v == a) return true;
  return false;
}

}  // namespace coll_detail

CollTuning CollTuning::from_env(CollTuning base) {
  for (const auto& v : coll_detail::kCollVars) {
    const char* s = std::getenv(v.env);
    if (s == nullptr || *s == '\0') continue;
    CollAlgo a;
    if (!coll::algo_from_name(s, &a)) {
      MW_WARN("ignoring unknown algorithm '" << s << "' in " << v.env);
    } else if (!coll_detail::algo_supported(v.op, a)) {
      // Fail at startup, not as a fatal MpiError mid-simulation.
      MW_WARN("ignoring " << v.env << "=" << s << ": "
                          << coll::coll_name(v.op) << " has no such algorithm");
    } else {
      base.*v.field = a;
    }
  }
  if (const char* s = std::getenv("MPIWASM_COLL_SHM"); s != nullptr) {
    std::string_view v(s);
    base.enable_shm = !(v == "0" || v == "false" || v == "off");
  }
  if (const char* s = std::getenv("MPIWASM_COLL_SHM_MAX"); s != nullptr) {
    char* end = nullptr;
    unsigned long long n = std::strtoull(s, &end, 10);
    if (end != s) base.shm_max_bytes = size_t(n);
  }
  if (const char* s = std::getenv("MPIWASM_COLL_AUTOTUNE"); s != nullptr) {
    std::string_view v(s);
    base.autotune = !(v == "0" || v == "false" || v == "off");
  }
  return base;
}

namespace coll {

// ---------------------------------------------------------------------------
// Names, registry, selection
// ---------------------------------------------------------------------------

const char* coll_name(CollOp c) {
  switch (c) {
    case CollOp::kBarrier: return "barrier";
    case CollOp::kBcast: return "bcast";
    case CollOp::kReduce: return "reduce";
    case CollOp::kAllreduce: return "allreduce";
    case CollOp::kGather: return "gather";
    case CollOp::kScatter: return "scatter";
    case CollOp::kAllgather: return "allgather";
    case CollOp::kAlltoall: return "alltoall";
    case CollOp::kReduceScatter: return "reduce_scatter";
    case CollOp::kScan: return "scan";
    case CollOp::kExscan: return "exscan";
  }
  return "?";
}

const char* algo_name(CollAlgo a) {
  switch (a) {
    case CollAlgo::kAuto: return "auto";
    case CollAlgo::kLinear: return "linear";
    case CollAlgo::kBinomial: return "binomial";
    case CollAlgo::kDissemination: return "dissemination";
    case CollAlgo::kRing: return "ring";
    case CollAlgo::kRecursiveDoubling: return "rdbl";
    case CollAlgo::kRabenseifner: return "raben";
    case CollAlgo::kPairwise: return "pairwise";
    case CollAlgo::kShm: return "shm";
  }
  return "?";
}

bool algo_from_name(std::string_view name, CollAlgo* out) {
  if (name == "auto") *out = CollAlgo::kAuto;
  else if (name == "linear") *out = CollAlgo::kLinear;
  else if (name == "binomial" || name == "tree") *out = CollAlgo::kBinomial;
  else if (name == "dissemination" || name == "dissem")
    *out = CollAlgo::kDissemination;
  else if (name == "ring") *out = CollAlgo::kRing;
  else if (name == "rdbl" || name == "recursive_doubling")
    *out = CollAlgo::kRecursiveDoubling;
  else if (name == "raben" || name == "rabenseifner")
    *out = CollAlgo::kRabenseifner;
  else if (name == "pairwise") *out = CollAlgo::kPairwise;
  else if (name == "shm") *out = CollAlgo::kShm;
  else return false;
  return true;
}

std::span<const CollAlgo> algos_for(CollOp c) {
  using A = CollAlgo;
  static constexpr A kBarrierA[] = {A::kLinear, A::kDissemination, A::kShm};
  static constexpr A kBcastA[] = {A::kLinear, A::kBinomial, A::kShm};
  static constexpr A kReduceA[] = {A::kLinear, A::kBinomial, A::kShm};
  static constexpr A kAllreduceA[] = {A::kLinear, A::kBinomial,
                                      A::kRecursiveDoubling, A::kRing,
                                      A::kRabenseifner, A::kShm};
  static constexpr A kGatherA[] = {A::kLinear, A::kBinomial, A::kShm};
  static constexpr A kAllgatherA[] = {A::kLinear, A::kRing,
                                      A::kRecursiveDoubling, A::kShm};
  static constexpr A kAlltoallA[] = {A::kLinear, A::kPairwise};
  static constexpr A kRsA[] = {A::kLinear, A::kPairwise, A::kShm};
  static constexpr A kScanA[] = {A::kLinear, A::kRecursiveDoubling, A::kShm};
  switch (c) {
    case CollOp::kBarrier: return kBarrierA;
    case CollOp::kBcast: return kBcastA;
    case CollOp::kReduce: return kReduceA;
    case CollOp::kAllreduce: return kAllreduceA;
    case CollOp::kGather: return kGatherA;
    case CollOp::kScatter: return kGatherA;
    case CollOp::kAllgather: return kAllgatherA;
    case CollOp::kAlltoall: return kAlltoallA;
    case CollOp::kReduceScatter: return kRsA;
    case CollOp::kScan: return kScanA;
    case CollOp::kExscan: return kScanA;
  }
  return {};
}

CollAlgo forced_algo(const CollTuning& t, CollOp c) {
  for (const auto& v : coll_detail::kCollVars)
    if (v.op == c) return t.*v.field;
  return CollAlgo::kAuto;
}

CollTuning forced_tuning(CollOp c, CollAlgo algo) {
  CollTuning t;
  for (const auto& v : coll_detail::kCollVars)
    if (v.op == c) t.*v.field = algo;
  return t;
}

CollAlgo select(CollOp c, const CollTuning& t, int nranks, size_t bytes,
                bool shm_ok, int hw_threads) {
  CollAlgo f = forced_algo(t, c);
  // A forced shm choice degrades to the auto table when the payload does
  // not fit a slot (or the context is absent) instead of failing the call.
  if (f != CollAlgo::kAuto && !(f == CollAlgo::kShm && !shm_ok)) {
    for (CollAlgo a : algos_for(c))
      if (a == f) return f;
    throw MpiError(std::string("collective '") + coll_name(c) +
                   "' has no '" + algo_name(f) + "' algorithm");
  }
  // Topology term: with more rank threads than cores the fan-in barrier
  // costs a full scheduler round per epoch, while tree algorithms over
  // the mailbox path pipeline through blocked threads. Real MPIs make the
  // same intra-node/ppn distinction when picking collective algorithms.
  static const int host_hw = int(std::thread::hardware_concurrency());
  const int hw = hw_threads > 0 ? hw_threads : host_hw;
  const bool oversubscribed = hw > 0 && nranks > hw;
  switch (c) {
    case CollOp::kBarrier:
      // One epoch beats log2(n) mailbox rounds even when oversubscribed.
      return shm_ok ? CollAlgo::kShm : CollAlgo::kDissemination;
    case CollOp::kBcast:
    case CollOp::kReduce:
      if (shm_ok && !oversubscribed) return CollAlgo::kShm;
      return CollAlgo::kBinomial;
    case CollOp::kAllreduce:
      // Every rank reduces all n slots, amortizing the barrier epochs —
      // shm wins even when oversubscribed (unlike the rooted trees).
      if (shm_ok) return CollAlgo::kShm;
      if (oversubscribed && bytes <= 32 * 1024) return CollAlgo::kBinomial;
      // MPICH-style: latency-bound sizes use recursive doubling, beyond
      // that the bandwidth-optimal reduce-scatter + allgather.
      return bytes <= 32 * 1024 ? CollAlgo::kRecursiveDoubling
                                : CollAlgo::kRabenseifner;
    case CollOp::kGather:
    case CollOp::kScatter:
      if (shm_ok && !oversubscribed) return CollAlgo::kShm;
      // Binomial trees stage subtree copies; past ~1 MiB total the linear
      // algorithm's single direct copy per rank wins.
      return bytes * size_t(nranks) <= (size_t(1) << 20) ? CollAlgo::kBinomial
                                                         : CollAlgo::kLinear;
    case CollOp::kAllgather:
      // n blocks cross the segment, amortizing the barrier epochs; shm
      // stays ahead of the ring even when oversubscribed.
      if (shm_ok) return CollAlgo::kShm;
      return bytes * size_t(nranks) <= 128 * 1024 && is_pof2(nranks)
                 ? CollAlgo::kRecursiveDoubling
                 : CollAlgo::kRing;
    case CollOp::kAlltoall:
      return CollAlgo::kPairwise;
    case CollOp::kReduceScatter:
      if (shm_ok) return CollAlgo::kShm;
      return bytes <= 16 * 1024 ? CollAlgo::kLinear : CollAlgo::kPairwise;
    case CollOp::kScan:
    case CollOp::kExscan:
      // The linear chain pipelines perfectly under oversubscription.
      if (oversubscribed) return CollAlgo::kLinear;
      return shm_ok ? CollAlgo::kShm : CollAlgo::kRecursiveDoubling;
  }
  return CollAlgo::kLinear;
}

// ---------------------------------------------------------------------------
// Engine: the shared-memory fan-in variants of the blocking collectives.
// Every other algorithm is a schedule (coll_sched.cc).
// ---------------------------------------------------------------------------

void Engine::charge(Rank& r, size_t bytes) {
  spin_for_ns(r.world().profile().message_cost_ns(bytes));
}

void Engine::barrier_shm(Rank& r, const detail::CommData& c) {
  charge(r, 0);
  c.coll->barrier_wait(r.world());
}

void Engine::bcast_shm(Rank& r, const detail::CommData& c, void* buf,
                       size_t bytes, int root) {
  CollectiveContext& ctx = *c.coll;
  if (c.my_comm_rank == root) {
    std::memcpy(ctx.slot(root), buf, bytes);
    charge(r, bytes);
  }
  ctx.barrier_wait(r.world());
  if (c.my_comm_rank != root) {
    std::memcpy(buf, ctx.slot(root), bytes);
    charge(r, bytes);
  }
  // Keeps the root from reusing its slot before every reader is done.
  ctx.barrier_wait(r.world());
}

void Engine::reduce_shm(Rank& r, const detail::CommData& c,
                        const void* sendbuf, void* recvbuf, int count,
                        Datatype type, ReduceOp op, int root) {
  CollectiveContext& ctx = *c.coll;
  int n = int(c.world_ranks.size());
  size_t bytes = size_t(count) * datatype_size(type);
  std::memcpy(ctx.slot(c.my_comm_rank), sendbuf, bytes);
  charge(r, bytes);
  ctx.barrier_wait(r.world());
  if (c.my_comm_rank == root) {
    u8* out = static_cast<u8*>(recvbuf);
    std::memcpy(out, ctx.slot(0), bytes);
    for (int src = 1; src < n; ++src)
      apply_reduce(op, type, ctx.slot(src), out, count);
    charge(r, bytes);
  }
  ctx.barrier_wait(r.world());
}

void Engine::allreduce_shm(Rank& r, const detail::CommData& c,
                           const void* sendbuf, void* recvbuf, int count,
                           Datatype type, ReduceOp op) {
  CollectiveContext& ctx = *c.coll;
  int n = int(c.world_ranks.size());
  size_t bytes = size_t(count) * datatype_size(type);
  std::memcpy(ctx.slot(c.my_comm_rank), sendbuf, bytes);
  charge(r, bytes);
  ctx.barrier_wait(r.world());
  u8* out = static_cast<u8*>(recvbuf);
  std::memcpy(out, ctx.slot(0), bytes);
  for (int src = 1; src < n; ++src)
    apply_reduce(op, type, ctx.slot(src), out, count);
  charge(r, bytes);
  ctx.barrier_wait(r.world());
}

void Engine::gather_shm(Rank& r, const detail::CommData& c,
                        const void* sendbuf, void* recvbuf, size_t block,
                        int root, bool in_place) {
  CollectiveContext& ctx = *c.coll;
  int n = int(c.world_ranks.size());
  int me = c.my_comm_rank;
  if (me != root) {
    std::memcpy(ctx.slot(me), sendbuf, block);
    charge(r, block);
  }
  ctx.barrier_wait(r.world());
  if (me == root) {
    u8* out = static_cast<u8*>(recvbuf);
    if (!in_place) std::memcpy(out + size_t(root) * block, sendbuf, block);
    for (int src = 0; src < n; ++src) {
      if (src == root) continue;
      std::memcpy(out + size_t(src) * block, ctx.slot(src), block);
    }
    charge(r, block);
  }
  ctx.barrier_wait(r.world());
}

void Engine::scatter_shm(Rank& r, const detail::CommData& c,
                         const void* sendbuf, void* recvbuf, size_t block,
                         int root, bool in_place) {
  CollectiveContext& ctx = *c.coll;
  int n = int(c.world_ranks.size());
  int me = c.my_comm_rank;
  if (me == root) {
    const u8* in = static_cast<const u8*>(sendbuf);
    for (int dst = 0; dst < n; ++dst) {
      if (dst == root) continue;
      std::memcpy(ctx.slot(dst), in + size_t(dst) * block, block);
    }
    if (!in_place)
      std::memcpy(recvbuf, in + size_t(root) * block, block);
    charge(r, block);
  }
  ctx.barrier_wait(r.world());
  if (me != root) {
    std::memcpy(recvbuf, ctx.slot(me), block);
    charge(r, block);
  }
  ctx.barrier_wait(r.world());
}

void Engine::allgather_shm(Rank& r, const detail::CommData& c,
                           const void* sendbuf, void* recvbuf, size_t block,
                           bool in_place) {
  CollectiveContext& ctx = *c.coll;
  int n = int(c.world_ranks.size());
  int me = c.my_comm_rank;
  u8* out = static_cast<u8*>(recvbuf);
  const u8* own = in_place ? out + size_t(me) * block
                           : static_cast<const u8*>(sendbuf);
  std::memcpy(ctx.slot(me), own, block);
  charge(r, block);
  ctx.barrier_wait(r.world());
  for (int src = 0; src < n; ++src) {
    if (src == me) continue;
    std::memcpy(out + size_t(src) * block, ctx.slot(src), block);
  }
  if (!in_place) std::memcpy(out + size_t(me) * block, sendbuf, block);
  charge(r, block);
  ctx.barrier_wait(r.world());
}

void Engine::reduce_scatter_shm(Rank& r, const detail::CommData& c,
                                const void* sendbuf, void* recvbuf,
                                const int* recvcounts, Datatype type,
                                ReduceOp op) {
  CollectiveContext& ctx = *c.coll;
  int n = int(c.world_ranks.size());
  int me = c.my_comm_rank;
  size_t esize = datatype_size(type);
  std::vector<int> offs(static_cast<size_t>(n));
  int total = 0;
  for (int i = 0; i < n; ++i) {
    offs[i] = total;
    total += recvcounts[i];
  }
  const void* input = sendbuf != nullptr ? sendbuf : recvbuf;
  std::memcpy(ctx.slot(me), input, size_t(total) * esize);
  charge(r, size_t(total) * esize);
  ctx.barrier_wait(r.world());
  size_t my_off = size_t(offs[me]) * esize;
  u8* out = static_cast<u8*>(recvbuf);
  std::memcpy(out, ctx.slot(0) + my_off, size_t(recvcounts[me]) * esize);
  for (int src = 1; src < n; ++src)
    apply_reduce(op, type, ctx.slot(src) + my_off, out, recvcounts[me]);
  charge(r, size_t(recvcounts[me]) * esize);
  ctx.barrier_wait(r.world());
}

void Engine::scan_shm(Rank& r, const detail::CommData& c, const void* sendbuf,
                      void* recvbuf, int count, Datatype type, ReduceOp op) {
  CollectiveContext& ctx = *c.coll;
  int me = c.my_comm_rank;
  size_t bytes = size_t(count) * datatype_size(type);
  std::memcpy(ctx.slot(me), sendbuf, bytes);
  charge(r, bytes);
  ctx.barrier_wait(r.world());
  u8* out = static_cast<u8*>(recvbuf);
  std::memcpy(out, ctx.slot(0), bytes);
  for (int src = 1; src <= me; ++src)
    apply_reduce(op, type, ctx.slot(src), out, count);
  charge(r, bytes);
  ctx.barrier_wait(r.world());
}

void Engine::exscan_shm(Rank& r, const detail::CommData& c,
                        const void* sendbuf, void* recvbuf, int count,
                        Datatype type, ReduceOp op) {
  CollectiveContext& ctx = *c.coll;
  int me = c.my_comm_rank;
  size_t bytes = size_t(count) * datatype_size(type);
  std::memcpy(ctx.slot(me), sendbuf, bytes);
  charge(r, bytes);
  ctx.barrier_wait(r.world());
  if (me > 0) {
    u8* out = static_cast<u8*>(recvbuf);
    std::memcpy(out, ctx.slot(0), bytes);
    for (int src = 1; src < me; ++src)
      apply_reduce(op, type, ctx.slot(src), out, count);
    charge(r, bytes);
  }
  ctx.barrier_wait(r.world());
}

}  // namespace coll
}  // namespace mpiwasm::simmpi
