#include "simmpi/coll_algos.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string_view>

#include "simmpi/coll_tree.h"
#include "simmpi/reduce_ops.h"
#include "support/log.h"
#include "support/parallel.h"
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
  static constexpr A kAlltoallA[] = {A::kLinear, A::kPairwise, A::kShm};
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
  // A forced shm choice degrades to the auto table when the communicator
  // has no CollectiveContext instead of failing the call.
  if (f != CollAlgo::kAuto && !(f == CollAlgo::kShm && !shm_ok)) {
    for (CollAlgo a : algos_for(c))
      if (a == f) return f;
    throw MpiError(std::string("collective '") + coll_name(c) +
                   "' has no '" + algo_name(f) + "' algorithm");
  }
  // Topology term: with more rank threads than cores the shm barrier
  // costs a full scheduler round per epoch, while tree algorithms over
  // the mailbox path pipeline through blocked threads. Real MPIs make the
  // same intra-node/ppn distinction when picking collective algorithms.
  // The CPUs of the affinity mask, as for the wait policy (WaitPolicy).
  static const int host_hw = int(affinity_cpus());
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
      // Direct reads amortize the barrier epochs over the whole payload,
      // so shm wins even when oversubscribed (unlike the rooted trees).
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
      // Every rank reads n - 1 blocks in place, amortizing the barrier
      // epochs; shm stays ahead of the ring even when oversubscribed.
      if (shm_ok) return CollAlgo::kShm;
      return bytes * size_t(nranks) <= 128 * 1024 && is_pof2(nranks)
                 ? CollAlgo::kRecursiveDoubling
                 : CollAlgo::kRing;
    case CollOp::kAlltoall:
      // One copy per block, read in place. Oversubscribed, shm still wins
      // small blocks by far (bench_coll, 8 ranks on 4 vCPUs: 16 KiB shm 19
      // vs pairwise 94 us), but pairwise wins 256 KiB (680 vs 954 us); a
      // 16-256 KiB sweep on that host had shm ahead through 64 KiB.
      if (shm_ok && (!oversubscribed || bytes <= 64 * 1024))
        return CollAlgo::kShm;
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
// Engine: the shared-memory variants of the blocking collectives. Every
// other algorithm is a schedule (coll_sched.cc).
//
// A call publishes this rank's buffers in its CollectiveContext entry and,
// between barriers, reads its peers' buffers in place: one copy per byte
// moved, no staging. Three rules keep that safe:
//  1. A rank never writes a buffer a peer may still be reading until the
//     barrier that ends those reads. An MPI_IN_PLACE result whose input
//     peers read is staged in the rank's scratch (reused across calls) and
//     copied out only after that barrier. A rank that fails mid-call takes
//     the call's remaining barriers before its error leaves (Call).
//  2. Every direct read stays inside the extent its owner published
//     (peer_data, peer_out). Ranks that disagree on the payload size or
//     the root all raise MpiError after the same barriers instead of
//     reading (publish_and_agree).
//  3. Exactly one rank reduces each element of a result that several ranks
//     hold, or every rank reduces it in the same comm-rank order, so
//     reduction results are bit-identical on every rank.
// ---------------------------------------------------------------------------

namespace {

using Exposed = CollectiveContext::Exposed;

/// Reduce and allreduce payloads up to this size are reduced whole, by the
/// root or by every rank (n reads of every input, 2 barriers). Larger ones
/// are cut into one chunk per rank; each rank reduces its chunk of every
/// input and the collectors then copy the chunks (each input byte read
/// once, 3 barriers). bench_coll allreduce rows of 1-64 KiB (Release
/// build, 4-vCPU host) put the crossover near 16 KiB at 4 ranks and near
/// 4 KiB at 8 ranks.
constexpr size_t kWholeReduceMax = 8 * 1024;

/// Chunk granularity: a cache line, which every datatype size divides, so
/// chunk bounds fall on element boundaries for any type.
constexpr size_t kChunkAlign = 64;

/// The split of a `bytes`-byte payload into one chunk per rank: chunk i is
/// bytes [lo(i), lo(i) + len(i)).
struct Chunks {
  size_t bytes, lines;
  int n;
  Chunks(size_t bytes, int n)
      : bytes(bytes), lines((bytes + kChunkAlign - 1) / kChunkAlign), n(n) {}
  size_t lo(int i) const {
    return std::min(bytes, lines * size_t(i) / size_t(n) * kChunkAlign);
  }
  size_t len(int i) const { return lo(i + 1) - lo(i); }
};

const u8* as_bytes(const void* p) { return static_cast<const u8*>(p); }

/// memcpy that tolerates the null buffers of zero-byte payloads.
void copy_bytes(void* dst, const void* src, size_t len) {
  if (len != 0) std::memcpy(dst, src, len);
}

const u8* bounded(const u8* base, size_t extent, size_t off, size_t len) {
  // publish_and_agree rejected every disagreement that could get here.
  MW_CHECK(off <= extent && len <= extent - off,
           "shm read past a peer's published extent");
  return base + off;
}

/// `len` bytes at `off` of the buffer `peer` published for the first
/// phase (data) or the second (out).
const u8* peer_data(const CollectiveContext& ctx, int peer, size_t off,
                    size_t len) {
  const Exposed& e = ctx.exposed(peer);
  return bounded(e.data, e.bytes, off, len);
}
const u8* peer_out(const CollectiveContext& ctx, int peer, size_t off,
                   size_t len) {
  const Exposed& e = ctx.exposed(peer);
  return bounded(e.out, e.out_bytes, off, len);
}

/// The rest of a call after its opening barrier, which every rank has
/// passed, so peers may now read this rank's buffers. sync() takes the next
/// of the call's remaining barriers. A rank that throws mid-call takes the
/// rest on its way out, so it hands no buffer back to its caller while a
/// peer may still read it (rule 1). The ranks agree on the payload, so
/// they agree on the number of barriers.
class Call {
 public:
  Call(CollectiveContext& ctx, int barriers) : ctx_(ctx), left_(barriers) {}
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;
  ~Call() {
    while (left_ > 0) sync();
  }
  void sync() {
    --left_;
    ctx_.barrier_hold();
  }

 private:
  CollectiveContext& ctx_;
  int left_;
};

/// Publishes this rank's entry and takes the opening barrier, after which
/// every entry is readable, then checks that all ranks agree on the
/// payload size and root. Every rank evaluates the same table, so all reach
/// the same verdict: when the entries differ, every rank differs from at
/// least one of them. On a mismatch each rank takes one more barrier, after
/// which nobody reads an entry, and throws; no buffer is read. Otherwise
/// the call goes on with `barriers` barriers left.
[[nodiscard]] Call publish_and_agree(Rank& r, const detail::CommData& c,
                                     Exposed e, size_t payload, int root,
                                     int barriers, const char* what) {
  CollectiveContext& ctx = *c.coll;
  e.payload = payload;
  e.root = root;
  ctx.publish(c.my_comm_rank, e);
  ctx.barrier_wait(r.world());
  for (int i = 0; i < ctx.nranks(); ++i) {
    const Exposed& p = ctx.exposed(i);
    if (p.payload != payload || p.root != root) {
      ctx.barrier_hold();
      throw MpiError(std::string(what) +
                     ": ranks disagree on the message size or root");
    }
  }
  return Call(ctx, barriers);
}

/// out = input[first] op ... op input[last - 1], over `count` elements at
/// byte offset `off` of each rank's published data, in comm-rank order.
void reduce_inputs(const CollectiveContext& ctx, int first, int last,
                   size_t off, int count, Datatype type, ReduceOp op,
                   u8* out) {
  const size_t len = size_t(count) * datatype_size(type);
  copy_bytes(out, peer_data(ctx, first, off, len), len);
  for (int src = first + 1; src < last; ++src)
    apply_reduce(op, type, peer_data(ctx, src, off, len), out, count);
}

/// The body of reduce_shm (result at `root`) and allreduce_shm (root -1:
/// result everywhere). The ranks that get the result are the collectors.
void reduce_to(Rank& r, const detail::CommData& c, const void* sendbuf,
               void* recvbuf, int count, Datatype type, ReduceOp op, int root,
               const char* what) {
  CollectiveContext& ctx = *c.coll;
  const int n = ctx.nranks();
  const int me = c.my_comm_rank;
  const size_t esize = datatype_size(type);
  const size_t bytes = size_t(count) * esize;
  const bool collects = root < 0 || me == root;
  u8* recv = static_cast<u8*>(recvbuf);
  // In place, a collector's input is its recvbuf, which reducers read.
  const bool in_place = collects && sendbuf == recvbuf;
  if (bytes <= kWholeReduceMax) {
    // Every collector reduces every element, in comm-rank order.
    u8* out = in_place ? ctx.scratch(me, bytes) : recv;
    Engine::charge(r, bytes);
    Call call = publish_and_agree(
        r, c, {.data = as_bytes(sendbuf), .bytes = bytes}, bytes, root, 1,
        what);
    if (collects) {
      reduce_inputs(ctx, 0, n, 0, count, type, op, out);
      Engine::charge(r, bytes);
    }
    // Keeps every input alive until all collectors have read it.
    call.sync();
    if (in_place) copy_bytes(recv, out, bytes);
    return;
  }
  // Rank i alone reduces chunk i of every input: a collector into its
  // recvbuf unless in place, every other rank into its scratch (a rooted
  // reduce's non-roots may pass no recvbuf).
  const Chunks ch(bytes, n);
  u8* mine = collects && !in_place ? recv + ch.lo(me)
                                   : ctx.scratch(me, ch.len(me));
  Engine::charge(r, bytes);
  Call call = publish_and_agree(r, c,
                                {.data = as_bytes(sendbuf), .bytes = bytes,
                                 .out = mine, .out_bytes = ch.len(me)},
                                bytes, root, 2, what);
  reduce_inputs(ctx, 0, n, ch.lo(me), int(ch.len(me) / esize), type, op,
                mine);
  // Ends the input reads, so collectors may now write their recvbufs, and
  // publishes the reduced chunks.
  call.sync();
  if (collects) {
    // Copies every chunk this rank does not already hold. Peers now read
    // only the published chunks, none of which this loop writes.
    for (int k = 0; k < n; ++k) {
      const int src = (me + k) % n;
      if (src == me && !in_place) continue;
      copy_bytes(recv + ch.lo(src), peer_out(ctx, src, 0, ch.len(src)),
                 ch.len(src));
    }
    Engine::charge(r, bytes);
  }
  // Keeps every reduced chunk alive until all collectors have copied it.
  call.sync();
  ctx.release_scratch(me);
}

}  // namespace

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
  const bool is_root = c.my_comm_rank == root;
  Exposed e;
  if (is_root) {
    e.data = as_bytes(buf);
    e.bytes = bytes;
    charge(r, bytes);
  }
  Call call = publish_and_agree(r, c, e, bytes, root, 1, "bcast");
  if (!is_root) {
    copy_bytes(buf, peer_data(ctx, root, 0, bytes), bytes);
    charge(r, bytes);
  }
  // Keeps the root from handing its buffer back before every reader is done.
  call.sync();
}

void Engine::reduce_shm(Rank& r, const detail::CommData& c,
                        const void* sendbuf, void* recvbuf, int count,
                        Datatype type, ReduceOp op, int root) {
  reduce_to(r, c, sendbuf, recvbuf, count, type, op, root, "reduce");
}

void Engine::allreduce_shm(Rank& r, const detail::CommData& c,
                           const void* sendbuf, void* recvbuf, int count,
                           Datatype type, ReduceOp op) {
  reduce_to(r, c, sendbuf, recvbuf, count, type, op, -1, "allreduce");
}

void Engine::gather_shm(Rank& r, const detail::CommData& c,
                        const void* sendbuf, void* recvbuf, size_t block,
                        int root, bool in_place) {
  CollectiveContext& ctx = *c.coll;
  const int n = ctx.nranks();
  const int me = c.my_comm_rank;
  Exposed e;
  if (me != root) {
    e.data = as_bytes(sendbuf);
    e.bytes = block;
    charge(r, block);
  }
  Call call = publish_and_agree(r, c, e, block, root, 1, "gather");
  if (me == root) {
    u8* out = static_cast<u8*>(recvbuf);
    if (!in_place) copy_bytes(out + size_t(root) * block, sendbuf, block);
    for (int src = 0; src < n; ++src) {
      if (src == root) continue;
      copy_bytes(out + size_t(src) * block, peer_data(ctx, src, 0, block),
                 block);
    }
    charge(r, block);
  }
  // Keeps every block alive until the root has read it.
  call.sync();
}

void Engine::scatter_shm(Rank& r, const detail::CommData& c,
                         const void* sendbuf, void* recvbuf, size_t block,
                         int root, bool in_place) {
  CollectiveContext& ctx = *c.coll;
  const int n = ctx.nranks();
  const int me = c.my_comm_rank;
  Exposed e;
  if (me == root) {
    e.data = as_bytes(sendbuf);
    e.bytes = size_t(n) * block;
    charge(r, block);
  }
  Call call = publish_and_agree(r, c, e, block, root, 1, "scatter");
  if (me == root) {
    if (!in_place)
      copy_bytes(recvbuf, as_bytes(sendbuf) + size_t(root) * block, block);
  } else {
    copy_bytes(recvbuf, peer_data(ctx, root, size_t(me) * block, block),
               block);
    charge(r, block);
  }
  // Keeps the root from handing its buffer back before every reader is done.
  call.sync();
}

void Engine::allgather_shm(Rank& r, const detail::CommData& c,
                           const void* sendbuf, void* recvbuf, size_t block,
                           bool in_place) {
  CollectiveContext& ctx = *c.coll;
  const int n = ctx.nranks();
  const int me = c.my_comm_rank;
  u8* out = static_cast<u8*>(recvbuf);
  // In place, sendbuf is this rank's block of recvbuf, which peers read
  // and this rank never writes.
  charge(r, block);
  Call call =
      publish_and_agree(r, c, {.data = as_bytes(sendbuf), .bytes = block},
                        block, -1, 1, "allgather");
  for (int k = 1; k < n; ++k) {
    const int src = (me + k) % n;
    copy_bytes(out + size_t(src) * block, peer_data(ctx, src, 0, block),
               block);
  }
  if (!in_place) copy_bytes(out + size_t(me) * block, sendbuf, block);
  charge(r, block);
  // Keeps every block alive until all peers have read it.
  call.sync();
}

void Engine::alltoall_shm(Rank& r, const detail::CommData& c,
                          const void* sendbuf, void* recvbuf, size_t sblock,
                          size_t rblock) {
  CollectiveContext& ctx = *c.coll;
  const int n = ctx.nranks();
  const int me = c.my_comm_rank;
  u8* out = static_cast<u8*>(recvbuf);
  charge(r, sblock);
  Call call = publish_and_agree(
      r, c, {.data = as_bytes(sendbuf), .bytes = size_t(n) * sblock}, sblock,
      -1, 1, "alltoall");
  // Block `me` of every peer's sendbuf. Each rank starts at its own block
  // and walks up, which spreads the readers over the peers.
  for (int k = 0; k < n; ++k) {
    const int src = (me + k) % n;
    copy_bytes(out + size_t(src) * rblock,
               peer_data(ctx, src, size_t(me) * sblock, sblock), sblock);
  }
  charge(r, sblock);
  // Keeps every sendbuf alive until all peers have read their blocks.
  call.sync();
}

void Engine::reduce_scatter_shm(Rank& r, const detail::CommData& c,
                                const void* sendbuf, void* recvbuf,
                                const int* recvcounts, Datatype type,
                                ReduceOp op) {
  CollectiveContext& ctx = *c.coll;
  const int n = ctx.nranks();
  const int me = c.my_comm_rank;
  const size_t esize = datatype_size(type);
  size_t total = 0, my_off = 0;
  for (int i = 0; i < n; ++i) {
    if (i == me) my_off = total * esize;
    total += size_t(recvcounts[i]);
  }
  const size_t my_bytes = size_t(recvcounts[me]) * esize;
  // In place, the full input sits in recvbuf, where peers read it.
  const bool in_place = sendbuf == nullptr;
  const void* input = in_place ? recvbuf : sendbuf;
  u8* out = in_place ? ctx.scratch(me, my_bytes) : static_cast<u8*>(recvbuf);
  charge(r, total * esize);
  Call call =
      publish_and_agree(r, c, {.data = as_bytes(input), .bytes = total * esize},
                        total * esize, -1, 1, "reduce_scatter");
  reduce_inputs(ctx, 0, n, my_off, recvcounts[me], type, op, out);
  charge(r, my_bytes);
  // Keeps every input alive until all peers have read it.
  call.sync();
  if (in_place) copy_bytes(recvbuf, out, my_bytes);
  ctx.release_scratch(me);
}

void Engine::scan_shm(Rank& r, const detail::CommData& c, const void* sendbuf,
                      void* recvbuf, int count, Datatype type, ReduceOp op) {
  CollectiveContext& ctx = *c.coll;
  const int me = c.my_comm_rank;
  const size_t bytes = size_t(count) * datatype_size(type);
  // In place, higher ranks read this rank's input from recvbuf.
  const bool in_place = sendbuf == recvbuf;
  u8* out = in_place ? ctx.scratch(me, bytes) : static_cast<u8*>(recvbuf);
  charge(r, bytes);
  Call call =
      publish_and_agree(r, c, {.data = as_bytes(sendbuf), .bytes = bytes},
                        bytes, -1, 1, "scan");
  reduce_inputs(ctx, 0, me + 1, 0, count, type, op, out);
  charge(r, bytes);
  // Keeps every input alive until all higher ranks have read it.
  call.sync();
  if (in_place) copy_bytes(recvbuf, out, bytes);
  ctx.release_scratch(me);
}

void Engine::exscan_shm(Rank& r, const detail::CommData& c,
                        const void* sendbuf, void* recvbuf, int count,
                        Datatype type, ReduceOp op) {
  CollectiveContext& ctx = *c.coll;
  const int me = c.my_comm_rank;
  const size_t bytes = size_t(count) * datatype_size(type);
  // In place, higher ranks read this rank's input from recvbuf; rank 0
  // leaves recvbuf untouched.
  const bool staged = sendbuf == recvbuf && me > 0;
  u8* out = staged ? ctx.scratch(me, bytes) : static_cast<u8*>(recvbuf);
  charge(r, bytes);
  Call call =
      publish_and_agree(r, c, {.data = as_bytes(sendbuf), .bytes = bytes},
                        bytes, -1, 1, "exscan");
  if (me > 0) {
    reduce_inputs(ctx, 0, me, 0, count, type, op, out);
    charge(r, bytes);
  }
  // Keeps every input alive until all higher ranks have read it.
  call.sync();
  if (staged) copy_bytes(recvbuf, out, bytes);
  ctx.release_scratch(me);
}

}  // namespace coll
}  // namespace mpiwasm::simmpi
