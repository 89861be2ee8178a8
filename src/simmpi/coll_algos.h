// Pluggable collective-algorithm registry for simmpi.
//
// Production MPIs (MPICH, Open MPI) implement every collective several
// times and pick an algorithm per call from the message size and the
// communicator size. This header gives simmpi the same structure: each
// collective names the algorithm variants it supports (algos_for), and a
// selection table maps (tuning, comm size, message size) to a concrete
// variant (select). Each p2p variant is implemented once, as a schedule
// builder in coll_sched.h that blocking and nonblocking calls share, the
// way MPICH's transport-based collectives and libNBC do. Blocking calls on
// a communicator with a CollectiveContext (world.h) additionally have the
// shared-memory variants (coll::Engine), which read peers' buffers in
// place at any message size and bypass the mailbox transport.
//
// Cost-model honesty: p2p schedule steps of a blocking call are charged
// per message at injection, like a p2p send; the shm variants charge one
// NetworkProfile message cost per publish/read phase (Engine::charge),
// so Figure 3/4 simulations account for every algorithm step either way.
#pragma once

#include <span>

#include "simmpi/world.h"

namespace mpiwasm::simmpi::coll {

/// The collectives with pluggable algorithms. alltoallv is not one: its
/// per-peer counts and displacements fit no selection key, so it stays a
/// plain pairwise exchange (Rank::alltoallv).
enum class CollOp : i32 {
  kBarrier = 0,
  kBcast,
  kReduce,
  kAllreduce,
  kGather,
  kScatter,
  kAllgather,
  kAlltoall,
  kReduceScatter,
  kScan,
  kExscan,
};
constexpr i32 kNumCollOps = 11;

const char* coll_name(CollOp c);
const char* algo_name(CollAlgo a);
/// Parses "linear", "binomial", "ring", "rdbl", "raben", "pairwise",
/// "dissem", "shm", "auto" (plus long spellings); returns false on junk.
bool algo_from_name(std::string_view name, CollAlgo* out);

/// The registered variants of a collective, kLinear first. Every entry is
/// a valid forced choice for that collective; benches and the differential
/// suite iterate this.
std::span<const CollAlgo> algos_for(CollOp c);

/// Reads the forced algorithm for `c` out of the tuning (kAuto = none).
CollAlgo forced_algo(const CollTuning& t, CollOp c);

/// A tuning that forces `algo` for collective `c` and leaves the rest on
/// auto — the ablation/bench/test building block.
CollTuning forced_tuning(CollOp c, CollAlgo algo);

/// The size-adaptive selection table. `bytes` is the per-rank payload
/// (message size for bcast/reduce-style collectives, block size for
/// gather-style and alltoall, total size for reduce_scatter); `shm_ok`
/// says whether the communicator has a CollectiveContext, which makes kShm
/// available at any size. `hw_threads` is the
/// CPU count used for the oversubscription term (0 = the CPUs in the
/// process's affinity mask, affinity_cpus());
/// tests pass it explicitly for machine-independent expectations. Never
/// returns kAuto.
CollAlgo select(CollOp c, const CollTuning& t, int nranks, size_t bytes,
                bool shm_ok, int hw_threads = 0);

/// The shared-memory variants of the blocking collectives (kShm): each
/// rank publishes its buffers in the communicator's CollectiveContext and
/// reads its peers' buffers in place between barriers (the rules are in
/// coll_algos.cc). Every other algorithm exists once, as a schedule
/// (coll_sched.h), which blocking and nonblocking calls share. All methods
/// assume comm size > 1 and a CollectiveContext; ranks that disagree on
/// the payload size or the root all throw MpiError. A rank whose call
/// fails after its peers may have started reading its buffers takes the
/// call's remaining barriers before the error leaves it.
class Engine {
 public:
  Engine() = delete;

  /// Charges one interconnect message cost (one per shm phase).
  static void charge(Rank& r, size_t bytes);

  static void barrier_shm(Rank& r, const detail::CommData& c);
  static void bcast_shm(Rank& r, const detail::CommData& c, void* buf,
                        size_t bytes, int root);
  /// recvbuf may be null on non-root ranks.
  static void reduce_shm(Rank& r, const detail::CommData& c,
                         const void* sendbuf, void* recvbuf, int count,
                         Datatype type, ReduceOp op, int root);
  static void allreduce_shm(Rank& r, const detail::CommData& c,
                            const void* sendbuf, void* recvbuf, int count,
                            Datatype type, ReduceOp op);
  /// in_place: the root's block already sits in recvbuf.
  static void gather_shm(Rank& r, const detail::CommData& c,
                         const void* sendbuf, void* recvbuf, size_t block,
                         int root, bool in_place);
  /// in_place: the root keeps its block in sendbuf.
  static void scatter_shm(Rank& r, const detail::CommData& c,
                          const void* sendbuf, void* recvbuf, size_t block,
                          int root, bool in_place);
  /// in_place: the own block already sits at recvbuf[me * block].
  static void allgather_shm(Rank& r, const detail::CommData& c,
                            const void* sendbuf, void* recvbuf, size_t block,
                            bool in_place);
  /// Requires sblock <= rblock (the caller rejects truncation).
  static void alltoall_shm(Rank& r, const detail::CommData& c,
                           const void* sendbuf, void* recvbuf, size_t sblock,
                           size_t rblock);
  /// sendbuf == nullptr means in-place: the full input sits in recvbuf and
  /// the result block lands at its front.
  static void reduce_scatter_shm(Rank& r, const detail::CommData& c,
                                 const void* sendbuf, void* recvbuf,
                                 const int* recvcounts, Datatype type,
                                 ReduceOp op);
  static void scan_shm(Rank& r, const detail::CommData& c,
                       const void* sendbuf, void* recvbuf, int count,
                       Datatype type, ReduceOp op);
  static void exscan_shm(Rank& r, const detail::CommData& c,
                         const void* sendbuf, void* recvbuf, int count,
                         Datatype type, ReduceOp op);
};

}  // namespace mpiwasm::simmpi::coll
