// Collective entry points: argument validation, MPI_IN_PLACE resolution,
// and algorithm selection from the pluggable registry (coll_algos.h): the
// size x comm-size table (coll::select) with CollTuning / MPIWASM_COLL_*
// overrides. Every p2p algorithm exists once, as a schedule (coll_sched.h):
// a nonblocking call returns its schedule's request, a blocking call runs
// the same schedule to completion (Schedule::run_blocking). Blocking calls
// that select kShm read their peers' buffers in place instead
// (coll::Engine *_shm).
#include <cstring>
#include <vector>

#include "simmpi/coll_algos.h"
#include "simmpi/coll_sched.h"
#include "simmpi/reduce_ops.h"
#include "simmpi/world.h"
#include "support/trace.h"

namespace mpiwasm::simmpi {

namespace {

using coll::CollOp;
using coll::Engine;
using coll::Schedule;

/// True when this communicator has a CollectiveContext, which carries the
/// shm path at any message size.
bool shm_ok(const detail::CommData& c) { return c.coll != nullptr; }

/// Picks the algorithm for one collective call from the static selection
/// table, honouring explicit MPIWASM_COLL_* overrides. Nonblocking calls
/// exclude the shm path from auto selection: a CPU-side barrier overlaps
/// nothing, and the schedule machinery's fixed cost exceeds the direct
/// reads' entire latency at the sizes where shm wins. An explicitly forced
/// kShm still builds its schedule (the differential tests force every
/// algorithm). Every selection lands in the per-thread algorithm histogram
/// and, when tracing, as a "coll.select" instant.
CollAlgo pick_algo(const World& w, const detail::CommData& c, CollOp op,
                   size_t bytes, bool ok, bool nonblocking = false) {
  const CollTuning& t = w.coll_tuning();
  const int n = int(c.world_ranks.size());
  if (nonblocking) ok = ok && coll::forced_algo(t, op) != CollAlgo::kAuto;
  const CollAlgo algo = coll::select(op, t, n, bytes, ok);
  if (MW_TRACE_ACTIVE()) {
    trace::note_algo(coll::coll_name(op), coll::algo_name(algo));
    trace::instant("coll", "coll.select", "bytes", i64(bytes), "ranks", n,
                   coll::coll_name(op), coll::algo_name(algo));
  }
  return algo;
}

}  // namespace

void Rank::barrier(Comm comm) {
  maybe_icoll_progress();
  detail::CommData& c = comm_data_mut(comm);
  if (c.world_ranks.size() == 1) return;
  CollAlgo a = pick_algo(*world_, c, CollOp::kBarrier, 0, shm_ok(c));
  if (a == CollAlgo::kShm) {
    Engine::barrier_shm(*this, c);
  } else {
    auto s = Schedule::acquire(*this, c);
    coll::build_ibarrier(*s, a);
    s->run_blocking(*this);
  }
}

void Rank::bcast(void* buf, int count, Datatype type, int root, Comm comm) {
  maybe_icoll_progress();
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (root < 0 || root >= n) throw MpiError("bcast: root out of range");
  if (count < 0) throw MpiError("bcast: negative count");
  if (n == 1) return;
  size_t bytes = size_t(count) * datatype_size(type);
  CollAlgo a = pick_algo(*world_, c, CollOp::kBcast, bytes, shm_ok(c));
  if (a == CollAlgo::kShm) {
    Engine::bcast_shm(*this, c, buf, bytes, root);
  } else {
    auto s = Schedule::acquire(*this, c);
    coll::build_ibcast(*s, a, buf, bytes, root);
    s->run_blocking(*this);
  }
}

void Rank::reduce(const void* sendbuf, void* recvbuf, int count, Datatype type,
                  ReduceOp op, int root, Comm comm) {
  maybe_icoll_progress();
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (root < 0 || root >= n) throw MpiError("reduce: root out of range");
  if (count < 0) throw MpiError("reduce: negative count");
  check_reduce(op, type, "reduce");
  bool is_root = c.my_comm_rank == root;
  if (is_in_place(sendbuf)) {
    if (!is_root) throw MpiError("reduce: MPI_IN_PLACE only valid at root");
    sendbuf = recvbuf;  // input lives in recvbuf at the root
  }
  if (is_root && recvbuf == nullptr)
    throw MpiError("reduce: null recvbuf at root");
  size_t bytes = size_t(count) * datatype_size(type);
  if (n == 1) {
    if (recvbuf != sendbuf) std::memmove(recvbuf, sendbuf, bytes);
    return;
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kReduce, bytes, shm_ok(c));
  if (a == CollAlgo::kShm) {
    Engine::reduce_shm(*this, c, sendbuf, recvbuf, count, type, op, root);
  } else {
    auto s = Schedule::acquire(*this, c);
    coll::build_ireduce(*s, a, sendbuf, recvbuf, count, type, op, root);
    s->run_blocking(*this);
  }
}

void Rank::allreduce(const void* sendbuf, void* recvbuf, int count,
                     Datatype type, ReduceOp op, Comm comm) {
  maybe_icoll_progress();
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (count < 0) throw MpiError("allreduce: negative count");
  check_reduce(op, type, "allreduce");
  if (is_in_place(sendbuf)) sendbuf = recvbuf;
  size_t bytes = size_t(count) * datatype_size(type);
  if (n == 1) {
    if (recvbuf != sendbuf) std::memmove(recvbuf, sendbuf, bytes);
    return;
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kAllreduce, bytes, shm_ok(c));
  if (a == CollAlgo::kShm) {
    Engine::allreduce_shm(*this, c, sendbuf, recvbuf, count, type, op);
  } else {
    auto s = Schedule::acquire(*this, c);
    coll::build_iallreduce(*s, a, sendbuf, recvbuf, count, type, op);
    s->run_blocking(*this);
  }
}

void Rank::gather(const void* sendbuf, int sendcount, void* recvbuf,
                  int recvcount, Datatype type, int root, Comm comm) {
  maybe_icoll_progress();
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (root < 0 || root >= n) throw MpiError("gather: root out of range");
  if (sendcount < 0 || recvcount < 0)
    throw MpiError("gather: negative count");
  bool is_root = c.my_comm_rank == root;
  bool in_place = is_in_place(sendbuf);
  if (in_place && !is_root)
    throw MpiError("gather: MPI_IN_PLACE only valid at root");
  // MPI requires each sender's block to equal the root's receive block.
  size_t block = (is_root ? size_t(recvcount) : size_t(sendcount)) *
                 datatype_size(type);
  if (n == 1) {
    if (!in_place) std::memcpy(recvbuf, sendbuf, block);
    return;
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kGather, block, shm_ok(c));
  if (a == CollAlgo::kShm) {
    Engine::gather_shm(*this, c, sendbuf, recvbuf, block, root, in_place);
  } else {
    auto s = Schedule::acquire(*this, c);
    coll::build_gather(*s, a, sendbuf, recvbuf, block, root, in_place);
    s->run_blocking(*this);
  }
}

void Rank::scatter(const void* sendbuf, int sendcount, void* recvbuf,
                   int recvcount, Datatype type, int root, Comm comm) {
  maybe_icoll_progress();
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (root < 0 || root >= n) throw MpiError("scatter: root out of range");
  if (sendcount < 0 || recvcount < 0)
    throw MpiError("scatter: negative count");
  bool is_root = c.my_comm_rank == root;
  bool in_place = is_in_place(recvbuf);
  if (in_place && !is_root)
    throw MpiError("scatter: MPI_IN_PLACE only valid at root");
  size_t block = (is_root ? size_t(sendcount) : size_t(recvcount)) *
                 datatype_size(type);
  if (n == 1) {
    if (!in_place) std::memcpy(recvbuf, sendbuf, block);
    return;
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kScatter, block, shm_ok(c));
  if (a == CollAlgo::kShm) {
    Engine::scatter_shm(*this, c, sendbuf, recvbuf, block, root, in_place);
  } else {
    auto s = Schedule::acquire(*this, c);
    coll::build_scatter(*s, a, sendbuf, recvbuf, block, root, in_place);
    s->run_blocking(*this);
  }
}

void Rank::allgather(const void* sendbuf, int sendcount, void* recvbuf,
                     int recvcount, Datatype type, Comm comm) {
  maybe_icoll_progress();
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  int me = c.my_comm_rank;
  if (sendcount < 0 || recvcount < 0)
    throw MpiError("allgather: negative count");
  size_t block = size_t(recvcount) * datatype_size(type);
  bool in_place = is_in_place(sendbuf);
  if (in_place) {
    sendbuf = static_cast<u8*>(recvbuf) + size_t(me) * block;
  } else {
    block = size_t(sendcount) * datatype_size(type);
  }
  if (n == 1) {
    if (!in_place) std::memcpy(recvbuf, sendbuf, block);
    return;
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kAllgather, block, shm_ok(c));
  if (a == CollAlgo::kShm) {
    Engine::allgather_shm(*this, c, sendbuf, recvbuf, block, in_place);
  } else {
    auto s = Schedule::acquire(*this, c);
    coll::build_iallgather(*s, a, sendbuf, recvbuf, block);
    s->run_blocking(*this);
  }
}

void Rank::alltoall(const void* sendbuf, int sendcount, void* recvbuf,
                    int recvcount, Datatype type, Comm comm) {
  maybe_icoll_progress();
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (sendcount < 0 || recvcount < 0)
    throw MpiError("alltoall: negative count");
  if (is_in_place(sendbuf))
    throw MpiError("alltoall: MPI_IN_PLACE not supported");
  size_t sblock = size_t(sendcount) * datatype_size(type);
  size_t rblock = size_t(recvcount) * datatype_size(type);
  // Every path copies a whole send block into an rblock-byte receive block.
  if (sblock > rblock) throw MpiError("alltoall: message truncated");
  if (n == 1) {
    std::memcpy(recvbuf, sendbuf, sblock);
    return;
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kAlltoall, sblock, shm_ok(c));
  if (a == CollAlgo::kShm) {
    Engine::alltoall_shm(*this, c, sendbuf, recvbuf, sblock, rblock);
  } else {
    auto s = Schedule::acquire(*this, c);
    coll::build_ialltoall(*s, a, sendbuf, recvbuf, sblock, rblock);
    s->run_blocking(*this);
  }
}

void Rank::alltoallv(const void* sendbuf, const int* sendcounts,
                     const int* sdispls, void* recvbuf, const int* recvcounts,
                     const int* rdispls, Datatype type, Comm comm) {
  maybe_icoll_progress();
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  int me = c.my_comm_rank;
  if (is_in_place(sendbuf))
    throw MpiError("alltoallv: MPI_IN_PLACE not supported");
  size_t esize = datatype_size(type);
  const u8* in = static_cast<const u8*>(sendbuf);
  u8* out = static_cast<u8*>(recvbuf);
  std::memcpy(out + size_t(rdispls[me]) * esize,
              in + size_t(sdispls[me]) * esize,
              size_t(std::min(sendcounts[me], recvcounts[me])) * esize);
  for (int s = 1; s < n; ++s) {
    int to = (me + s) % n;
    int from = (me - s + n) % n;
    Request r = irecv_internal(out + size_t(rdispls[from]) * esize,
                               size_t(recvcounts[from]) * esize, from,
                               kCollectiveTag, c);
    Request sent = isend_internal(in + size_t(sdispls[to]) * esize,
                                  size_t(sendcounts[to]) * esize, to,
                                  kCollectiveTag, c, /*charge_wire=*/true);
    wait(sent);
    wait(r);
  }
}

void Rank::reduce_scatter(const void* sendbuf, void* recvbuf,
                          const int* recvcounts, Datatype type, ReduceOp op,
                          Comm comm) {
  maybe_icoll_progress();
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  size_t esize = datatype_size(type);
  size_t total = 0;
  for (int i = 0; i < n; ++i) {
    if (recvcounts[i] < 0) throw MpiError("reduce_scatter: negative count");
    total += size_t(recvcounts[i]);
  }
  check_reduce(op, type, "reduce_scatter");
  // In-place input (full vector in recvbuf) is signalled to the algorithm
  // layer by a null sendbuf.
  const void* input = is_in_place(sendbuf) ? nullptr : sendbuf;
  if (n == 1) {
    if (input != nullptr)
      std::memmove(recvbuf, input, size_t(recvcounts[0]) * esize);
    return;
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kReduceScatter, total * esize,
                         shm_ok(c));
  if (a == CollAlgo::kShm) {
    Engine::reduce_scatter_shm(*this, c, input, recvbuf, recvcounts, type, op);
  } else {
    auto s = Schedule::acquire(*this, c);
    coll::build_ireduce_scatter(*s, a, input, recvbuf, recvcounts, type,
                                op);
    s->run_blocking(*this);
  }
}

void Rank::scan(const void* sendbuf, void* recvbuf, int count, Datatype type,
                ReduceOp op, Comm comm) {
  maybe_icoll_progress();
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (count < 0) throw MpiError("scan: negative count");
  check_reduce(op, type, "scan");
  if (is_in_place(sendbuf)) sendbuf = recvbuf;
  size_t bytes = size_t(count) * datatype_size(type);
  if (n == 1) {
    if (recvbuf != sendbuf) std::memmove(recvbuf, sendbuf, bytes);
    return;
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kScan, bytes, shm_ok(c));
  if (a == CollAlgo::kShm) {
    Engine::scan_shm(*this, c, sendbuf, recvbuf, count, type, op);
  } else {
    auto s = Schedule::acquire(*this, c);
    coll::build_iscan(*s, a, sendbuf, recvbuf, count, type, op);
    s->run_blocking(*this);
  }
}

void Rank::exscan(const void* sendbuf, void* recvbuf, int count, Datatype type,
                  ReduceOp op, Comm comm) {
  maybe_icoll_progress();
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (count < 0) throw MpiError("exscan: negative count");
  check_reduce(op, type, "exscan");
  if (is_in_place(sendbuf)) sendbuf = recvbuf;
  size_t bytes = size_t(count) * datatype_size(type);
  if (n == 1) return;  // recvbuf undefined on rank 0
  CollAlgo a = pick_algo(*world_, c, CollOp::kExscan, bytes, shm_ok(c));
  if (a == CollAlgo::kShm) {
    Engine::exscan_shm(*this, c, sendbuf, recvbuf, count, type, op);
  } else {
    auto s = Schedule::acquire(*this, c);
    coll::build_iexscan(*s, a, sendbuf, recvbuf, count, type, op);
    s->run_blocking(*this);
  }
}

// ---------------------------------------------------------------------------
// Nonblocking collectives: validation + MPI_IN_PLACE resolution + the
// static selection table, then the same schedule build as the blocking
// call, registered with the progress engine and returned as a request.
// ---------------------------------------------------------------------------

Request Rank::ibarrier(Comm comm) {
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (n == 1) return Request{};
  CollAlgo a = pick_algo(*world_, c, CollOp::kBarrier, 0, shm_ok(c),
                         /*nonblocking=*/true);
  auto s = Schedule::acquire(*this, c);
  coll::build_ibarrier(*s, a);
  return start_icoll(std::move(s));
}

Request Rank::ibcast(void* buf, int count, Datatype type, int root, Comm comm) {
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (root < 0 || root >= n) throw MpiError("ibcast: root out of range");
  if (count < 0) throw MpiError("ibcast: negative count");
  if (n == 1) return Request{};
  size_t bytes = size_t(count) * datatype_size(type);
  CollAlgo a = pick_algo(*world_, c, CollOp::kBcast, bytes, shm_ok(c),
                         /*nonblocking=*/true);
  auto s = Schedule::acquire(*this, c);
  coll::build_ibcast(*s, a, buf, bytes, root);
  return start_icoll(std::move(s));
}

Request Rank::ireduce(const void* sendbuf, void* recvbuf, int count,
                      Datatype type, ReduceOp op, int root, Comm comm) {
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (root < 0 || root >= n) throw MpiError("ireduce: root out of range");
  if (count < 0) throw MpiError("ireduce: negative count");
  check_reduce(op, type, "ireduce");
  bool is_root = c.my_comm_rank == root;
  if (is_in_place(sendbuf)) {
    if (!is_root) throw MpiError("ireduce: MPI_IN_PLACE only valid at root");
    sendbuf = recvbuf;
  }
  if (is_root && recvbuf == nullptr)
    throw MpiError("ireduce: null recvbuf at root");
  size_t bytes = size_t(count) * datatype_size(type);
  if (n == 1) {
    if (recvbuf != sendbuf) std::memmove(recvbuf, sendbuf, bytes);
    return Request{};
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kReduce, bytes, shm_ok(c),
                         /*nonblocking=*/true);
  auto s = Schedule::acquire(*this, c);
  coll::build_ireduce(*s, a, sendbuf, recvbuf, count, type, op, root);
  return start_icoll(std::move(s));
}

Request Rank::iallreduce(const void* sendbuf, void* recvbuf, int count,
                         Datatype type, ReduceOp op, Comm comm) {
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (count < 0) throw MpiError("iallreduce: negative count");
  check_reduce(op, type, "iallreduce");
  if (is_in_place(sendbuf)) sendbuf = recvbuf;
  size_t bytes = size_t(count) * datatype_size(type);
  if (n == 1) {
    if (recvbuf != sendbuf) std::memmove(recvbuf, sendbuf, bytes);
    return Request{};
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kAllreduce, bytes, shm_ok(c),
                         /*nonblocking=*/true);
  auto s = Schedule::acquire(*this, c);
  coll::build_iallreduce(*s, a, sendbuf, recvbuf, count, type, op);
  return start_icoll(std::move(s));
}

Request Rank::iallgather(const void* sendbuf, int sendcount, void* recvbuf,
                         int recvcount, Datatype type, Comm comm) {
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  int me = c.my_comm_rank;
  if (sendcount < 0 || recvcount < 0)
    throw MpiError("iallgather: negative count");
  size_t block = size_t(recvcount) * datatype_size(type);
  bool in_place = is_in_place(sendbuf);
  if (in_place) {
    sendbuf = static_cast<u8*>(recvbuf) + size_t(me) * block;
  } else {
    block = size_t(sendcount) * datatype_size(type);
  }
  if (n == 1) {
    if (!in_place) std::memcpy(recvbuf, sendbuf, block);
    return Request{};
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kAllgather, block, shm_ok(c),
                         /*nonblocking=*/true);
  auto s = Schedule::acquire(*this, c);
  coll::build_iallgather(*s, a, sendbuf, recvbuf, block);
  return start_icoll(std::move(s));
}

Request Rank::ialltoall(const void* sendbuf, int sendcount, void* recvbuf,
                        int recvcount, Datatype type, Comm comm) {
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (sendcount < 0 || recvcount < 0)
    throw MpiError("ialltoall: negative count");
  if (is_in_place(sendbuf))
    throw MpiError("ialltoall: MPI_IN_PLACE not supported");
  size_t sblock = size_t(sendcount) * datatype_size(type);
  size_t rblock = size_t(recvcount) * datatype_size(type);
  if (sblock > rblock) throw MpiError("ialltoall: message truncated");
  if (n == 1) {
    std::memcpy(recvbuf, sendbuf, sblock);
    return Request{};
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kAlltoall, sblock, /*ok=*/false,
                         /*nonblocking=*/true);
  auto s = Schedule::acquire(*this, c);
  coll::build_ialltoall(*s, a, sendbuf, recvbuf, sblock, rblock);
  return start_icoll(std::move(s));
}

Request Rank::ireduce_scatter(const void* sendbuf, void* recvbuf,
                              const int* recvcounts, Datatype type,
                              ReduceOp op, Comm comm) {
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  size_t esize = datatype_size(type);
  size_t total = 0;
  for (int i = 0; i < n; ++i) {
    if (recvcounts[i] < 0) throw MpiError("ireduce_scatter: negative count");
    total += size_t(recvcounts[i]);
  }
  check_reduce(op, type, "ireduce_scatter");
  const void* input = is_in_place(sendbuf) ? nullptr : sendbuf;
  if (n == 1) {
    if (input != nullptr)
      std::memmove(recvbuf, input, size_t(recvcounts[0]) * esize);
    return Request{};
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kReduceScatter, total * esize,
                         shm_ok(c), /*nonblocking=*/true);
  auto s = Schedule::acquire(*this, c);
  coll::build_ireduce_scatter(*s, a, input, recvbuf, recvcounts, type, op);
  return start_icoll(std::move(s));
}

Request Rank::iscan(const void* sendbuf, void* recvbuf, int count,
                    Datatype type, ReduceOp op, Comm comm) {
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (count < 0) throw MpiError("iscan: negative count");
  check_reduce(op, type, "iscan");
  if (is_in_place(sendbuf)) sendbuf = recvbuf;
  size_t bytes = size_t(count) * datatype_size(type);
  if (n == 1) {
    if (recvbuf != sendbuf) std::memmove(recvbuf, sendbuf, bytes);
    return Request{};
  }
  CollAlgo a = pick_algo(*world_, c, CollOp::kScan, bytes, shm_ok(c),
                         /*nonblocking=*/true);
  auto s = Schedule::acquire(*this, c);
  coll::build_iscan(*s, a, sendbuf, recvbuf, count, type, op);
  return start_icoll(std::move(s));
}

Request Rank::iexscan(const void* sendbuf, void* recvbuf, int count,
                      Datatype type, ReduceOp op, Comm comm) {
  detail::CommData& c = comm_data_mut(comm);
  int n = int(c.world_ranks.size());
  if (count < 0) throw MpiError("iexscan: negative count");
  check_reduce(op, type, "iexscan");
  if (is_in_place(sendbuf)) sendbuf = recvbuf;
  size_t bytes = size_t(count) * datatype_size(type);
  if (n == 1) return Request{};  // recvbuf undefined on rank 0
  CollAlgo a = pick_algo(*world_, c, CollOp::kExscan, bytes, shm_ok(c),
                         /*nonblocking=*/true);
  auto s = Schedule::acquire(*this, c);
  coll::build_iexscan(*s, a, sendbuf, recvbuf, count, type, op);
  return start_icoll(std::move(s));
}

// ---------------------------------------------------------------------------
// Communicator management
// ---------------------------------------------------------------------------

Comm Rank::comm_dup(Comm comm) {
  const detail::CommData parent = comm_data(comm);
  // Rank 0 of the parent allocates the new id; everyone learns it by bcast.
  i32 new_id = 0;
  if (parent.my_comm_rank == 0) new_id = world_->alloc_comm_ids(1);
  bcast(&new_id, 1, Datatype::kInt, 0, comm);
  detail::CommData dup = parent;
  dup.id = new_id;
  dup.schedules.clear();
  dup.coll = world_->attach_coll(new_id, int(dup.world_ranks.size()));
  {
    std::unique_lock<std::shared_mutex> lock(comms_mu_);
    comms_[new_id] = std::move(dup);
  }
  return new_id;
}

Comm Rank::comm_split(Comm comm, int color, int key) {
  const detail::CommData parent = comm_data(comm);
  int n = int(parent.world_ranks.size());

  // Gather everyone's (color, key).
  std::vector<int> pairs(size_t(n) * 2);
  int mine[2] = {color, key};
  allgather(mine, 2, pairs.data(), 2, Datatype::kInt, comm);

  // Distinct colors in sorted order (excluding kUndefined) determine the
  // per-color communicator index.
  std::vector<int> colors;
  for (int r = 0; r < n; ++r) {
    int col = pairs[2 * r];
    if (col == kUndefined) continue;
    bool seen = false;
    for (int c2 : colors) seen = seen || c2 == col;
    if (!seen) colors.push_back(col);
  }
  std::sort(colors.begin(), colors.end());

  // Parent rank 0 allocates a contiguous id range; broadcast the base.
  i32 base = 0;
  if (parent.my_comm_rank == 0) base = world_->alloc_comm_ids(i32(colors.size()));
  bcast(&base, 1, Datatype::kInt, 0, comm);

  if (color == kUndefined) return kCommNull;

  int color_index = 0;
  for (size_t i = 0; i < colors.size(); ++i)
    if (colors[i] == color) color_index = int(i);

  // Members of my color, ordered by (key, parent rank).
  std::vector<std::pair<int, int>> members;  // (key, parent rank)
  for (int r = 0; r < n; ++r)
    if (pairs[2 * r] == color) members.push_back({pairs[2 * r + 1], r});
  std::sort(members.begin(), members.end());

  detail::CommData nc;
  nc.id = base + color_index;
  nc.world_ranks.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    nc.world_ranks.push_back(parent.world_ranks[members[i].second]);
    if (members[i].second == parent.my_comm_rank) nc.my_comm_rank = int(i);
  }
  nc.coll = world_->attach_coll(nc.id, int(members.size()));
  Comm id = nc.id;
  {
    std::unique_lock<std::shared_mutex> lock(comms_mu_);
    comms_[id] = std::move(nc);
  }
  return id;
}

void Rank::comm_free(Comm comm) {
  if (comm == kCommWorld) throw MpiError("cannot free MPI_COMM_WORLD");
  comm_data(comm);  // validates the handle (throws on an unknown id)
  // MPI_Comm_free must let pending operations complete: outstanding
  // nonblocking-collective schedules hold a pointer into this CommData, so
  // drain them before it is destroyed. Every member rank frees the
  // communicator, so the collective can always run to completion here.
  auto drained = [&] {
    std::lock_guard<std::recursive_mutex> guard(icoll_mu_);
    for (const auto& s : icoll_active_)
      if (s->comm_id() == comm) return false;
    return true;
  };
  if (!drained())
    poll_with_progress(drained, "comm_free: outstanding nonblocking collective");
  std::unique_lock<std::shared_mutex> lock(comms_mu_);
  auto it = comms_.find(comm);
  if (it == comms_.end()) throw MpiError("comm_free: invalid communicator");
  if (it->second.coll != nullptr) world_->release_coll(comm);
  comms_.erase(it);
}

}  // namespace mpiwasm::simmpi
