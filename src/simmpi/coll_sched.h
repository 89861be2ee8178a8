// Collective schedules: the one implementation of every p2p collective
// algorithm, shared by the blocking and the nonblocking entry points.
//
// A *schedule* is a DAG of isend / irecv / local-reduce / copy / shm-phase
// steps whose dependencies encode the algorithm's ordering. Every entry
// point (collectives.cc) picks a registry algorithm (coll_algos.h), takes
// a schedule from the communicator's pool (Schedule::acquire) and fills it
// with the build_* factories below. A nonblocking call registers it with
// the per-rank progress engine (Rank::icoll_progress), which advances all
// outstanding schedules from wait/test/waitall and opportunistically from
// every blocking MPI entry point, and returns its request. A blocking call
// waits for it right away in the same collective-request wait loop, which
// drives it without registering it (Schedule::run_blocking). Only the
// shared-memory variants of blocking calls bypass schedules
// (coll::Engine *_shm).
//
// Cost-model honesty: p2p steps charge the NetworkProfile per message in
// one of two ways, derived from the call. A blocking call charges the wire
// at injection (the isend spins, exactly like a p2p send) and posts large
// payloads as one unsegmented rendezvous, so blocking collectives cost what
// their step-by-step p2p composition costs (Figures 3/4). A nonblocking
// call charges the wire as a *completion deadline* instead, modeling the
// NIC-offloaded asynchronous transfer that makes overlap worthwhile: the
// step is posted immediately (so peers can match it) and counts as
// complete only once both the transfer finished and its wire-time deadline
// elapsed. Shared-memory phases charge the same way on their fan-in/
// fan-out arrivals.
//
// Concurrency: a schedule is driven by its rank's threads only (a
// blocking call's by the calling thread alone); cross-rank traffic flows
// through the mailbox transport or through a per-operation IcollShmGroup
// (world.h) whose single-use two-phase barrier keeps interleaved
// outstanding shm collectives from mixing arrivals.
#pragma once

#include <atomic>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "simmpi/world.h"

namespace mpiwasm::simmpi::coll {

class Schedule {
 public:
  using StepId = int;
  static constexpr StepId kNone = -1;

  /// A step's dependencies: a braced list `{a, b}` or a vector of ids. Read
  /// only while the step is added, so building a step allocates nothing
  /// per dependency list.
  class Deps {
   public:
    Deps(std::initializer_list<StepId> ids) : ids_(ids.begin(), ids.size()) {}
    Deps(const std::vector<StepId>& ids) : ids_(ids) {}
    std::span<const StepId> ids() const { return ids_; }

   private:
    std::span<const StepId> ids_;
  };

  /// `seq` is the per-communicator operation sequence number; it derives
  /// the schedule's private tag stride (types.h kIcollTagBase).
  Schedule(World* world, const detail::CommData& c, i64 seq);
  ~Schedule();
  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  /// An empty schedule for the next collective call on `c`, numbered with
  /// the communicator's next sequence number. It is an idle one of the
  /// communicator's pooled schedules when there is one (kept with its step,
  /// dependency and scratch storage, so a repeated call allocates nothing
  /// for its schedule), else a new one, pooled while the pool has room.
  static std::shared_ptr<Schedule> acquire(Rank& r, detail::CommData& c);
  /// Runs this schedule for a blocking call: its sends charge the wire at
  /// injection and set no deadline. Waits through the collective-request
  /// wait loop (Rank::poll_with_progress), which drives it directly; it is
  /// never registered with the progress engine.
  void run_blocking(Rank& r);

  const detail::CommData& comm() const { return *c_; }

  bool done() const { return done_.load(std::memory_order_acquire); }
  /// Steps not yet completed (progress-detection for poll backoff).
  int remaining() const { return remaining_; }
  /// Advances every runnable step; returns done(). Never blocks.
  bool progress(Rank& r);
  /// Communicator this schedule runs on (comm_free drains by this id).
  i32 comm_id() const { return comm_id_; }

  // --- build API (used by the build_* factories below) ----------------------
  /// Allocates a stable scratch buffer owned by the schedule.
  u8* scratch(size_t bytes);
  /// Lazily attaches this operation's shared-memory group (shm variants).
  IcollShmGroup& shm_group(size_t slot_bytes);
  /// p2p steps: `round` tells apart same-peer messages of one schedule
  /// that the dependencies do not order (must be < kIcollRounds). Messages
  /// to one peer that each depend on the previous one's completion can
  /// share a round: MPI's non-overtaking rule keeps them in order. kNone
  /// deps are ignored.
  StepId send(const void* buf, size_t bytes, int peer, int round,
              Deps deps);
  StepId recv(void* buf, size_t bytes, int peer, int round,
              Deps deps);
  /// Local steps. copy uses memmove semantics (src may alias dst).
  StepId reduce(const void* src, void* dst, int count, Datatype type,
                ReduceOp op, Deps deps);
  StepId copy(const void* src, void* dst, size_t bytes,
              Deps deps);
  /// Shm phase steps: arrive posts the release increment immediately and
  /// completes once `charge_bytes` of wire time elapsed; wait completes
  /// when all ranks arrived at `phase`.
  StepId shm_arrive(int phase, size_t charge_bytes, Deps deps);
  StepId shm_wait(int phase, Deps deps);

 private:
  struct Step {
    enum class Kind { kSend, kRecv, kReduce, kCopy, kShmArrive, kShmWait };
    enum class State { kPending, kStarted, kDone };
    Kind kind = Kind::kCopy;
    State state = State::kPending;
    const void* src = nullptr;
    void* dst = nullptr;
    size_t bytes = 0;
    int count = 0;
    Datatype type = Datatype::kByte;
    ReduceOp op = ReduceOp::kSum;
    int peer = -1;
    int tag = 0;
    int phase = 0;
    u64 wire_ns = 0;      // cost charged as a completion deadline
    u64 ready_at_ns = 0;  // set when the step starts
    Request req;          // in-flight p2p transfer
    size_t deps_begin = 0, deps_end = 0;  // range in deps_
  };

  /// Appends a step of `kind` after `deps`; the caller fills its fields.
  Step& add(Step::Kind kind, Deps deps);
  StepId last() const;  // id of the step added last
  bool deps_done(const Step& s) const;
  /// Starts/polls one runnable step; returns true when it completed.
  bool advance(Rank& r, Step& s);

  /// Numbers the schedule `seq`: derives its tag stride.
  void renumber(i64 seq);
  /// Empties a pooled schedule for operation `seq`, keeping its storage.
  void reset(i64 seq);
  void release_shm_group();

  World* world_;
  const detail::CommData* c_;
  i32 comm_id_;  // survives the CommData for teardown after comm_free
  i64 seq_ = 0;
  int tag_base_ = 0;
  bool blocking_ = false;  // built for a blocking call (run_blocking)
  std::vector<Step> steps_;
  std::vector<StepId> deps_;  // every step's dependencies, back to back
  /// Changed only by the thread running a progress pass (passes are
  /// serialized: Rank::icoll_progress holds icoll_mu_, a blocking call's
  /// schedule is driven by its caller alone).
  int remaining_ = 0;
  /// Set by the pass that completes the last step. Atomic: the rank's other
  /// guest threads poll done() on their own requests, and the release
  /// store publishes every step's writes to them.
  std::atomic<bool> done_{false};
  /// Scratch buffers; the first scratch_used_ belong to the current
  /// operation, the rest are kept for the next one (acquire()).
  std::vector<std::vector<u8>> scratch_;
  size_t scratch_used_ = 0;
  std::shared_ptr<IcollShmGroup> shm_;
};

// ---------------------------------------------------------------------------
// Schedule factories: one per collective, covering every algorithm the
// registry (coll_algos.h algos_for) offers for it. Each appends its steps
// to an empty schedule `s` and reads the communicator from s.comm().
// `algo` must be a concrete choice (the entry points resolve kAuto via
// coll::select). All buffers are pre-resolved (no MPI_IN_PLACE sentinels)
// unless noted.
// ---------------------------------------------------------------------------

void build_ibarrier(Schedule& s, CollAlgo algo);
void build_ibcast(Schedule& s, CollAlgo algo, void* buf, size_t bytes,
                  int root);
void build_ireduce(Schedule& s, CollAlgo algo, const void* sendbuf,
                   void* recvbuf, int count, Datatype type, ReduceOp op,
                   int root);
void build_iallreduce(Schedule& s, CollAlgo algo, const void* sendbuf,
                      void* recvbuf, int count, Datatype type, ReduceOp op);
/// Gather of `block` bytes per rank into the root's recvbuf. `in_place`:
/// the root's own block already sits in recvbuf (its sendbuf is unused).
void build_gather(Schedule& s, CollAlgo algo, const void* sendbuf,
                  void* recvbuf, size_t block, int root, bool in_place);
/// Scatter of the root's sendbuf in `block`-byte pieces. `in_place`: the
/// root keeps its block in sendbuf and never writes its recvbuf.
void build_scatter(Schedule& s, CollAlgo algo, const void* sendbuf,
                   void* recvbuf, size_t block, int root, bool in_place);
/// `sendbuf` must be pre-resolved: under MPI_IN_PLACE it points at the
/// caller's own block inside recvbuf (the initial own-block copy is a
/// memmove, so the alias is harmless).
void build_iallgather(Schedule& s, CollAlgo algo, const void* sendbuf,
                      void* recvbuf, size_t block);
void build_ialltoall(Schedule& s, CollAlgo algo, const void* sendbuf,
                     void* recvbuf, size_t sblock, size_t rblock);
/// `sendbuf == nullptr` means in-place (input already in recvbuf).
/// `recvcounts` is only read during the build; it need not outlive the call.
void build_ireduce_scatter(Schedule& s, CollAlgo algo, const void* sendbuf,
                           void* recvbuf, const int* recvcounts, Datatype type,
                           ReduceOp op);
void build_iscan(Schedule& s, CollAlgo algo, const void* sendbuf,
                 void* recvbuf, int count, Datatype type, ReduceOp op);
/// Requires n > 1 (the entry point short-circuits singleton comms; rank 0's
/// recvbuf stays untouched per MPI semantics).
void build_iexscan(Schedule& s, CollAlgo algo, const void* sendbuf,
                   void* recvbuf, int count, Datatype type, ReduceOp op);

}  // namespace mpiwasm::simmpi::coll
