// simmpi execution core: World (the "mpirun"), Rank (per-thread MPI
// context), mailboxes with tag/source matching, eager/rendezvous p2p, and
// nonblocking requests. Collectives are layered on top in collectives.cc.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <vector>

#include "simmpi/types.h"
#include "support/timing.h"

namespace mpiwasm::simmpi {

class World;
class Rank;
class CollectiveContext;
namespace coll {
class Autotuner;
class Schedule;
}  // namespace coll

/// Communicator handle (dense id). kCommWorld is always valid.
using Comm = i32;
constexpr Comm kCommWorld = 0;
constexpr Comm kCommNull = -1;
/// comm_split color for ranks excluded from the new communicator.
constexpr int kUndefined = -9999;

namespace detail {

struct Mailbox;
struct RecvDesc;

struct SendDesc {
  i32 comm_id = 0;
  int src_comm_rank = 0;
  int tag = 0;
  const u8* payload = nullptr;   // rendezvous: sender-owned buffer
  std::vector<u8> eager_buf;     // eager: library-owned copy
  size_t bytes = 0;
  bool eager = true;
  bool completed = false;        // rendezvous: receiver copied the payload
  Mailbox* sender_box = nullptr; // posting rank's box, woken on completion

  // --- Segmented pipelined rendezvous (schedule sends only) --------------
  // The sender exposes the payload in `chunk`-byte segments, each becoming
  // visible `seg_ns` after the previous one (counting from `posted_ns`);
  // whoever holds the mailbox lock drains the visible-but-uncopied prefix
  // into the paired receive. seg_ns == 0 on plain (non-pipelined) descs.
  // All fields below are guarded by the owning Mailbox::mu.
  u64 seg_ns = 0;                // per-segment wire cost; 0 = not pipelined
  u64 posted_ns = 0;             // injection timestamp (now_ns clock)
  size_t chunk = 0;              // segment size in bytes
  size_t copied = 0;             // bytes already drained into the sink
  std::shared_ptr<RecvDesc> sink;  // paired receive, set on match
};

/// What a completed receive got: a truncated one (the message was larger
/// than the buffer) holds the first `capacity` bytes and is an error.
struct RecvResult {
  Status status;
  bool truncated = false;
};

struct RecvDesc {
  i32 comm_id = 0;
  int src = kAnySource;
  int tag = kAnyTag;
  u8* dst = nullptr;
  size_t capacity = 0;
  /// Set under the box lock, after `result`; atomic so a poll can see it
  /// without the lock.
  std::atomic<bool> done{false};
  RecvResult result;
};

/// One per world rank: incoming traffic addressed to that rank.
struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::shared_ptr<SendDesc>> unexpected;
  std::deque<std::shared_ptr<RecvDesc>> posted;
  /// Matched pipelined sends still streaming segments into their sink.
  /// Any rank that takes `mu` pumps these (pump under lock is cheap: at
  /// most a memcpy of the newly visible prefix).
  std::deque<std::shared_ptr<SendDesc>> draining;
  /// Bumped before every cv notify: deliveries into this box and
  /// completions of sends its rank posted. A rank parked in
  /// Rank::poll_with_progress waits for this to move.
  std::atomic<u64> wakes{0};
};

struct CommData {
  i32 id = kCommNull;
  std::vector<int> world_ranks;  // comm rank -> world rank
  int my_comm_rank = -1;
  /// Shared-memory collective state of this communicator (null when the
  /// shm collective path is disabled). All member ranks share one object.
  std::shared_ptr<CollectiveContext> coll;
  /// Nonblocking-collective sequence number: every rank initiates
  /// collectives on a communicator in the same order (MPI requirement), so
  /// the per-rank counters agree and derive matching schedule tag strides.
  i64 icoll_seq = 0;
  /// Collective schedules kept for reuse (coll::Schedule::acquire): one
  /// for the blocking call in progress plus a few outstanding nonblocking
  /// ones; further concurrent schedules are not kept. Bound to this
  /// CommData: a copy must drop them.
  static constexpr size_t kPooledSchedules = 4;
  std::vector<std::shared_ptr<coll::Schedule>> schedules;
  /// Autotuner call counters, keyed by (collective, size-bin, comm-size)
  /// packed key. Per-rank but consistent across the communicator by MPI's
  /// matching-call-order requirement, so every rank explores the same
  /// candidate on the same call — a rank-divergent pick would deadlock.
  std::map<u64, u64> tune_calls;
  /// Per-rank cache of final (post-exploration) autotune choices. Once the
  /// tuner hands back a non-exploring answer it is permanent for the run
  /// (winners are write-once), so later calls on this key skip the tuner's
  /// mutex entirely — with every rank of an oversubscribed host taking
  /// that mutex per collective call, the convoy costs more than a small
  /// collective itself.
  std::map<u64, CollAlgo> tune_locked;
};

}  // namespace detail

/// The one wait policy of simmpi: spin, then yield, then park. A wait with
/// a notifier (a p2p wait, a wait that drives schedules) calls spin() once
/// per idle round. While the world's ranks fit the CPUs of the affinity
/// mask and no rank runs more than one thread, spin() pause-spins on the
/// mailbox's wake count, which one delivering peer bumps. Otherwise it
/// yields: a spinner would hold the CPU of the very rank it waits for.
/// Once kSpinBudgetNs pass without the count moving or the wait reporting
/// progress, spin() returns false and the wait parks on the mailbox's cv.
/// A shm barrier has no notifier and yields every round: its epoch shares
/// one word with the arrival count that every arriving rank writes, and
/// spinning readers of that word slow the writes. A 4-rank barrier on a
/// 4-vCPU VM took 0.95 us with pause-spinning waiters and 0.66 us with
/// yielding ones (2 ranks: 0.33 us either way). The policy also runs the
/// deadlock watchdog (kDeadlockTimeout) from its start.
class WaitPolicy {
 public:
  /// How long a wait spins or yields without progress before it parks. A
  /// futex park and wake costs ~6 us a PingPong leg on a 4-vCPU VM (7.9 us
  /// a leg parking at once, ~2.5 us spinning). perfbench hpcg small_lat_us
  /// (medians of 4 runs) was 2.32, 2.34 and 2.39 us at 20, 50 and 200 us
  /// budgets, against 3.62 us parking at once: any budget well above one
  /// leg serves, and the middle one bounds the CPU a wait that ends up
  /// parking burns. It is time, not a count of pauses, because `pause`
  /// costs 10 to 140 cycles depending on the CPU generation.
  static constexpr u64 kSpinBudgetNs = 50'000;

  /// Whether waits in a world of `ranks` ranks on `cpus` CPUs pause-spin
  /// (true) or yield. `threaded` worlds run more threads than ranks.
  static bool spins(int ranks, u32 cpus, bool threaded) {
    return !threaded && u32(ranks) <= cpus;
  }

  /// A wait with a notifier in `world`: spins or yields by spins().
  explicit WaitPolicy(const World& world);
  /// A wait that nothing notifies (a shm barrier): spin() only yields.
  WaitPolicy() : WaitPolicy(false) {}
  /// Starts the budget over: the wait's last pass made progress.
  void progressed() { budget_end_ = now_ns() + kSpinBudgetNs; }
  /// One idle round: false once the budget is spent (the caller parks).
  /// Otherwise pause-spins until `moved()` holds or kPausesPerCheck
  /// pauses pass, or yields once, and returns true; `moved()` holding
  /// restarts the budget.
  template <typename Moved>
  bool spin(Moved moved) {
    if (now_ns() >= budget_end_) return false;
    if (spin_) {
      for (int i = 0; i < kPausesPerCheck && !moved(); ++i) cpu_relax();
    } else {
      std::this_thread::yield();
    }
    if (moved()) progressed();
    return true;
  }
  /// The deadlock watchdog: true once the wait has lasted kDeadlockTimeout.
  bool expired() const { return now_ns() > deadline_; }

 private:
  explicit WaitPolicy(bool spin);
  /// Pauses between two reads of the clock: 0.2-3 us, depending on what
  /// `pause` costs on the CPU.
  static constexpr int kPausesPerCheck = 64;
  static void cpu_relax() {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  bool spin_;
  u64 budget_end_;
  u64 deadline_;
};

/// Per-communicator shared-memory collective state: a table of the buffers
/// each comm rank exposes to its peers for the current call, plus a
/// sense-reversing (epoch) barrier. All ranks of a World share one address
/// space, so the kShm collectives (coll_algos.cc) read their peers' buffers
/// in place, at any message size, bypassing the mailbox path entirely. This
/// is the in-process form of the single-copy intra-node collectives that
/// production MPIs build on XPMEM or CMA.
///
/// Protocol of one call: a rank writes its own entry (publish), then enters
/// the opening barrier; peers read that entry, and the buffers it names,
/// only after the barrier. A rank writes nothing a peer may still be
/// reading, and leaves the call (handing its buffers back to the caller),
/// reuses its entry or resizes its scratch only after the barrier that ends
/// those reads. The barrier is lock-free: a central arrival counter whose
/// last arriver resets it and publishes a new epoch, both in one word. The
/// acq_rel RMW chain on that word plus the acquire load of the epoch orders
/// every "publish before read" and every "read before reuse" (the CI
/// ThreadSanitizer job checks this).
///
/// Leaving early: only the opening barrier may give up (on an abort, the
/// deadlock watchdog or an error from nonblocking progress), and only after
/// withdrawing its arrival, so that barrier cannot complete and no peer
/// reads this rank's entry. Once it has completed every rank is in the call
/// and reaches each later barrier, so those never give up (barrier_hold).
class CollectiveContext {
 public:
  /// What one rank exposes for the current call.
  struct Exposed {
    /// The buffer peers read in the first phase, and its byte extent: no
    /// direct read goes past data + bytes.
    const u8* data = nullptr;
    size_t bytes = 0;
    /// A second-phase buffer (a reduction's chunk), read after the next
    /// barrier, with its extent.
    const u8* out = nullptr;
    size_t out_bytes = 0;
    /// What every rank must agree on for the reads to stay inside the
    /// extents: the per-rank payload in bytes and the root (-1 = none).
    size_t payload = 0;
    int root = -1;
    bool operator==(const Exposed&) const = default;
  };

  explicit CollectiveContext(int nranks);

  int nranks() const { return nranks_; }
  /// Leaves an unchanged entry unwritten, so that the peers' cached copies
  /// of it stay valid across a loop of calls on the same buffers.
  void publish(int comm_rank, const Exposed& e) {
    Exposed& mine = entries_[size_t(comm_rank)].exposed;
    if (!(mine == e)) mine = e;
  }
  const Exposed& exposed(int comm_rank) const {
    return entries_[size_t(comm_rank)].exposed;
  }
  /// The owner's staging buffer of at least `bytes` bytes, reused across
  /// calls. Only its owner calls this, before it publishes, so no peer is
  /// reading it.
  u8* scratch(int comm_rank, size_t bytes);
  /// Frees the owner's scratch if it is larger than kKeptScratch, so a
  /// large staged call holds its buffer for that call only. The owner calls
  /// this after the barrier that ends the peers' reads of it.
  void release_scratch(int comm_rank);
  /// Covers the staging of a whole (unchunked) reduction, so that small
  /// calls in a loop allocate nothing.
  static constexpr size_t kKeptScratch = 8 * 1024;

  /// The opening barrier of a call, and the whole of a barrier: blocks
  /// until all nranks ranks arrive. Throws MpiAbort if the world aborts,
  /// MpiError on the deadlock-watchdog timeout, and whatever progressing
  /// this rank's nonblocking collectives throws, each time after
  /// withdrawing its arrival. If the barrier completes first it returns.
  void barrier_wait(World& world);
  /// A barrier after a completed opening barrier of the same call: every
  /// rank reaches it, so it waits without giving up and never throws. A
  /// rank leaving here would hand back buffers peers may still be reading;
  /// if the watchdog fires anyway, the process aborts.
  void barrier_hold();

 private:
  /// Counts this rank in at `*epoch`; true when it completed the barrier.
  bool arrive(u32* epoch);
  /// Takes back this rank's arrival at `epoch`; false when the barrier has
  /// completed or its last arriver is completing it.
  bool withdraw(u32 epoch);
  u32 epoch() const {
    return u32(state_.load(std::memory_order_acquire) >> 32);
  }

  /// One cache line (at least) per rank: publishing writes only the
  /// publisher's own line.
  struct alignas(64) Entry {
    Exposed exposed;
    std::unique_ptr<u8[]> scratch;  // uninitialized: always written first
    size_t scratch_bytes = 0;
  };
  int nranks_;
  /// epoch << 32 | ranks arrived in that epoch.
  std::atomic<u64> state_{0};
  std::vector<Entry> entries_;
};

/// One outstanding nonblocking-collective's shared-memory fan-in state:
/// per-rank payload slots plus a single-use two-phase counting barrier.
/// Unlike the reusable CollectiveContext barrier, groups are created per
/// (communicator, sequence) pair by World::attach_icoll_group, so schedules
/// progressed in different orders on different ranks can never mix
/// arrivals. Slot writes happen-before the release increment of arrive();
/// readers observe them through the acquire load in arrived_all().
class IcollShmGroup {
 public:
  IcollShmGroup(int nranks, size_t slot_bytes)
      : nranks_(nranks), slots_(size_t(nranks)) {
    for (auto& s : slots_) s.resize(slot_bytes > 0 ? slot_bytes : 1);
  }
  int nranks() const { return nranks_; }
  u8* slot(int comm_rank) { return slots_[size_t(comm_rank)].data(); }
  void arrive(int phase) {
    arrived_[phase].fetch_add(1, std::memory_order_release);
  }
  bool arrived_all(int phase) const {
    return arrived_[phase].load(std::memory_order_acquire) == nranks_;
  }

 private:
  int nranks_;
  std::vector<std::vector<u8>> slots_;
  std::atomic<int> arrived_[2] = {};
};

/// Nonblocking operation handle.
class Request {
 public:
  Request() = default;
  bool valid() const { return kind_ != Kind::kNone; }

 private:
  friend class Rank;
  enum class Kind { kNone, kSend, kRecv, kColl };
  Kind kind_ = Kind::kNone;
  std::shared_ptr<detail::SendDesc> send;
  /// Null for a receive that matched a queued message when it was posted:
  /// it is complete, and `result` holds what it got.
  std::shared_ptr<detail::RecvDesc> recv;
  detail::RecvResult result;
  /// Deferred collective schedule (coll_sched.h); wait/test drive the
  /// per-rank progress engine until it completes.
  std::shared_ptr<coll::Schedule> coll;
  detail::Mailbox* box = nullptr;  // box whose cv signals completion
};

/// Per-rank MPI context; the API mirrors the MPI-2.2 subset MPIWasm
/// implements (paper §3.1). Historically one thread per rank; with the
/// threads proposal a rank's guest threads all funnel into the same Rank
/// (MPI_THREAD_MULTIPLE), so the p2p/collective entry points are safe for
/// concurrent same-rank callers: mailbox state is guarded by Mailbox::mu,
/// the nonblocking-collective schedule list by icoll_mu_, and the
/// communicator table by comms_mu_. Spawned guest threads must call
/// World::bind_current before their first MPI call.
class Rank {
 public:
  ~Rank();
  int rank(Comm comm = kCommWorld) const;
  int size(Comm comm = kCommWorld) const;
  int world_rank() const { return world_rank_; }

  // --- Point-to-point ------------------------------------------------------
  void send(const void* buf, int count, Datatype type, int dest, int tag,
            Comm comm = kCommWorld);
  Status recv(void* buf, int count, Datatype type, int source, int tag,
              Comm comm = kCommWorld);
  Request isend(const void* buf, int count, Datatype type, int dest, int tag,
                Comm comm = kCommWorld);
  Request irecv(void* buf, int count, Datatype type, int source, int tag,
                Comm comm = kCommWorld);
  Status wait(Request& req);
  bool test(Request& req, Status* status);
  void waitall(std::span<Request> reqs);
  /// MPI_Waitany: blocks until some request in `reqs` completes, resets it,
  /// and returns its index; -1 when every request is inactive.
  int waitany(std::span<Request> reqs, Status* status = nullptr);
  /// MPI_Testall: true (and all requests reset, statuses filled) only when
  /// every request has completed; otherwise no request is deallocated.
  bool testall(std::span<Request> reqs, Status* statuses = nullptr);
  /// MPI_Request_get_status: nondestructive completion check. Drives the
  /// nonblocking-collective progress engine but leaves `req` allocated.
  bool request_get_status(Request& req, Status* status = nullptr);
  /// MPI progress hook: advances every outstanding nonblocking-collective
  /// schedule without blocking. Compute loops overlapping a collective call
  /// this (or test()) periodically; blocking MPI calls invoke it
  /// opportunistically.
  void progress();
  /// Polls `pred` while driving the progress engine until it holds; throws
  /// MpiAbort on world abort, MpiError("<what> ...") on watchdog timeout.
  /// The shared body of every schedule-aware blocking wait (wait on a
  /// collective request; a blocking p2p collective, whose unregistered
  /// schedule `own` each pass also drives; waitany, the embedder's
  /// MPI_Waitany included; the comm_free drain). It waits by the
  /// WaitPolicy, watching this rank's mailbox: idle waits park on its cv.
  void poll_with_progress(const std::function<bool()>& pred, const char* what,
                          coll::Schedule* own = nullptr);
  Status sendrecv(const void* sendbuf, int sendcount, Datatype sendtype,
                  int dest, int sendtag, void* recvbuf, int recvcount,
                  Datatype recvtype, int source, int recvtag,
                  Comm comm = kCommWorld);
  /// Nonblocking probe-free message availability check (MPI_Iprobe).
  bool iprobe(int source, int tag, Comm comm, Status* status);

  // --- Collectives ---------------------------------------------------------
  void barrier(Comm comm = kCommWorld);
  void bcast(void* buf, int count, Datatype type, int root,
             Comm comm = kCommWorld);
  void reduce(const void* sendbuf, void* recvbuf, int count, Datatype type,
              ReduceOp op, int root, Comm comm = kCommWorld);
  void allreduce(const void* sendbuf, void* recvbuf, int count, Datatype type,
                 ReduceOp op, Comm comm = kCommWorld);
  void gather(const void* sendbuf, int sendcount, void* recvbuf, int recvcount,
              Datatype type, int root, Comm comm = kCommWorld);
  void scatter(const void* sendbuf, int sendcount, void* recvbuf,
               int recvcount, Datatype type, int root, Comm comm = kCommWorld);
  void allgather(const void* sendbuf, int sendcount, void* recvbuf,
                 int recvcount, Datatype type, Comm comm = kCommWorld);
  void alltoall(const void* sendbuf, int sendcount, void* recvbuf,
                int recvcount, Datatype type, Comm comm = kCommWorld);
  void alltoallv(const void* sendbuf, const int* sendcounts,
                 const int* sdispls, void* recvbuf, const int* recvcounts,
                 const int* rdispls, Datatype type, Comm comm = kCommWorld);
  /// MPI_Reduce_scatter: element-wise reduction of the concatenated send
  /// buffers, then block `i` (recvcounts[i] elements) lands on rank i.
  void reduce_scatter(const void* sendbuf, void* recvbuf,
                      const int* recvcounts, Datatype type, ReduceOp op,
                      Comm comm = kCommWorld);
  /// Inclusive prefix reduction over comm-rank order.
  void scan(const void* sendbuf, void* recvbuf, int count, Datatype type,
            ReduceOp op, Comm comm = kCommWorld);
  /// Exclusive prefix reduction; recvbuf is left untouched on rank 0.
  void exscan(const void* sendbuf, void* recvbuf, int count, Datatype type,
              ReduceOp op, Comm comm = kCommWorld);

  // --- Nonblocking collectives (schedule-based; coll_sched.h) --------------
  // Each call picks a registry algorithm via coll::select, builds the same
  // step schedule a blocking call runs, and returns a request that
  // wait/test/waitall/waitany/testall drive to completion. Buffers must
  // stay valid and untouched until the request completes.
  Request ibarrier(Comm comm = kCommWorld);
  Request ibcast(void* buf, int count, Datatype type, int root,
                 Comm comm = kCommWorld);
  Request ireduce(const void* sendbuf, void* recvbuf, int count, Datatype type,
                  ReduceOp op, int root, Comm comm = kCommWorld);
  Request iallreduce(const void* sendbuf, void* recvbuf, int count,
                     Datatype type, ReduceOp op, Comm comm = kCommWorld);
  Request iallgather(const void* sendbuf, int sendcount, void* recvbuf,
                     int recvcount, Datatype type, Comm comm = kCommWorld);
  Request ialltoall(const void* sendbuf, int sendcount, void* recvbuf,
                    int recvcount, Datatype type, Comm comm = kCommWorld);
  Request ireduce_scatter(const void* sendbuf, void* recvbuf,
                          const int* recvcounts, Datatype type, ReduceOp op,
                          Comm comm = kCommWorld);
  Request iscan(const void* sendbuf, void* recvbuf, int count, Datatype type,
                ReduceOp op, Comm comm = kCommWorld);
  Request iexscan(const void* sendbuf, void* recvbuf, int count, Datatype type,
                  ReduceOp op, Comm comm = kCommWorld);

  // --- Communicator management --------------------------------------------
  Comm comm_dup(Comm comm);
  Comm comm_split(Comm comm, int color, int key);
  void comm_free(Comm comm);

  // --- Environment ---------------------------------------------------------
  f64 wtime() const;
  /// MPI_Wtick: resolution of wtime() (nanosecond-backed monotonic clock).
  f64 wtick() const { return 1e-9; }
  [[noreturn]] void abort(int code, Comm comm = kCommWorld);
  World& world() { return *world_; }

 private:
  friend class World;
  friend class coll::Schedule;  // schedule steps use the internal p2p paths
  friend class CollectiveContext;  // its barrier progresses icolls
  Rank(World* world, int world_rank);

  const detail::CommData& comm_data(Comm comm) const;
  detail::CommData& comm_data_mut(Comm comm);
  /// Internal nonblocking send; `charge_wire` false defers the interconnect
  /// cost to the caller (schedule steps model it as a completion deadline
  /// instead of an injection spin).
  Request isend_internal(const void* buf, size_t bytes, int dest, int tag,
                         const detail::CommData& c, bool charge_wire);
  /// Internal nonblocking receive matching only `tag` (collective traffic
  /// must never match concurrently in-flight user messages).
  Request irecv_internal(void* buf, size_t bytes, int source, int tag,
                         const detail::CommData& c);
  /// The one receive routine; the caller holds box.mu (this rank's box).
  /// Consumes the oldest matching queued message at once, without a
  /// descriptor, or posts a RecvDesc (a pipelined match drains into one).
  Request match_or_post(detail::Mailbox& box, void* buf, size_t bytes,
                        int source, int tag, const detail::CommData& c);
  /// The one completion check of a p2p request: drains the due segments
  /// of its box's pipelined transfers, then reads whether it completed.
  /// Caller holds req.box->mu.
  static bool p2p_done(const Request& req);
  /// p2p_done under the box lock, skipped for a completed receive. With
  /// `try_lock` a contended lock reports "not done" instead of blocking.
  static bool test_p2p(const Request& req, bool try_lock);
  /// Blocks until p2p request `req` completes, then finishes it. `lock`
  /// holds req.box->mu. Waits by the WaitPolicy on that box's wakes and
  /// cv, and keeps outstanding schedules progressing meanwhile: without
  /// that, a rank stuck in a blocking call could starve a peer waiting on
  /// this rank's share of a nonblocking collective.
  Status await_p2p(Request& req, std::unique_lock<std::mutex>& lock,
                   const char* what);
  /// What completed request `req` received (empty unless a receive).
  static detail::RecvResult result_of(const Request& req);
  /// Resets completed request `req` and returns its status; throws
  /// MpiError("<what>: message truncated ...") for a truncated receive.
  static Status finish(Request& req, const char* what);
  void check_user_tag(int tag) const;
  /// Whether a schedule send of `bytes` takes the segmented pipelined
  /// rendezvous path (single copy, per-segment deadlines) instead of the
  /// buffered eager path. Schedule::advance consults this to decide whether
  /// a send step needs its own completion deadline.
  bool sched_send_pipelined(size_t bytes) const;
  /// Nonblocking variant of test() for the progress engine: if the
  /// request's mailbox lock is contended, reports "not done" instead of
  /// blocking — a progress pass must never park on a mutex whose holder is
  /// descheduled (that serializes scheduler latency into the caller's
  /// compute stream on oversubscribed hosts).
  bool test_nonblocking(Request& req);

  /// Registers a freshly built schedule, kicks its first progress pass, and
  /// wraps it into a kColl request.
  Request start_icoll(std::shared_ptr<coll::Schedule> sched);
  /// Advances every outstanding schedule once. Reentrancy-guarded (schedule
  /// steps call test() which hooks progress) and cross-thread safe: a second
  /// guest thread finding icoll_mu_ held skips the pass — the holder is
  /// already progressing on this rank's behalf.
  bool icoll_progress();  // true when any schedule step completed
  /// Cheap entry-point hook: progress only when something is outstanding.
  void maybe_icoll_progress() {
    if (icoll_pending()) icoll_progress();
  }
  bool icoll_pending() const {
    return icoll_count_.load(std::memory_order_relaxed) != 0;
  }

  World* world_ = nullptr;
  int world_rank_ = 0;
  /// Guards the communicator table's *structure* (MPI_THREAD_MULTIPLE:
  /// another guest thread of this rank may dup/split/free concurrently).
  /// std::map node stability keeps returned CommData references valid
  /// across unrelated insertions; MPI forbids using a comm concurrently
  /// with freeing it.
  mutable std::shared_mutex comms_mu_;
  std::map<Comm, detail::CommData> comms_;
  i32 next_local_comm_slot_ = 1;  // guarded by comms_mu_
  /// Outstanding nonblocking-collective schedules, in initiation order.
  /// Guarded by icoll_mu_ (recursive: progress passes re-enter through
  /// test()); icoll_count_ mirrors the size so hot entry points can skip
  /// the lock when nothing is outstanding.
  std::recursive_mutex icoll_mu_;
  std::vector<std::shared_ptr<coll::Schedule>> icoll_active_;
  std::atomic<size_t> icoll_count_{0};
  bool icoll_in_progress_ = false;  // same-thread reentrancy guard
};

/// A simulated MPI job: N rank threads over an interconnect profile.
class World {
 public:
  World(int size, NetworkProfile profile = NetworkProfile::zero(),
        CollTuning coll = CollTuning::from_env());
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return size_; }
  const NetworkProfile& profile() const { return profile_; }
  const CollTuning& coll_tuning() const { return coll_; }
  /// Online collective-selection autotuner; null when tuning.autotune is
  /// off. Loaded from / persisted to tuning.autotune_file when set.
  coll::Autotuner* tuner() const { return tuner_.get(); }

  /// Runs `fn(rank)` on `size` threads (one per rank) and joins them.
  /// The first exception thrown by any rank is rethrown here; an MPI_Abort
  /// maps to MpiError carrying the abort code.
  void run(const std::function<void(Rank&)>& fn);

  /// Current thread's Rank context (valid only inside run()).
  static Rank* current();
  /// Binds the calling thread to `rank`'s context. Guest threads spawned by
  /// the embedder (wasi thread-spawn) inherit their parent rank with this
  /// before their first MPI call; pass null on thread exit.
  static void bind_current(Rank* rank);

  /// Marks the world as having multiple guest threads per rank
  /// (MPI_THREAD_MULTIPLE). Blocking waits then use bounded cv quanta so a
  /// sibling thread's newly initiated work is picked up promptly instead of
  /// sleeping until a mailbox notify. Sticky for the world's lifetime.
  void set_threaded() { threaded_.store(true, std::memory_order_relaxed); }
  bool threaded() const { return threaded_.load(std::memory_order_relaxed); }

  // --- internals used by Rank ---------------------------------------------
  detail::Mailbox& box(int world_rank) { return *boxes_[world_rank]; }
  i32 alloc_comm_ids(i32 n);
  bool aborting() const { return abort_flag_; }
  void request_abort(int code);

  /// Attaches the calling rank to the shared CollectiveContext of comm
  /// `comm_id` (first attacher creates it for `nranks` ranks). Every
  /// member rank of a communicator attaches exactly once. Returns null
  /// when the shm path is disabled or the profile forbids zero-copy
  /// handoff (force_copy).
  std::shared_ptr<CollectiveContext> attach_coll(i32 comm_id, int nranks);
  /// Releases one attachment; the context is destroyed when the last
  /// member rank releases it (comm_free).
  void release_coll(i32 comm_id);

  /// Attaches the calling rank to the single-use shared-memory group of
  /// nonblocking collective (comm_id, seq); the first attacher creates it.
  std::shared_ptr<IcollShmGroup> attach_icoll_group(i32 comm_id, i64 seq,
                                                    int nranks,
                                                    size_t slot_bytes);
  /// Releases one attachment (schedule teardown); the group is destroyed
  /// when the last member rank releases it.
  void release_icoll_group(i32 comm_id, i64 seq);

 private:
  friend class Rank;
  int size_;
  NetworkProfile profile_;
  CollTuning coll_;
  std::unique_ptr<coll::Autotuner> tuner_;
  std::vector<std::unique_ptr<detail::Mailbox>> boxes_;
  std::atomic<i32> next_comm_id_{1};
  std::atomic<bool> abort_flag_{false};
  std::atomic<int> abort_code_{0};
  std::atomic<bool> threaded_{false};

  struct CollEntry {
    std::shared_ptr<CollectiveContext> ctx;
    int attached = 0;
  };
  std::mutex coll_mu_;
  std::map<i32, CollEntry> coll_ctxs_;

  struct IcollEntry {
    std::shared_ptr<IcollShmGroup> group;
    int attached = 0;
  };
  std::mutex icoll_mu_;
  std::map<std::pair<i32, i64>, IcollEntry> icoll_groups_;
};

}  // namespace mpiwasm::simmpi
