#include "simmpi/world.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "simmpi/coll_sched.h"
#include "simmpi/coll_tune.h"
#include "support/log.h"
#include "support/parallel.h"
#include "support/timing.h"
#include "support/trace.h"

namespace mpiwasm::simmpi {

namespace {

thread_local Rank* tl_current_rank = nullptr;

constexpr u64 kBlockTimeoutNs =
    u64(std::chrono::nanoseconds(kDeadlockTimeout).count());

u32 host_cpus() {
  static const u32 cpus = affinity_cpus();
  return cpus;
}

/// MPI matching of a message (msg_comm, msg_src, msg_tag) against a
/// receive's selector (comm, source, tag). kAnyTag matches user tags only:
/// collective traffic shares the communicator under negative tags and must
/// never land in a wildcard user receive.
bool matches(i32 comm, int source, int tag, i32 msg_comm, int msg_src,
             int msg_tag) {
  return comm == msg_comm && (source == kAnySource || source == msg_src) &&
         (tag == kAnyTag ? msg_tag >= 0 : tag == msg_tag);
}

/// The oldest queued message a receive (comm_id, source, tag) matches, or
/// box.unexpected.end(). Caller holds box.mu.
auto find_unexpected(detail::Mailbox& box, i32 comm_id, int source, int tag) {
  return std::find_if(box.unexpected.begin(), box.unexpected.end(),
                      [&](const auto& s) {
                        return matches(comm_id, source, tag, s->comm_id,
                                       s->src_comm_rank, s->tag);
                      });
}

/// Finds and removes the oldest posted receive that a message
/// (comm_id, src_comm_rank, tag) matches; null when none is posted. Caller
/// holds box.mu.
std::shared_ptr<detail::RecvDesc> take_posted_match(detail::Mailbox& box,
                                                    i32 comm_id,
                                                    int src_comm_rank,
                                                    int tag) {
  auto it = std::find_if(box.posted.begin(), box.posted.end(),
                         [&](const auto& r) {
                           return matches(r->comm_id, r->src, r->tag, comm_id,
                                          src_comm_rank, tag);
                         });
  if (it == box.posted.end()) return nullptr;
  auto found = std::move(*it);
  box.posted.erase(it);
  return found;
}

/// Copies a `bytes`-byte message into a receive buffer of `capacity` bytes.
/// The one truncation rule: the first min(bytes, capacity) bytes arrive,
/// and the receive is truncated (an error when it completes) if the message
/// is larger.
detail::RecvResult deliver(u8* dst, size_t capacity, const u8* src,
                           size_t bytes, int src_comm_rank, int tag) {
  const size_t n = std::min(bytes, capacity);
  // A zero-length message may carry null buffers on both sides; memcpy
  // requires valid pointers even for n == 0.
  if (n > 0) std::memcpy(dst, src, n);
  return {Status{src_comm_rank, tag, n}, bytes > capacity};
}

/// Wakes everything waiting on `box`: waits spinning on its wake count
/// and waits parked on its cv. Caller holds box.mu.
void notify(detail::Mailbox& box) {
  box.wakes.fetch_add(1, std::memory_order_relaxed);
  box.cv.notify_all();
}

/// Marks a rendezvous send complete and wakes the rank that posted it,
/// which may be parked on its own mailbox. The caller holds the receiver's
/// box.mu; taking the sender's as well could deadlock against a transfer in
/// the opposite direction, so this wake does not lock. A wake racing the
/// parked rank's predicate check is lost; the park's timeout bounds that.
void complete_send(detail::SendDesc& s) {
  s.completed = true;
  if (s.sender_box == nullptr) return;
  s.sender_box->wakes.fetch_add(1, std::memory_order_relaxed);
  s.sender_box->cv.notify_all();
}

/// Completes posted receive `r` with a single direct copy from the
/// sender's buffer. Caller holds box.mu.
void deliver_now(detail::Mailbox& box, detail::RecvDesc& r, const void* buf,
                 size_t bytes, int src_comm_rank, int tag) {
  r.result = deliver(r.dst, r.capacity, static_cast<const u8*>(buf), bytes,
                     src_comm_rank, tag);
  r.done = true;
  notify(box);
}

/// Drains every matched pipelined send: copies the segments whose wire
/// deadline has passed into the paired receive and completes fully-arrived
/// transfers. Caller holds box.mu; cheap when nothing new is visible.
void pump_pipelines(detail::Mailbox& box) {
  bool completed_any = false;
  for (auto it = box.draining.begin(); it != box.draining.end();) {
    detail::SendDesc& s = **it;
    detail::RecvDesc& r = *s.sink;
    size_t avail = s.bytes;
    if (s.seg_ns > 0) {
      const u64 segs = (now_ns() - s.posted_ns) / s.seg_ns;
      avail = size_t(std::min<u64>(s.bytes, segs * u64(s.chunk)));
    }
    const size_t limit = std::min(avail, r.capacity);
    if (limit > s.copied) {
      MW_TRACE_INSTANT("rndv", "rndv.segment", "drained", i64(limit - s.copied),
                       "total", i64(s.bytes));
      std::memcpy(r.dst + s.copied, s.payload + s.copied, limit - s.copied);
      s.copied = limit;
    }
    if (avail >= s.bytes) {
      r.result = {Status{s.src_comm_rank, s.tag, limit}, s.bytes > r.capacity};
      r.done = true;
      complete_send(s);
      it = box.draining.erase(it);
      completed_any = true;
    } else {
      ++it;
    }
  }
  if (completed_any) notify(box);
}

}  // namespace

// ---------------------------------------------------------------------------
// WaitPolicy
// ---------------------------------------------------------------------------

WaitPolicy::WaitPolicy(bool spin) : spin_(spin) {
  const u64 now = now_ns();
  budget_end_ = now + kSpinBudgetNs;
  deadline_ = now + kBlockTimeoutNs;
}

WaitPolicy::WaitPolicy(const World& world)
    : WaitPolicy(spins(world.size(), host_cpus(), world.threaded())) {}

// ---------------------------------------------------------------------------
// CollectiveContext
// ---------------------------------------------------------------------------

CollectiveContext::CollectiveContext(int nranks)
    : nranks_(nranks), entries_(size_t(nranks)) {}

u8* CollectiveContext::scratch(int comm_rank, size_t bytes) {
  Entry& e = entries_[size_t(comm_rank)];
  if (e.scratch_bytes < bytes) {
    e.scratch.reset(new u8[bytes]);
    e.scratch_bytes = bytes;
  }
  return e.scratch.get();
}

void CollectiveContext::release_scratch(int comm_rank) {
  Entry& e = entries_[size_t(comm_rank)];
  if (e.scratch_bytes > kKeptScratch) {
    e.scratch.reset();
    e.scratch_bytes = 0;
  }
}

// Central-counter barrier with the epoch acting as the reversed sense: the
// last arriver resets the count and publishes a new epoch in one release
// store. The acq_rel RMW chain on state_ plus the acquire load of the epoch
// makes every pre-barrier write (a published entry, a reduced chunk)
// happen-before every post-barrier read of it, and every pre-barrier read
// happen-before every post-barrier overwrite.

bool CollectiveContext::arrive(u32* epoch) {
  const u64 s = state_.fetch_add(1, std::memory_order_acq_rel);
  *epoch = u32(s >> 32);
  if (u32(s) + 1 != u32(nranks_)) return false;
  // Nothing else writes a full count: no rank withdraws from it, and the
  // next epoch's arrivals wait for this store.
  state_.store(u64(*epoch + 1) << 32, std::memory_order_release);
  return true;
}

bool CollectiveContext::withdraw(u32 epoch) {
  u64 s = state_.load(std::memory_order_acquire);
  while (u32(s >> 32) == epoch && u32(s) < u32(nranks_)) {
    if (state_.compare_exchange_weak(s, s - 1, std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      return true;
  }
  return false;
}

void CollectiveContext::barrier_wait(World& world) {
  u32 my_epoch;
  if (arrive(&my_epoch)) return;
  WaitPolicy wait;  // nothing notifies a barrier: it only yields
  const auto passed = [&] { return epoch() != my_epoch; };
  while (!passed()) {
    if (!wait.spin(passed)) std::this_thread::yield();
    Rank* r = World::current();
    const bool timed_out = wait.expired();
    // A peer may be unable to reach this barrier until our outstanding
    // nonblocking-collective schedules advance.
    if (world.aborting() || timed_out || (r != nullptr && r->icoll_pending())) {
      // Withdrawn, this rank may leave or run arbitrary progress code: the
      // barrier cannot complete without it, so no peer starts reading its
      // entry. If it completed meanwhile, the call goes on.
      if (!withdraw(my_epoch)) continue;
      if (world.aborting()) throw MpiAbort(-1);
      if (timed_out) throw MpiError("shm barrier timed out (deadlock?)");
      r->progress();
      if (arrive(&my_epoch)) return;
    }
  }
}

void CollectiveContext::barrier_hold() {
  u32 my_epoch;
  if (arrive(&my_epoch)) return;
  WaitPolicy wait;
  const auto passed = [&] { return epoch() != my_epoch; };
  while (!passed()) {
    if (!wait.spin(passed)) std::this_thread::yield();
    if (wait.expired()) {
      MW_ERROR("shm barrier inside a collective timed out: a rank left "
               "the call while its peers could read its buffers");
      std::abort();
    }
  }
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

World::World(int size, NetworkProfile profile, CollTuning coll)
    : size_(size), profile_(std::move(profile)), coll_(std::move(coll)) {
  MW_CHECK(size >= 1, "world size must be >= 1");
  boxes_.reserve(size_);
  for (int i = 0; i < size_; ++i)
    boxes_.push_back(std::make_unique<detail::Mailbox>());
  if (coll_.autotune) {
    tuner_ = std::make_unique<coll::Autotuner>(coll::Autotuner::host_signature(
        int(std::thread::hardware_concurrency()), profile_.name, size_));
    if (!coll_.autotune_file.empty()) tuner_->load(coll_.autotune_file);
  }
}

World::~World() {
  // Persist freshly locked winners so the next run starts tuned.
  if (tuner_ != nullptr && tuner_->dirty() && !coll_.autotune_file.empty())
    tuner_->save(coll_.autotune_file);
}

i32 World::alloc_comm_ids(i32 n) { return next_comm_id_.fetch_add(n); }

std::shared_ptr<CollectiveContext> World::attach_coll(i32 comm_id,
                                                      int nranks) {
  // No context when the shm path is off, or when the profile models a
  // messaging layer that copies every payload (force_copy): a direct read
  // of a peer's buffer is exactly the zero-copy handoff it forbids.
  if (!coll_.enable_shm || profile_.force_copy) return nullptr;
  std::lock_guard<std::mutex> lock(coll_mu_);
  CollEntry& e = coll_ctxs_[comm_id];
  if (e.ctx == nullptr) e.ctx = std::make_shared<CollectiveContext>(nranks);
  MW_CHECK(e.ctx->nranks() == nranks, "coll context size mismatch");
  ++e.attached;
  return e.ctx;
}

void World::release_coll(i32 comm_id) {
  std::lock_guard<std::mutex> lock(coll_mu_);
  auto it = coll_ctxs_.find(comm_id);
  if (it == coll_ctxs_.end()) return;
  if (--it->second.attached <= 0) coll_ctxs_.erase(it);
}

std::shared_ptr<IcollShmGroup> World::attach_icoll_group(i32 comm_id, i64 seq,
                                                         int nranks,
                                                         size_t slot_bytes) {
  std::lock_guard<std::mutex> lock(icoll_mu_);
  IcollEntry& e = icoll_groups_[{comm_id, seq}];
  if (e.group == nullptr)
    e.group = std::make_shared<IcollShmGroup>(nranks, slot_bytes);
  MW_CHECK(e.group->nranks() == nranks, "icoll group size mismatch");
  ++e.attached;
  return e.group;
}

void World::release_icoll_group(i32 comm_id, i64 seq) {
  std::lock_guard<std::mutex> lock(icoll_mu_);
  auto it = icoll_groups_.find({comm_id, seq});
  if (it == icoll_groups_.end()) return;
  if (--it->second.attached <= 0) icoll_groups_.erase(it);
}

void World::request_abort(int code) {
  abort_flag_ = true;
  abort_code_ = code;
  for (auto& b : boxes_) {
    std::lock_guard<std::mutex> lock(b->mu);
    notify(*b);
  }
}

Rank* World::current() { return tl_current_rank; }

void World::bind_current(Rank* rank) { tl_current_rank = rank; }

void World::run(const std::function<void(Rank&)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(size_);
  threads.reserve(size_);
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &fn, &errors] {
      Rank rank(this, r);
      tl_current_rank = &rank;
      try {
        fn(rank);
      } catch (const MpiAbort&) {
        // request_abort was already called; peers are unblocking.
      } catch (...) {
        errors[r] = std::current_exception();
        // Unblock peers that might be waiting on this rank forever.
        request_abort(-1);
      }
      tl_current_rank = nullptr;
    });
  }
  for (auto& t : threads) t.join();
  // Reset for potential reuse of the world object.
  bool aborted = abort_flag_.exchange(false);
  for (int r = 0; r < size_; ++r) {
    if (errors[r]) std::rethrow_exception(errors[r]);
  }
  if (aborted)
    throw MpiError("MPI_Abort called with code " +
                   std::to_string(abort_code_.load()));
}

// ---------------------------------------------------------------------------
// Rank: construction & communicators
// ---------------------------------------------------------------------------

Rank::Rank(World* world, int world_rank)
    : world_(world), world_rank_(world_rank) {
  detail::CommData w;
  w.id = kCommWorld;
  w.world_ranks.resize(world->size());
  for (int i = 0; i < world->size(); ++i) w.world_ranks[i] = i;
  w.my_comm_rank = world_rank;
  w.coll = world->attach_coll(kCommWorld, world->size());
  comms_[kCommWorld] = std::move(w);
}

Rank::~Rank() {
  // Worlds may be reused across run() calls; hand back every shm context
  // attachment so contexts of freed communicators do not accumulate.
  for (auto& [id, data] : comms_) {
    if (data.coll != nullptr) world_->release_coll(id);
  }
}

const detail::CommData& Rank::comm_data(Comm comm) const {
  // Shared lock protects the map structure only; node stability keeps the
  // returned reference valid while other guest threads dup/split.
  std::shared_lock<std::shared_mutex> lock(comms_mu_);
  auto it = comms_.find(comm);
  if (it == comms_.end() || it->second.my_comm_rank < 0)
    throw MpiError("invalid communicator handle " + std::to_string(comm));
  return it->second;
}

detail::CommData& Rank::comm_data_mut(Comm comm) {
  return const_cast<detail::CommData&>(comm_data(comm));
}

int Rank::rank(Comm comm) const { return comm_data(comm).my_comm_rank; }
int Rank::size(Comm comm) const {
  return int(comm_data(comm).world_ranks.size());
}

f64 Rank::wtime() const { return now_seconds(); }

void Rank::abort(int code, Comm) {
  MW_WARN("rank " << world_rank_ << " called MPI_Abort(" << code << ")");
  world_->request_abort(code);
  throw MpiAbort(code);
}

void Rank::check_user_tag(int tag) const {
  if (tag < 0 && tag != kAnyTag)
    throw MpiError("user tags must be non-negative (got " +
                   std::to_string(tag) + ")");
}

// ---------------------------------------------------------------------------
// Nonblocking-collective progress engine
// ---------------------------------------------------------------------------

bool Rank::icoll_progress() {
  if (icoll_count_.load(std::memory_order_relaxed) == 0) return false;
  // A sibling guest thread already progressing on this rank's behalf makes
  // a second concurrent pass pure contention: skip instead of blocking.
  // (Recursive mutex: the same thread re-acquires during its own pass.)
  std::unique_lock<std::recursive_mutex> guard(icoll_mu_, std::try_to_lock);
  if (!guard.owns_lock()) return false;
  // Same-thread reentrancy: schedule steps poll p2p requests through
  // test(), which itself hooks progress — without the flag that would
  // recurse.
  if (icoll_in_progress_ || icoll_active_.empty()) return false;
  icoll_in_progress_ = true;
  bool advanced = false;
  try {
    for (auto it = icoll_active_.begin(); it != icoll_active_.end();) {
      const int before = (*it)->remaining();
      if ((*it)->progress(*this)) {
        it = icoll_active_.erase(it);
        icoll_count_.fetch_sub(1, std::memory_order_relaxed);
        advanced = true;
      } else {
        advanced = advanced || (*it)->remaining() != before;
        ++it;
      }
    }
  } catch (...) {
    icoll_in_progress_ = false;
    throw;
  }
  icoll_in_progress_ = false;
  if (advanced)
    MW_TRACE_INSTANT("sched", "progress.wake", "active",
                     i64(icoll_active_.size()));
  return advanced;
}

void Rank::progress() { icoll_progress(); }

void Rank::poll_with_progress(const std::function<bool()>& pred,
                              const char* what, coll::Schedule* own) {
  WaitPolicy wait(*world_);
  detail::Mailbox& box = world_->box(world_rank_);
  while (true) {
    // Sampled before the pass, so a wake that lands during it ends the
    // spin or the park below at once.
    const u64 seen = box.wakes.load(std::memory_order_relaxed);
    bool advanced = icoll_progress();
    if (own != nullptr) {
      const int before = own->remaining();
      advanced = own->progress(*this) || own->remaining() != before ||
                 advanced;
    }
    if (advanced) wait.progressed();
    if (pred()) return;
    if (world_->aborting()) throw MpiAbort(-1);
    if (wait.expired())
      throw MpiError(std::string(what) + " timed out (deadlock?)");
    const auto woken = [&] {
      return box.wakes.load(std::memory_order_relaxed) != seen ||
             world_->aborting();
    };
    if (wait.spin(woken)) continue;
    // Deliveries into the box and completions of this rank's sends wake
    // the park at once. Its timeout covers progress that nothing notifies
    // (wire-time deadlines, pipelined segments, shm arrivals).
    std::unique_lock<std::mutex> lock(box.mu);
    box.cv.wait_for(lock, std::chrono::microseconds(50), woken);
  }
}

Request Rank::start_icoll(std::shared_ptr<coll::Schedule> sched) {
  Request req;
  req.kind_ = Request::Kind::kColl;
  req.coll = sched;
  {
    std::lock_guard<std::recursive_mutex> guard(icoll_mu_);
    icoll_active_.push_back(std::move(sched));
    icoll_count_.fetch_add(1, std::memory_order_relaxed);
  }
  // Kick the first wave (post initial sends/receives) so peers can match
  // and the wire-time deadlines start running before the caller computes.
  icoll_progress();
  return req;
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

// Blocking send and recv are their nonblocking twins run to completion:
// every send posts through isend_internal and every receive through
// match_or_post.

void Rank::send(const void* buf, int count, Datatype type, int dest, int tag,
                Comm comm) {
  check_user_tag(tag);
  if (count < 0) throw MpiError("send: negative count");
  maybe_icoll_progress();
  const detail::CommData& c = comm_data(comm);
  Request req = isend_internal(buf, size_t(count) * datatype_size(type), dest,
                               tag, c, /*charge_wire=*/true);
  if (!req.valid()) return;  // buffered or delivered: already complete
  std::unique_lock<std::mutex> lock(req.box->mu);
  await_p2p(req, lock, "send");
}

Status Rank::recv(void* buf, int count, Datatype type, int source, int tag,
                  Comm comm) {
  if (tag < 0 && tag != kAnyTag) throw MpiError("recv: invalid tag");
  if (count < 0) throw MpiError("recv: negative count");
  maybe_icoll_progress();
  const detail::CommData& c = comm_data(comm);
  detail::Mailbox& box = world_->box(world_rank_);
  // A posted receive is waited on under the lock that posted it.
  std::unique_lock<std::mutex> lock(box.mu);
  Request req = match_or_post(box, buf, size_t(count) * datatype_size(type),
                              source, tag, c);
  return await_p2p(req, lock, "recv");
}

Request Rank::isend(const void* buf, int count, Datatype type, int dest,
                    int tag, Comm comm) {
  check_user_tag(tag);
  if (count < 0) throw MpiError("isend: negative count");
  maybe_icoll_progress();
  const detail::CommData& c = comm_data(comm);
  return isend_internal(buf, size_t(count) * datatype_size(type), dest, tag, c,
                        /*charge_wire=*/true);
}

bool Rank::sched_send_pipelined(size_t bytes) const {
  // Mirror the blocking path's eager/rendezvous boundary: at or below the
  // eager limit a schedule send stays a buffered fire-and-forget copy (the
  // sender's step completes immediately, which keeps mid-size rounds
  // asynchronous); above it the transfer streams from the sender's buffer
  // in rendezvous_chunk segments with per-segment wire deadlines.
  const NetworkProfile& prof = world_->profile();
  return !prof.force_copy && bytes > prof.eager_limit;
}

Request Rank::isend_internal(const void* buf, size_t bytes, int dest, int tag,
                             const detail::CommData& c, bool charge_wire) {
  if (dest < 0 || dest >= int(c.world_ranks.size()))
    throw MpiError("send: destination rank out of range");
  const NetworkProfile& prof = world_->profile();
  // Model wire time at injection (deterministic spin; docs/ARCHITECTURE.md,
  // "src/simmpi").
  if (charge_wire) spin_for_ns(prof.message_cost_ns(bytes));
  // Schedule sends (wire cost deferred to a deadline) above the eager
  // threshold stream straight from the sender's buffer in rendezvous_chunk
  // segments: one copy instead of a staging copy plus a delivery copy, and
  // the receiver's progress engine drains segments as their per-segment
  // wire deadlines pass instead of paying one big copy at the end.
  const bool pipelined = !charge_wire && sched_send_pipelined(bytes);

  detail::Mailbox& box = world_->box(c.world_ranks[dest]);
  std::unique_lock<std::mutex> lock(box.mu);

  // A posted receive takes the payload straight from the sender's buffer
  // (single copy).
  auto posted = take_posted_match(box, c.id, c.my_comm_rank, tag);
  if (posted != nullptr && !pipelined) {
    deliver_now(box, *posted, buf, bytes, c.my_comm_rank, tag);
    return Request{};  // already complete (kind None == trivially done)
  }

  auto desc = std::make_shared<detail::SendDesc>();
  desc->comm_id = c.id;
  desc->src_comm_rank = c.my_comm_rank;
  desc->tag = tag;
  desc->bytes = bytes;
  desc->sender_box = &world_->box(world_rank_);
  Request req;
  req.kind_ = Request::Kind::kSend;
  req.box = &box;
  req.send = desc;
  if (pipelined) {
    desc->eager = false;
    desc->payload = static_cast<const u8*>(buf);
    desc->chunk = prof.rendezvous_chunk > 0
                      ? std::min(prof.rendezvous_chunk, bytes)
                      : bytes;
    desc->seg_ns = prof.message_cost_ns(desc->chunk);
    desc->posted_ns = now_ns();
    if (posted != nullptr) {
      desc->sink = std::move(posted);
      box.draining.push_back(desc);
      pump_pipelines(box);  // zero-cost profiles complete immediately
    } else {
      box.unexpected.push_back(desc);
    }
    notify(box);
    return req;
  }
  if (bytes <= prof.eager_limit || prof.force_copy) {
    desc->eager = true;
    desc->eager_buf.assign(static_cast<const u8*>(buf),
                           static_cast<const u8*>(buf) + bytes);
    desc->completed = true;  // buffered: sender side is done
    box.unexpected.push_back(std::move(desc));
    notify(box);
    // A buffered send is complete the moment the staging copy exists, so
    // hand back a trivially-complete request: every later test()/wait()
    // short-circuits without touching the destination mailbox lock (the
    // schedule engine polls its send steps on every progress pass).
    return Request{};
  }
  // Rendezvous: park the sender's buffer until a receive copies from it.
  desc->eager = false;
  desc->payload = static_cast<const u8*>(buf);
  box.unexpected.push_back(desc);
  notify(box);
  return req;
}

Request Rank::irecv(void* buf, int count, Datatype type, int source, int tag,
                    Comm comm) {
  if (tag < 0 && tag != kAnyTag) throw MpiError("irecv: invalid tag");
  if (count < 0) throw MpiError("irecv: negative count");
  maybe_icoll_progress();
  const detail::CommData& c = comm_data(comm);
  return irecv_internal(buf, size_t(count) * datatype_size(type), source, tag,
                        c);
}

Request Rank::irecv_internal(void* buf, size_t bytes, int source, int tag,
                             const detail::CommData& c) {
  detail::Mailbox& box = world_->box(world_rank_);
  std::lock_guard<std::mutex> lock(box.mu);
  return match_or_post(box, buf, bytes, source, tag, c);
}

Request Rank::match_or_post(detail::Mailbox& box, void* buf, size_t bytes,
                            int source, int tag, const detail::CommData& c) {
  if (source != kAnySource &&
      (source < 0 || source >= int(c.world_ranks.size())))
    throw MpiError("recv: source rank out of range");
  Request req;
  req.kind_ = Request::Kind::kRecv;
  req.box = &box;
  auto it = find_unexpected(box, c.id, source, tag);
  if (it != box.unexpected.end() && (*it)->seg_ns == 0) {
    // Consume the queued message now: its result travels in the request.
    detail::SendDesc& s = **it;
    req.result = deliver(static_cast<u8*>(buf), bytes,
                         s.eager ? s.eager_buf.data() : s.payload, s.bytes,
                         s.src_comm_rank, s.tag);
    if (!s.eager) {
      // A sender blocked in wait sleeps on this box's cv; one parked in
      // poll_with_progress sleeps on its own box, which complete_send wakes.
      complete_send(s);
      notify(box);
    }
    box.unexpected.erase(it);
    return req;
  }
  req.recv = std::make_shared<detail::RecvDesc>();
  req.recv->comm_id = c.id;
  req.recv->src = source;
  req.recv->tag = tag;
  req.recv->dst = static_cast<u8*>(buf);
  req.recv->capacity = bytes;
  if (it == box.unexpected.end()) {
    box.posted.push_back(req.recv);
    return req;
  }
  // A pipelined send: pair it with the descriptor and drain the segments
  // already visible; p2p_done drains the rest as their deadlines pass.
  (*it)->sink = req.recv;
  box.draining.push_back(std::move(*it));
  box.unexpected.erase(it);
  pump_pipelines(box);
  notify(box);
  return req;
}

bool Rank::p2p_done(const Request& req) {
  if (req.kind_ == Request::Kind::kRecv && req.recv == nullptr) return true;
  detail::Mailbox& box = *req.box;
  if (!box.draining.empty()) pump_pipelines(box);
  return req.kind_ == Request::Kind::kRecv
             ? req.recv->done.load(std::memory_order_relaxed)
             : req.send->completed;
}

bool Rank::test_p2p(const Request& req, bool try_lock) {
  // A completed receive needs no lock: its result is written before done.
  if (req.kind_ == Request::Kind::kRecv &&
      (req.recv == nullptr || req.recv->done.load(std::memory_order_acquire)))
    return true;
  std::unique_lock<std::mutex> lock(req.box->mu, std::defer_lock);
  if (!try_lock) {
    lock.lock();
  } else if (!lock.try_lock()) {
    return false;  // contended: the holder is pumping
  }
  return p2p_done(req);
}

Status Rank::await_p2p(Request& req, std::unique_lock<std::mutex>& lock,
                       const char* what) {
  detail::Mailbox& box = *req.box;
  WaitPolicy wait(*world_);
  const auto done = [&] { return p2p_done(req) || world_->aborting(); };
  while (!done()) {
    if (wait.expired())
      throw MpiError(std::string(what) + ": timed out (deadlock?) at rank " +
                     std::to_string(world_rank_));
    const u64 seen = box.wakes.load(std::memory_order_relaxed);
    const auto woken = [&] {
      return box.wakes.load(std::memory_order_relaxed) != seen;
    };
    // Pipelined segments become visible by wall-clock alone and nothing
    // notifies them. A timed cv wait rounds up to the kernel timer slack
    // (~50us+), so a segment due within 150us keeps the wait from parking.
    u64 due = u64(-1);
    for (const auto& d : box.draining)
      if (d->seg_ns > 0 && d->chunk > 0)
        due = std::min(due,
                       d->posted_ns + (d->copied / d->chunk + 1) * d->seg_ns);
    if (due != u64(-1) && due < now_ns() + 150'000) wait.progressed();
    // Drive outstanding schedules without holding the box lock (their
    // steps lock mailboxes, this one included).
    lock.unlock();
    if (icoll_progress()) wait.progressed();
    const bool spun = wait.spin(woken);
    lock.lock();
    if (spun) continue;
    // A farther segment bounds the park. With schedules outstanding a pass
    // may be due without a wake, and with several guest threads per rank a
    // sibling may start a nonblocking collective, which notifies nobody.
    u64 park_ns = !box.draining.empty() || icoll_pending() ? 200'000
                  : world_->threaded()                     ? 1'000'000
                                                           : kBlockTimeoutNs;
    if (due != u64(-1)) park_ns = std::min(park_ns, due - now_ns() + 1'000);
    box.cv.wait_for(lock, std::chrono::nanoseconds(park_ns),
                    [&] { return woken() || done(); });
  }
  if (world_->aborting()) throw MpiAbort(-1);
  return finish(req, what);
}

detail::RecvResult Rank::result_of(const Request& req) {
  if (req.kind_ != Request::Kind::kRecv) return {};
  return req.recv != nullptr ? req.recv->result : req.result;
}

Status Rank::finish(Request& req, const char* what) {
  const detail::RecvResult res = result_of(req);
  req = Request{};
  if (res.truncated)
    throw MpiError(std::string(what) +
                   ": message truncated (receive buffer too small)");
  return res.status;
}

Status Rank::wait(Request& req) {
  if (!req.valid()) return Status{};  // trivially complete request
  if (req.kind_ == Request::Kind::kColl) {
    // Drive the progress engine (all outstanding schedules, not just this
    // one — peers may need our share of a sibling collective first).
    poll_with_progress([&] { return req.coll->done(); },
                       "wait: collective");
    return finish(req, "wait");  // collective requests carry an empty status
  }
  if (req.recv == nullptr && req.kind_ == Request::Kind::kRecv)
    return finish(req, "wait");  // matched when it was posted
  std::unique_lock<std::mutex> lock(req.box->mu);
  return await_p2p(req, lock, "wait");
}

bool Rank::test(Request& req, Status* status) {
  // Progress outstanding schedules regardless of this request's kind: a
  // poll loop over pure-p2p requests must still serve this rank's share of
  // any in-flight collective (no-op while already inside icoll_progress).
  maybe_icoll_progress();
  if (!req.valid()) return true;
  const bool done = req.kind_ == Request::Kind::kColl
                        ? req.coll->done()
                        : test_p2p(req, /*try_lock=*/false);
  if (!done) return false;
  const Status st = finish(req, "test");
  if (status != nullptr) *status = st;
  return true;
}

bool Rank::test_nonblocking(Request& req) {
  if (!req.valid()) return true;
  if (!test_p2p(req, /*try_lock=*/true)) return false;
  finish(req, "test");
  return true;
}

void Rank::waitall(std::span<Request> reqs) {
  for (Request& r : reqs) wait(r);
}

int Rank::waitany(std::span<Request> reqs, Status* status) {
  int completed = -1;
  bool any_active = false;
  auto scan = [&] {
    any_active = false;
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (!reqs[i].valid()) continue;
      any_active = true;
      Status st;
      if (test(reqs[i], &st)) {
        if (status != nullptr) *status = st;
        completed = int(i);
        return true;
      }
    }
    return !any_active;  // all inactive: done, index stays -1
  };
  poll_with_progress(scan, "waitany");
  return completed;
}

bool Rank::request_get_status(Request& req, Status* status) {
  maybe_icoll_progress();
  const bool done = !req.valid() ||
                    (req.kind_ == Request::Kind::kColl
                         ? req.coll->done()
                         : test_p2p(req, /*try_lock=*/false));
  if (done && status != nullptr) *status = result_of(req).status;
  return done;
}

bool Rank::testall(std::span<Request> reqs, Status* statuses) {
  maybe_icoll_progress();
  // MPI_Testall semantics: deallocate either every request or none.
  for (Request& r : reqs)
    if (!request_get_status(r, nullptr)) return false;
  for (size_t i = 0; i < reqs.size(); ++i) {
    Status st;
    test(reqs[i], &st);  // completes immediately; resets the request
    if (statuses != nullptr) statuses[i] = st;
  }
  return true;
}

Status Rank::sendrecv(const void* sendbuf, int sendcount, Datatype sendtype,
                      int dest, int sendtag, void* recvbuf, int recvcount,
                      Datatype recvtype, int source, int recvtag, Comm comm) {
  Request r = irecv(recvbuf, recvcount, recvtype, source, recvtag, comm);
  send(sendbuf, sendcount, sendtype, dest, sendtag, comm);
  return wait(r);
}

bool Rank::iprobe(int source, int tag, Comm comm, Status* status) {
  maybe_icoll_progress();
  const detail::CommData& c = comm_data(comm);
  detail::Mailbox& box = world_->box(world_rank_);
  std::lock_guard<std::mutex> lock(box.mu);
  auto it = find_unexpected(box, c.id, source, tag);
  if (it == box.unexpected.end()) return false;
  const detail::SendDesc& s = **it;
  if (status != nullptr) *status = Status{s.src_comm_rank, s.tag, s.bytes};
  return true;
}

}  // namespace mpiwasm::simmpi
