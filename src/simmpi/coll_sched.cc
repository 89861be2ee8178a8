#include "simmpi/coll_sched.h"

#include <algorithm>
#include <cstring>

#include "simmpi/coll_tree.h"
#include "simmpi/reduce_ops.h"
#include "support/log.h"
#include "support/timing.h"
#include "support/trace.h"

namespace mpiwasm::simmpi::coll {

// ---------------------------------------------------------------------------
// Schedule: step machinery
// ---------------------------------------------------------------------------

Schedule::Schedule(World* world, const detail::CommData& c, i64 seq)
    : world_(world), c_(&c), comm_id_(c.id) {
  renumber(seq);
}

Schedule::~Schedule() { release_shm_group(); }

std::shared_ptr<Schedule> Schedule::acquire(Rank& r, detail::CommData& c) {
  const i64 seq = c.icoll_seq++;
  {
    // A pooled schedule only the pool references is idle: its request is
    // gone and the progress engine dropped it. Holding icoll_mu_ orders
    // the reuse after the last progress pass that touched it.
    std::lock_guard<std::recursive_mutex> guard(r.icoll_mu_);
    for (const std::shared_ptr<Schedule>& s : c.schedules) {
      if (s.use_count() != 1) continue;
      MW_CHECK(s->c_ == &c, "pooled schedule bound to another communicator");
      s->reset(seq);
      return s;
    }
  }
  auto s = std::make_shared<Schedule>(r.world_, c, seq);
  if (c.schedules.size() < detail::CommData::kPooledSchedules)
    c.schedules.push_back(s);
  return s;
}

void Schedule::reset(i64 seq) {
  release_shm_group();
  steps_.clear();
  deps_.clear();
  scratch_used_ = 0;
  remaining_ = 0;
  done_.store(false, std::memory_order_relaxed);
  blocking_ = false;
  renumber(seq);
}

void Schedule::renumber(i64 seq) {
  seq_ = seq;
  tag_base_ = kIcollTagBase - int(seq % kIcollSeqWindow) * kIcollRounds;
}

void Schedule::release_shm_group() {
  if (shm_ == nullptr) return;
  shm_.reset();
  world_->release_icoll_group(comm_id_, seq_);
}

u8* Schedule::scratch(size_t bytes) {
  if (scratch_used_ == scratch_.size()) scratch_.emplace_back();
  std::vector<u8>& buf = scratch_[scratch_used_++];
  // At least one byte: a zero-byte step still gets a valid pointer.
  if (buf.size() < std::max<size_t>(bytes, 1))
    buf.resize(std::max<size_t>(bytes, 1));
  return buf.data();
}

IcollShmGroup& Schedule::shm_group(size_t slot_bytes) {
  if (shm_ == nullptr)
    shm_ = world_->attach_icoll_group(c_->id, seq_,
                                      int(c_->world_ranks.size()), slot_bytes);
  return *shm_;
}

Schedule::Step& Schedule::add(Step::Kind kind, Deps deps) {
  Step& step = steps_.emplace_back();
  step.kind = kind;
  step.deps_begin = deps_.size();
  for (StepId d : deps.ids())
    if (d != kNone) deps_.push_back(d);
  step.deps_end = deps_.size();
  ++remaining_;
  return step;
}

Schedule::StepId Schedule::last() const { return StepId(steps_.size()) - 1; }

Schedule::StepId Schedule::send(const void* buf, size_t bytes, int peer,
                                int round, Deps deps) {
  MW_CHECK(round >= 0 && round < kIcollRounds, "icoll round out of range");
  Step& s = add(Step::Kind::kSend, deps);
  s.src = buf;
  s.bytes = bytes;
  s.peer = peer;
  s.tag = tag_base_ - round;
  s.wire_ns = world_->profile().message_cost_ns(bytes);
  return last();
}

Schedule::StepId Schedule::recv(void* buf, size_t bytes, int peer, int round,
                                Deps deps) {
  MW_CHECK(round >= 0 && round < kIcollRounds, "icoll round out of range");
  Step& s = add(Step::Kind::kRecv, deps);
  s.dst = buf;
  s.bytes = bytes;
  s.peer = peer;
  s.tag = tag_base_ - round;
  return last();
}

Schedule::StepId Schedule::reduce(const void* src, void* dst, int count,
                                  Datatype type, ReduceOp op, Deps deps) {
  Step& s = add(Step::Kind::kReduce, deps);
  s.src = src;
  s.dst = dst;
  s.count = count;
  s.type = type;
  s.op = op;
  return last();
}

Schedule::StepId Schedule::copy(const void* src, void* dst, size_t bytes,
                                Deps deps) {
  Step& s = add(Step::Kind::kCopy, deps);
  s.src = src;
  s.dst = dst;
  s.bytes = bytes;
  return last();
}

Schedule::StepId Schedule::shm_arrive(int phase, size_t charge_bytes,
                                      Deps deps) {
  Step& s = add(Step::Kind::kShmArrive, deps);
  s.phase = phase;
  s.wire_ns = world_->profile().message_cost_ns(charge_bytes);
  return last();
}

Schedule::StepId Schedule::shm_wait(int phase, Deps deps) {
  add(Step::Kind::kShmWait, deps).phase = phase;
  return last();
}

bool Schedule::deps_done(const Step& s) const {
  for (size_t i = s.deps_begin; i < s.deps_end; ++i)
    if (steps_[size_t(deps_[i])].state != Step::State::kDone) return false;
  return true;
}

bool Schedule::advance(Rank& r, Step& s) {
  switch (s.kind) {
    case Step::Kind::kReduce:
      apply_reduce(s.op, s.type, s.src, s.dst, s.count);
      return true;
    case Step::Kind::kCopy:
      std::memmove(s.dst, s.src, s.bytes);
      return true;
    case Step::Kind::kSend:
      if (s.state == Step::State::kPending) {
        // Blocking calls charge the wire as an injection spin inside
        // isend_internal, like a p2p send. Nonblocking calls post at once so
        // peers can match; the wire-time deadline is what lets the transfer
        // proceed while the rank computes. Pipelined sends carry
        // per-segment deadlines inside the descriptor, so charging a
        // whole-message deadline here would double-count the wire.
        const bool deadline = !blocking_ && !r.sched_send_pipelined(s.bytes);
        s.req = r.isend_internal(s.src, s.bytes, s.peer, s.tag, *c_,
                                 /*charge_wire=*/blocking_);
        s.ready_at_ns = deadline ? now_ns() + s.wire_ns : 0;
        s.state = Step::State::kStarted;
      }
      if (s.req.valid() && !r.test_nonblocking(s.req)) return false;
      return now_ns() >= s.ready_at_ns;
    case Step::Kind::kRecv:
      if (s.state == Step::State::kPending) {
        s.req = r.irecv_internal(s.dst, s.bytes, s.peer, s.tag, *c_);
        s.state = Step::State::kStarted;
      }
      return !s.req.valid() || r.test_nonblocking(s.req);
    case Step::Kind::kShmArrive:
      if (s.state == Step::State::kPending) {
        shm_->arrive(s.phase);
        s.ready_at_ns = now_ns() + s.wire_ns;
        s.state = Step::State::kStarted;
      }
      return now_ns() >= s.ready_at_ns;
    case Step::Kind::kShmWait:
      return shm_->arrived_all(s.phase);
  }
  return false;
}

bool Schedule::progress(Rank& r) {
  bool advanced = true;
  while (advanced && remaining_ > 0) {
    advanced = false;
    for (Step& s : steps_) {
      if (s.state == Step::State::kDone) continue;
      if (!deps_done(s)) continue;
      if (advance(r, s)) {
        s.state = Step::State::kDone;
        --remaining_;
        advanced = true;
        if (MW_TRACE_ACTIVE()) {
          const char* kind = "?";
          switch (s.kind) {
            case Step::Kind::kSend: kind = "send"; break;
            case Step::Kind::kRecv: kind = "recv"; break;
            case Step::Kind::kReduce: kind = "reduce"; break;
            case Step::Kind::kCopy: kind = "copy"; break;
            case Step::Kind::kShmArrive: kind = "shm_arrive"; break;
            case Step::Kind::kShmWait: kind = "shm_wait"; break;
          }
          trace::instant("sched", "sched.step", "bytes", i64(s.bytes), "peer",
                         s.peer, "kind", kind);
        }
      }
    }
  }
  if (remaining_ > 0) return false;
  done_.store(true, std::memory_order_release);
  return true;
}

void Schedule::run_blocking(Rank& r) {
  blocking_ = true;
  if (progress(r)) return;  // every message already matched
  r.poll_with_progress([this] { return done(); }, "wait: collective", this);
}

// ---------------------------------------------------------------------------
// Builders. Exchange rounds push their receive before their send: advance()
// starts steps in push order, so by symmetry the peer's send tends to find
// a live posted receive and copies straight into it, completing at once
// instead of waiting for this rank to pull a parked rendezvous payload.
// ---------------------------------------------------------------------------

void build_ibarrier(Schedule& s, CollAlgo algo) {
  const detail::CommData& c = s.comm();
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  u8* tok = s.scratch(2);  // [0] token out, [1] sink in
  switch (algo) {
    case CollAlgo::kLinear:
      if (me == 0) {
        std::vector<Schedule::StepId> got;
        for (int src = 1; src < n; ++src)
          got.push_back(s.recv(tok + 1, 1, src, 0, {}));
        for (int dst = 1; dst < n; ++dst) s.send(tok, 1, dst, 1, got);
      } else {
        Schedule::StepId snd = s.send(tok, 1, 0, 0, {});
        s.recv(tok + 1, 1, 0, 1, {snd});
      }
      break;
    case CollAlgo::kShm: {
      s.shm_group(1);
      Schedule::StepId a = s.shm_arrive(0, 0, {});
      s.shm_wait(0, {a});
      break;
    }
    default: {  // dissemination
      Schedule::StepId ps = Schedule::kNone, pr = Schedule::kNone;
      int round = 0;
      for (int k = 1; k < n; k <<= 1, ++round) {
        Schedule::StepId rv =
            s.recv(tok + 1, 1, (me - k + n) % n, round, {ps, pr});
        Schedule::StepId snd =
            s.send(tok, 1, (me + k) % n, round, {ps, pr});
        ps = snd;
        pr = rv;
      }
      break;
    }
  }
}

void build_ibcast(Schedule& s, CollAlgo algo, void* buf, size_t bytes,
                  int root) {
  const detail::CommData& c = s.comm();
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  switch (algo) {
    case CollAlgo::kLinear:
      if (me == root) {
        for (int dst = 0; dst < n; ++dst)
          if (dst != root) s.send(buf, bytes, dst, 0, {});
      } else {
        s.recv(buf, bytes, root, 0, {});
      }
      break;
    case CollAlgo::kShm: {
      IcollShmGroup& g = s.shm_group(bytes);
      if (me == root) {
        Schedule::StepId cp = s.copy(buf, g.slot(root), bytes, {});
        Schedule::StepId a0 = s.shm_arrive(0, bytes, {cp});
        Schedule::StepId w0 = s.shm_wait(0, {a0});
        Schedule::StepId a1 = s.shm_arrive(1, 0, {w0});
        s.shm_wait(1, {a1});
      } else {
        Schedule::StepId a0 = s.shm_arrive(0, 0, {});
        Schedule::StepId w0 = s.shm_wait(0, {a0});
        Schedule::StepId cp = s.copy(g.slot(root), buf, bytes, {w0});
        // Fan-out charge, then keep the root's slot alive until every
        // reader is done (the bcast_shm double barrier).
        Schedule::StepId a1 = s.shm_arrive(1, bytes, {cp});
        s.shm_wait(1, {a1});
      }
      break;
    }
    default: {  // binomial
      const int mr = rel(me, root, n);
      Schedule::StepId got = Schedule::kNone;
      if (mr != 0) {
        int lsb = mr & -mr;
        got = s.recv(buf, bytes, unrel(mr - lsb, root, n), 0, {});
      }
      int lsb = mr == 0 ? (1 << 30) : (mr & -mr);
      for (int k = 1; k < lsb && k < n; k <<= 1)
        if (mr + k < n)
          s.send(buf, bytes, unrel(mr + k, root, n), 0, {got});
      break;
    }
  }
}

namespace {

/// Appends a rooted linear reduce into `recvbuf` (significant at the root
/// only). Returns this rank's final participation step: the tail of the
/// combine chain at the root, the contribution send elsewhere. `round` is
/// the tag round used by the contribution messages.
Schedule::StepId sched_reduce_linear(Schedule& s, const detail::CommData& c,
                                     const void* sendbuf, void* recvbuf,
                                     int count, Datatype type, ReduceOp op,
                                     int root, int round) {
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  const size_t bytes = size_t(count) * datatype_size(type);
  if (me != root) return s.send(sendbuf, bytes, root, round, {});
  // Canonical left-to-right combine over comm-rank order. Contributions
  // arrive into two alternating scratch buffers: two receives overlap, and
  // the root holds 2 x bytes of scratch whatever the communicator size.
  u8* own = s.scratch(bytes);
  Schedule::StepId own_cp = s.copy(sendbuf, own, bytes, {});
  u8* in[2] = {s.scratch(bytes), n > 2 ? s.scratch(bytes) : nullptr};
  Schedule::StepId consumed[2] = {Schedule::kNone, Schedule::kNone};
  int slot = 0;
  Schedule::StepId prev = Schedule::kNone;
  for (int src = 0; src < n; ++src) {
    const u8* contrib = own;
    Schedule::StepId ready = own_cp;
    if (src != root) {
      contrib = in[slot];
      ready = s.recv(in[slot], bytes, src, round, {consumed[slot]});
    }
    prev = src == 0 ? s.copy(contrib, recvbuf, bytes, {ready})
                    : s.reduce(contrib, recvbuf, count, type, op,
                               {ready, prev});
    if (src != root) {
      consumed[slot] = prev;
      slot ^= 1;
    }
  }
  return prev;
}

/// Appends a binomial-tree reduce; returns {final local step, accumulator}.
/// At relative rank 0 the result is left in the returned accumulator.
struct BinomialReduce {
  Schedule::StepId last = Schedule::kNone;
  u8* acc = nullptr;
};
BinomialReduce sched_reduce_binomial(Schedule& s, const detail::CommData& c,
                                     const void* sendbuf, int count,
                                     Datatype type, ReduceOp op, int root,
                                     int round) {
  const int n = int(c.world_ranks.size());
  const int mr = rel(c.my_comm_rank, root, n);
  const size_t bytes = size_t(count) * datatype_size(type);
  u8* acc = s.scratch(bytes);
  Schedule::StepId prev = s.copy(sendbuf, acc, bytes, {});
  // Children's partials arrive into two alternating scratch buffers, as in
  // sched_reduce_linear.
  u8* in[2] = {nullptr, nullptr};
  Schedule::StepId consumed[2] = {Schedule::kNone, Schedule::kNone};
  int slot = 0;
  for (int k = 1; k < n; k <<= 1) {
    if ((mr & k) != 0) {
      prev = s.send(acc, bytes, unrel(mr - k, root, n), round, {prev});
      break;
    }
    if (mr + k < n) {
      if (in[slot] == nullptr) in[slot] = s.scratch(bytes);
      Schedule::StepId rv = s.recv(in[slot], bytes, unrel(mr + k, root, n),
                                   round, {consumed[slot]});
      prev = s.reduce(in[slot], acc, count, type, op, {rv, prev});
      consumed[slot] = prev;
      slot ^= 1;
    }
  }
  return {prev, acc};
}

}  // namespace

void build_ireduce(Schedule& s, CollAlgo algo, const void* sendbuf,
                   void* recvbuf, int count, Datatype type, ReduceOp op,
                   int root) {
  const detail::CommData& c = s.comm();
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  const size_t bytes = size_t(count) * datatype_size(type);
  switch (algo) {
    case CollAlgo::kLinear:
      sched_reduce_linear(s, c, sendbuf, recvbuf, count, type, op, root, 0);
      break;
    case CollAlgo::kShm: {
      IcollShmGroup& g = s.shm_group(bytes);
      Schedule::StepId cp = s.copy(sendbuf, g.slot(me), bytes, {});
      Schedule::StepId a0 = s.shm_arrive(0, bytes, {cp});
      Schedule::StepId w0 = s.shm_wait(0, {a0});
      Schedule::StepId a1;
      if (me == root) {
        Schedule::StepId prev = s.copy(g.slot(0), recvbuf, bytes, {w0});
        for (int src = 1; src < n; ++src)
          prev = s.reduce(g.slot(src), recvbuf, count, type, op, {prev});
        a1 = s.shm_arrive(1, bytes, {prev});
      } else {
        a1 = s.shm_arrive(1, 0, {w0});
      }
      s.shm_wait(1, {a1});
      break;
    }
    default: {  // binomial
      BinomialReduce br =
          sched_reduce_binomial(s, c, sendbuf, count, type, op, root, 0);
      if (me == root && recvbuf != nullptr)
        s.copy(br.acc, recvbuf, bytes, {br.last});
      break;
    }
  }
}

namespace {

/// Recursive-doubling allreduce schedule. Non-pof2 sizes fold the extra
/// ranks into their odd neighbours first and hand the result back last.
/// Result lands in recvbuf on every rank.
void sched_allreduce_rdbl(Schedule& s, const detail::CommData& c,
                          const void* sendbuf, void* recvbuf, int count,
                          Datatype type, ReduceOp op) {
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  const size_t bytes = size_t(count) * datatype_size(type);
  Schedule::StepId prev = s.copy(sendbuf, recvbuf, bytes, {});
  u8* tmp = s.scratch(bytes);
  const int pof2 = floor_pof2(n);
  const int rem = n - pof2;
  int log2p = 0;
  for (int p = 1; p < pof2; p <<= 1) ++log2p;
  int round = 0;
  int newrank;
  if (me < 2 * rem) {
    if ((me % 2) == 0) {
      prev = s.send(recvbuf, bytes, me + 1, round, {prev});
      newrank = -1;
    } else {
      Schedule::StepId rv = s.recv(tmp, bytes, me - 1, round, {});
      prev = s.reduce(tmp, recvbuf, count, type, op, {rv, prev});
      newrank = me / 2;
    }
  } else {
    newrank = me - rem;
  }
  ++round;
  if (newrank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
      int newpartner = newrank ^ mask;
      int partner = newpartner < rem ? newpartner * 2 + 1 : newpartner + rem;
      Schedule::StepId rv = s.recv(tmp, bytes, partner, round, {prev});
      Schedule::StepId snd = s.send(recvbuf, bytes, partner, round, {prev});
      prev = s.reduce(tmp, recvbuf, count, type, op, {snd, rv});
    }
  } else {
    round += log2p;  // keep fold-out rounds aligned across ranks
  }
  if (me < 2 * rem) {
    if ((me % 2) == 0)
      s.recv(recvbuf, bytes, me + 1, round, {prev});
    else
      s.send(recvbuf, bytes, me - 1, round, {prev});
  }
}

/// Ring allreduce schedule: reduce-scatter steps then allgather steps. Each
/// step's receive and send wait for the previous step's, so all of them
/// share one tag round whatever the communicator size.
void sched_allreduce_ring(Schedule& s, const detail::CommData& c,
                          const void* sendbuf, void* recvbuf, int count,
                          Datatype type, ReduceOp op) {
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  const size_t esize = datatype_size(type);
  u8* out = static_cast<u8*>(recvbuf);
  std::vector<int> cnts, offs;
  chunk_counts(count, n, &cnts, &offs);
  u8* tmp = s.scratch((size_t(count) / size_t(n) + 1) * esize);
  const int right = (me + 1) % n, left = (me - 1 + n) % n;
  std::vector<Schedule::StepId> prevs = {
      s.copy(sendbuf, recvbuf, size_t(count) * esize, {})};
  for (int st = 0; st < n - 1; ++st) {
    int send_chunk = (me - st + n) % n;
    int recv_chunk = (me - st - 1 + n) % n;
    Schedule::StepId rv =
        s.recv(tmp, size_t(cnts[recv_chunk]) * esize, left, 0, prevs);
    Schedule::StepId snd =
        s.send(out + size_t(offs[send_chunk]) * esize,
               size_t(cnts[send_chunk]) * esize, right, 0, prevs);
    prevs = {s.reduce(tmp, out + size_t(offs[recv_chunk]) * esize,
                      cnts[recv_chunk], type, op, {snd, rv})};
  }
  for (int st = 0; st < n - 1; ++st) {
    int send_chunk = (me + 1 - st + n) % n;
    int recv_chunk = (me - st + n) % n;
    Schedule::StepId rv =
        s.recv(out + size_t(offs[recv_chunk]) * esize,
               size_t(cnts[recv_chunk]) * esize, left, 0, prevs);
    Schedule::StepId snd =
        s.send(out + size_t(offs[send_chunk]) * esize,
               size_t(cnts[send_chunk]) * esize, right, 0, prevs);
    prevs = {snd, rv};
  }
}

/// Rabenseifner allreduce schedule: reduce-scatter by recursive halving,
/// allgather by replaying the halving windows in reverse.
void sched_allreduce_raben(Schedule& s, const detail::CommData& c,
                           const void* sendbuf, void* recvbuf, int count,
                           Datatype type, ReduceOp op) {
  const int n = int(c.world_ranks.size());
  const int pof2 = floor_pof2(n);
  if (count < pof2) {  // chunks would be empty; rdbl handles this size
    sched_allreduce_rdbl(s, c, sendbuf, recvbuf, count, type, op);
    return;
  }
  const int me = c.my_comm_rank;
  const size_t esize = datatype_size(type);
  const size_t bytes = size_t(count) * esize;
  u8* out = static_cast<u8*>(recvbuf);
  u8* tmp = s.scratch(bytes);
  Schedule::StepId prev = s.copy(sendbuf, recvbuf, bytes, {});
  const int rem = n - pof2;
  int round = 0;
  int newrank;
  if (me < 2 * rem) {
    if ((me % 2) == 0) {
      prev = s.send(out, bytes, me + 1, round, {prev});
      newrank = -1;
    } else {
      Schedule::StepId rv = s.recv(tmp, bytes, me - 1, round, {});
      prev = s.reduce(tmp, out, count, type, op, {rv, prev});
      newrank = me / 2;
    }
  } else {
    newrank = me - rem;
  }
  ++round;
  const int log2p = [&] {
    int l = 0;
    for (int p = 1; p < pof2; p <<= 1) ++l;
    return l;
  }();
  if (newrank >= 0) {
    auto real_rank = [&](int nr) { return nr < rem ? nr * 2 + 1 : nr + rem; };
    std::vector<int> cnts, offs;
    chunk_counts(count, pof2, &cnts, &offs);
    auto range_elems = [&](int lo, int hi) {
      return offs[size_t(hi - 1)] + cnts[size_t(hi - 1)] - offs[size_t(lo)];
    };
    struct Win {
      int partner, keep_lo, keep_hi, give_lo, give_hi;
    };
    std::vector<Win> wins;
    int lo = 0, hi = pof2;
    std::vector<Schedule::StepId> prevs = {prev};
    for (int mask = pof2 >> 1; mask >= 1; mask >>= 1, ++round) {
      Win wn;
      wn.partner = real_rank(newrank ^ mask);
      int mid = lo + (hi - lo) / 2;
      if ((newrank & mask) == 0) {
        wn.keep_lo = lo, wn.keep_hi = mid, wn.give_lo = mid, wn.give_hi = hi;
      } else {
        wn.keep_lo = mid, wn.keep_hi = hi, wn.give_lo = lo, wn.give_hi = mid;
      }
      Schedule::StepId rv =
          s.recv(tmp, size_t(range_elems(wn.keep_lo, wn.keep_hi)) * esize,
                 wn.partner, round, prevs);
      Schedule::StepId snd =
          s.send(out + size_t(offs[size_t(wn.give_lo)]) * esize,
                 size_t(range_elems(wn.give_lo, wn.give_hi)) * esize,
                 wn.partner, round, prevs);
      prevs = {s.reduce(tmp, out + size_t(offs[size_t(wn.keep_lo)]) * esize,
                        range_elems(wn.keep_lo, wn.keep_hi), type, op,
                        {snd, rv})};
      lo = wn.keep_lo, hi = wn.keep_hi;
      wins.push_back(wn);
    }
    for (auto it = wins.rbegin(); it != wins.rend(); ++it, ++round) {
      Schedule::StepId rv =
          s.recv(out + size_t(offs[size_t(it->give_lo)]) * esize,
                 size_t(range_elems(it->give_lo, it->give_hi)) * esize,
                 it->partner, round, prevs);
      Schedule::StepId snd =
          s.send(out + size_t(offs[size_t(it->keep_lo)]) * esize,
                 size_t(range_elems(it->keep_lo, it->keep_hi)) * esize,
                 it->partner, round, prevs);
      prevs = {snd, rv};
    }
    prev = Schedule::kNone;
    if (me < 2 * rem)
      s.send(out, bytes, me - 1, round, prevs);
  } else {
    round += 2 * log2p;  // rounds the participating ranks consumed
    s.recv(out, bytes, me + 1, round, {prev});
  }
}

}  // namespace

void build_iallreduce(Schedule& s, CollAlgo algo, const void* sendbuf,
                      void* recvbuf, int count, Datatype type, ReduceOp op) {
  const detail::CommData& c = s.comm();
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  const size_t bytes = size_t(count) * datatype_size(type);
  switch (algo) {
    case CollAlgo::kLinear: {
      // Rooted linear reduce into recvbuf at rank 0, then linear bcast.
      Schedule::StepId last =
          sched_reduce_linear(s, c, sendbuf, recvbuf, count, type, op, 0, 0);
      if (me == 0) {
        for (int dst = 1; dst < n; ++dst)
          s.send(recvbuf, bytes, dst, 1, {last});
      } else {
        // The contribution send reads sendbuf, which aliases recvbuf under
        // MPI_IN_PLACE — the result receive must wait for it.
        s.recv(recvbuf, bytes, 0, 1, {last});
      }
      break;
    }
    case CollAlgo::kBinomial: {
      BinomialReduce br =
          sched_reduce_binomial(s, c, sendbuf, count, type, op, 0, 0);
      // Binomial bcast of recvbuf from rank 0 (round 1). recvbuf may alias
      // sendbuf (IN_PLACE); the reduce phase reads sendbuf only through its
      // initial accumulator copy, which br.last transitively orders before
      // the result receive.
      const int mr = me;  // root 0: relative == absolute
      Schedule::StepId got;
      if (mr == 0) {
        got = s.copy(br.acc, recvbuf, bytes, {br.last});
      } else {
        int lsb = mr & -mr;
        got = s.recv(recvbuf, bytes, mr - lsb, 1, {br.last});
      }
      int lsb = mr == 0 ? (1 << 30) : (mr & -mr);
      for (int k = 1; k < lsb && k < n; k <<= 1)
        if (mr + k < n) s.send(recvbuf, bytes, mr + k, 1, {got});
      break;
    }
    case CollAlgo::kRing:
      sched_allreduce_ring(s, c, sendbuf, recvbuf, count, type, op);
      break;
    case CollAlgo::kRabenseifner:
      sched_allreduce_raben(s, c, sendbuf, recvbuf, count, type, op);
      break;
    case CollAlgo::kShm: {
      IcollShmGroup& g = s.shm_group(bytes);
      Schedule::StepId cp = s.copy(sendbuf, g.slot(me), bytes, {});
      Schedule::StepId a0 = s.shm_arrive(0, bytes, {cp});
      Schedule::StepId w0 = s.shm_wait(0, {a0});
      Schedule::StepId prev = s.copy(g.slot(0), recvbuf, bytes, {w0});
      for (int src = 1; src < n; ++src)
        prev = s.reduce(g.slot(src), recvbuf, count, type, op, {prev});
      Schedule::StepId a1 = s.shm_arrive(1, bytes, {prev});
      s.shm_wait(1, {a1});
      break;
    }
    default:
      sched_allreduce_rdbl(s, c, sendbuf, recvbuf, count, type, op);
      break;
  }
}

void build_gather(Schedule& s, CollAlgo algo, const void* sendbuf,
                  void* recvbuf, size_t block, int root, bool in_place) {
  const detail::CommData& c = s.comm();
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  u8* out = static_cast<u8*>(recvbuf);
  if (algo == CollAlgo::kLinear) {
    if (me != root) {
      s.send(sendbuf, block, root, 0, {});
      return;
    }
    if (!in_place) s.copy(sendbuf, out + size_t(root) * block, block, {});
    for (int src = 0; src < n; ++src)
      if (src != root) s.recv(out + size_t(src) * block, block, src, 0, {});
    return;
  }
  // Binomial: the subtree of relative rank mr spans the contiguous relative
  // ranks [mr, mr + span); it is staged in relative order and the root
  // reorders it into recvbuf at the end.
  const int mr = rel(me, root, n);
  const int span = mr == 0 ? n : std::min(mr & -mr, n - mr);
  u8* tmp = s.scratch(size_t(span) * block);
  const void* own =
      in_place && me == root ? out + size_t(root) * block : sendbuf;
  std::vector<Schedule::StepId> staged = {s.copy(own, tmp, block, {})};
  for (int k = 1; k < n; k <<= 1) {
    if ((mr & k) != 0) {
      s.send(tmp, size_t(span) * block, unrel(mr - k, root, n), 0, staged);
      break;
    }
    if (mr + k < n) {
      const int child_span = std::min(k, n - (mr + k));
      staged.push_back(s.recv(tmp + size_t(k) * block,
                              size_t(child_span) * block,
                              unrel(mr + k, root, n), 0, {}));
    }
  }
  if (mr == 0) {
    // Relative ranks [0, n - root) are absolute [root, n), the rest [0,
    // root). In place, the root's own block is already home.
    const size_t head = size_t(n - root), first = in_place ? 1 : 0;
    s.copy(tmp + first * block, out + (size_t(root) + first) * block,
           (head - first) * block, staged);
    if (root > 0)
      s.copy(tmp + head * block, out, size_t(root) * block, staged);
  }
}

void build_scatter(Schedule& s, CollAlgo algo, const void* sendbuf,
                   void* recvbuf, size_t block, int root, bool in_place) {
  const detail::CommData& c = s.comm();
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  const u8* in = static_cast<const u8*>(sendbuf);
  const bool keep_recvbuf = in_place && me == root;
  if (algo == CollAlgo::kLinear) {
    if (me != root) {
      s.recv(recvbuf, block, root, 0, {});
      return;
    }
    for (int dst = 0; dst < n; ++dst)
      if (dst != root) s.send(in + size_t(dst) * block, block, dst, 0, {});
    if (!keep_recvbuf)
      s.copy(in + size_t(root) * block, recvbuf, block, {});
    return;
  }
  // Binomial: mirror of the gather fan-in. The root stages sendbuf in
  // relative-rank order so every subtree is contiguous; each rank receives
  // its subtree from its parent and peels off its children's, largest first.
  const int mr = rel(me, root, n);
  const int span = mr == 0 ? n : std::min(mr & -mr, n - mr);
  u8* tmp = s.scratch(size_t(span) * block);
  std::vector<Schedule::StepId> staged;
  int lsb = 1 << 30;
  if (mr == 0) {
    // Absolute ranks [root, n) are relative [0, n - root), the rest follow.
    const size_t head = size_t(n - root);
    staged.push_back(s.copy(in + size_t(root) * block, tmp, head * block, {}));
    if (root > 0)
      staged.push_back(
          s.copy(in, tmp + head * block, size_t(root) * block, {}));
  } else {
    lsb = mr & -mr;
    staged.push_back(s.recv(tmp, size_t(span) * block,
                            unrel(mr - lsb, root, n), 0, {}));
  }
  for (int k = floor_pof2(n); k >= 1; k >>= 1) {
    if (k < lsb && mr + k < n) {
      const int child_span = std::min(k, n - (mr + k));
      s.send(tmp + size_t(k) * block, size_t(child_span) * block,
             unrel(mr + k, root, n), 0, staged);
    }
  }
  if (!keep_recvbuf) s.copy(tmp, recvbuf, block, staged);
}

void build_iallgather(Schedule& s, CollAlgo algo, const void* sendbuf,
                      void* recvbuf, size_t block) {
  const detail::CommData& c = s.comm();
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  u8* out = static_cast<u8*>(recvbuf);
  // Own block into position first; memmove handles the in-place alias.
  const Schedule::StepId own =
      s.copy(sendbuf, out + size_t(me) * block, block, {});
  switch (algo) {
    case CollAlgo::kLinear: {
      // Gather to rank 0, then one total-size bcast per destination.
      if (me == 0) {
        std::vector<Schedule::StepId> got = {own};
        for (int src = 1; src < n; ++src)
          got.push_back(
              s.recv(out + size_t(src) * block, block, src, 0, {}));
        for (int dst = 1; dst < n; ++dst)
          s.send(out, size_t(n) * block, dst, 1, got);
      } else {
        Schedule::StepId snd = s.send(sendbuf, block, 0, 0, {});
        // The total receive overwrites recvbuf, including the region the
        // contribution send may still be reading (in-place) — dep on both.
        s.recv(out, size_t(n) * block, 0, 1, {own, snd});
      }
      break;
    }
    case CollAlgo::kRecursiveDoubling: {
      if (!is_pof2(n)) {
        // The hypercube exchange needs a power of two; others run the ring.
        std::vector<Schedule::StepId> prevs = {own};
        const int right = (me + 1) % n, left = (me - 1 + n) % n;
        for (int st = 0; st < n - 1; ++st) {
          int send_block = (me - st + n) % n;
          int recv_block = (me - st - 1 + n) % n;
          Schedule::StepId rv = s.recv(out + size_t(recv_block) * block,
                                       block, left, 0, prevs);
          Schedule::StepId snd = s.send(out + size_t(send_block) * block,
                                        block, right, 0, prevs);
          prevs = {snd, rv};
        }
        break;
      }
      std::vector<Schedule::StepId> prevs = {own};
      int round = 0;
      for (int mask = 1; mask < n; mask <<= 1, ++round) {
        int partner = me ^ mask;
        int my_start = me & ~(mask - 1);
        int peer_start = partner & ~(mask - 1);
        Schedule::StepId rv =
            s.recv(out + size_t(peer_start) * block, size_t(mask) * block,
                   partner, round, prevs);
        Schedule::StepId snd =
            s.send(out + size_t(my_start) * block, size_t(mask) * block,
                   partner, round, prevs);
        prevs = {snd, rv};
      }
      break;
    }
    case CollAlgo::kShm: {
      IcollShmGroup& g = s.shm_group(block);
      Schedule::StepId cp = s.copy(sendbuf, g.slot(me), block, {});
      Schedule::StepId a0 = s.shm_arrive(0, block, {cp});
      Schedule::StepId w0 = s.shm_wait(0, {a0});
      std::vector<Schedule::StepId> cps = {own};
      for (int src = 0; src < n; ++src) {
        if (src == me) continue;
        cps.push_back(
            s.copy(g.slot(src), out + size_t(src) * block, block, {w0}));
      }
      Schedule::StepId a1 = s.shm_arrive(1, block, cps);
      s.shm_wait(1, {a1});
      break;
    }
    default: {  // ring
      std::vector<Schedule::StepId> prevs = {own};
      const int right = (me + 1) % n, left = (me - 1 + n) % n;
      for (int st = 0; st < n - 1; ++st) {
        int send_block = (me - st + n) % n;
        int recv_block = (me - st - 1 + n) % n;
        Schedule::StepId rv = s.recv(out + size_t(recv_block) * block, block,
                                     left, 0, prevs);
        Schedule::StepId snd = s.send(out + size_t(send_block) * block,
                                      block, right, 0, prevs);
        prevs = {snd, rv};
      }
      break;
    }
  }
}

void build_ialltoall(Schedule& s, CollAlgo algo, const void* sendbuf,
                     void* recvbuf, size_t sblock, size_t rblock) {
  const detail::CommData& c = s.comm();
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  const u8* in = static_cast<const u8*>(sendbuf);
  u8* out = static_cast<u8*>(recvbuf);
  s.copy(in + size_t(me) * sblock, out + size_t(me) * rblock, sblock, {});
  if (algo == CollAlgo::kLinear) {
    // The natural DAG: every transfer independent.
    for (int src = 0; src < n; ++src)
      if (src != me)
        s.recv(out + size_t(src) * rblock, rblock, src, 0, {});
    for (int dst = 0; dst < n; ++dst)
      if (dst != me)
        s.send(in + size_t(dst) * sblock, sblock, dst, 0, {});
  } else {  // pairwise; each peer pair exchanges one message, in round 0
    std::vector<Schedule::StepId> prevs;
    for (int st = 1; st < n; ++st) {
      int to = (me + st) % n;
      int from = (me - st + n) % n;
      Schedule::StepId rv =
          s.recv(out + size_t(from) * rblock, rblock, from, 0, prevs);
      Schedule::StepId snd =
          s.send(in + size_t(to) * sblock, sblock, to, 0, prevs);
      prevs = {snd, rv};
    }
  }
}

void build_ireduce_scatter(Schedule& s, CollAlgo algo, const void* sendbuf,
                           void* recvbuf, const int* recvcounts, Datatype type,
                           ReduceOp op) {
  const detail::CommData& c = s.comm();
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  const size_t esize = datatype_size(type);
  std::vector<int> offs(static_cast<size_t>(n));
  int total = 0;
  for (int i = 0; i < n; ++i) {
    offs[size_t(i)] = total;
    total += recvcounts[i];
  }
  const u8* in = static_cast<const u8*>(sendbuf != nullptr ? sendbuf : recvbuf);
  const size_t my_bytes = size_t(recvcounts[me]) * esize;
  switch (algo) {
    case CollAlgo::kLinear: {
      // Reduce the full vector to rank 0 (round 0), then scatterv (round 1).
      if (me == 0) {
        u8* full = s.scratch(size_t(total) * esize);
        Schedule::StepId last =
            sched_reduce_linear(s, c, in, full, total, type, op, 0, 0);
        for (int dst = 1; dst < n; ++dst)
          s.send(full + size_t(offs[size_t(dst)]) * esize,
                 size_t(recvcounts[dst]) * esize, dst, 1, {last});
        s.copy(full, recvbuf, my_bytes, {last});
      } else {
        Schedule::StepId last =
            sched_reduce_linear(s, c, in, nullptr, total, type, op, 0, 0);
        // In-place input lives in recvbuf: the result receive overwrites a
        // region the contribution send may still be reading.
        s.recv(recvbuf, my_bytes, 0, 1, {last});
      }
      break;
    }
    case CollAlgo::kShm: {
      IcollShmGroup& g = s.shm_group(size_t(total) * esize);
      Schedule::StepId cp =
          s.copy(in, g.slot(me), size_t(total) * esize, {});
      Schedule::StepId a0 = s.shm_arrive(0, size_t(total) * esize, {cp});
      Schedule::StepId w0 = s.shm_wait(0, {a0});
      const size_t my_off = size_t(offs[size_t(me)]) * esize;
      Schedule::StepId prev =
          s.copy(g.slot(0) + my_off, recvbuf, my_bytes, {w0});
      for (int src = 1; src < n; ++src)
        prev = s.reduce(g.slot(src) + my_off, recvbuf, recvcounts[me], type,
                        op, {prev});
      Schedule::StepId a1 = s.shm_arrive(1, my_bytes, {prev});
      s.shm_wait(1, {a1});
      break;
    }
    default: {  // pairwise; one message per peer pair, all in round 0
      // Accumulate into scratch: with in-place input, recvbuf still feeds
      // outgoing chunks during the exchange, so it is written only at the
      // end, after every send has read its chunk.
      u8* acc = s.scratch(my_bytes);
      Schedule::StepId prev =
          s.copy(in + size_t(offs[size_t(me)]) * esize, acc, my_bytes, {});
      std::vector<Schedule::StepId> finals;
      for (int st = 1; st < n; ++st) {
        int to = (me + st) % n;
        int from = (me - st + n) % n;
        u8* tmp = s.scratch(my_bytes);
        Schedule::StepId rv = s.recv(tmp, my_bytes, from, 0, {});
        finals.push_back(s.send(in + size_t(offs[size_t(to)]) * esize,
                                size_t(recvcounts[to]) * esize, to, 0, {}));
        prev = s.reduce(tmp, acc, recvcounts[me], type, op, {rv, prev});
      }
      finals.push_back(prev);
      s.copy(acc, recvbuf, my_bytes, finals);
      break;
    }
  }
}

void build_iscan(Schedule& s, CollAlgo algo, const void* sendbuf,
                 void* recvbuf, int count, Datatype type, ReduceOp op) {
  const detail::CommData& c = s.comm();
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  const size_t bytes = size_t(count) * datatype_size(type);
  switch (algo) {
    case CollAlgo::kLinear: {
      // Chain: recv prefix from me-1, fold own contribution, pass it on.
      u8* own = s.scratch(bytes);
      Schedule::StepId cp = s.copy(sendbuf, own, bytes, {});
      Schedule::StepId prev;
      if (me > 0) {
        // sendbuf may alias recvbuf (in-place): the prefix receive must
        // wait for the contribution snapshot.
        Schedule::StepId rv = s.recv(recvbuf, bytes, me - 1, 0, {cp});
        prev = s.reduce(own, recvbuf, count, type, op, {rv});
      } else {
        prev = s.copy(own, recvbuf, bytes, {cp});
      }
      if (me < n - 1) s.send(recvbuf, bytes, me + 1, 0, {prev});
      break;
    }
    case CollAlgo::kShm: {
      IcollShmGroup& g = s.shm_group(bytes);
      Schedule::StepId cp = s.copy(sendbuf, g.slot(me), bytes, {});
      Schedule::StepId a0 = s.shm_arrive(0, bytes, {cp});
      Schedule::StepId w0 = s.shm_wait(0, {a0});
      Schedule::StepId prev = s.copy(g.slot(0), recvbuf, bytes, {w0});
      for (int src = 1; src <= me; ++src)
        prev = s.reduce(g.slot(src), recvbuf, count, type, op, {prev});
      Schedule::StepId a1 = s.shm_arrive(1, bytes, {prev});
      s.shm_wait(1, {a1});
      break;
    }
    default: {  // recursive doubling
      // partial = reduction over the contiguous rank window ending at me;
      // recvbuf accumulates everything at or below me.
      Schedule::StepId res_prev = s.copy(sendbuf, recvbuf, bytes, {});
      u8* partial = s.scratch(bytes);
      Schedule::StepId part_prev = s.copy(recvbuf, partial, bytes, {res_prev});
      int round = 0;
      for (int mask = 1; mask < n; mask <<= 1, ++round) {
        const int up = me + mask, down = me - mask;
        Schedule::StepId rv = Schedule::kNone;
        u8* tmp = nullptr;
        if (down >= 0) {
          tmp = s.scratch(bytes);
          rv = s.recv(tmp, bytes, down, round, {});
        }
        Schedule::StepId snd = Schedule::kNone;
        if (up < n) snd = s.send(partial, bytes, up, round, {part_prev});
        if (down >= 0) {
          res_prev = s.reduce(tmp, recvbuf, count, type, op, {rv, res_prev});
          part_prev =
              s.reduce(tmp, partial, count, type, op, {rv, part_prev, snd});
        } else if (snd != Schedule::kNone) {
          part_prev = snd;
        }
      }
      break;
    }
  }
}

void build_iexscan(Schedule& s, CollAlgo algo, const void* sendbuf,
                   void* recvbuf, int count, Datatype type, ReduceOp op) {
  const detail::CommData& c = s.comm();
  const int n = int(c.world_ranks.size());
  const int me = c.my_comm_rank;
  const size_t bytes = size_t(count) * datatype_size(type);
  switch (algo) {
    case CollAlgo::kLinear: {
      u8* own = s.scratch(bytes);
      Schedule::StepId cp = s.copy(sendbuf, own, bytes, {});
      Schedule::StepId rv = Schedule::kNone;
      if (me > 0)  // rank 0's recvbuf stays untouched (MPI semantics)
        rv = s.recv(recvbuf, bytes, me - 1, 0, {cp});
      if (me < n - 1) {
        if (me == 0) {
          s.send(own, bytes, 1, 0, {cp});
        } else {
          u8* incl = s.scratch(bytes);
          Schedule::StepId c1 = s.copy(recvbuf, incl, bytes, {rv});
          Schedule::StepId red =
              s.reduce(own, incl, count, type, op, {c1});
          s.send(incl, bytes, me + 1, 0, {red});
        }
      }
      break;
    }
    case CollAlgo::kShm: {
      IcollShmGroup& g = s.shm_group(bytes);
      Schedule::StepId cp = s.copy(sendbuf, g.slot(me), bytes, {});
      Schedule::StepId a0 = s.shm_arrive(0, bytes, {cp});
      Schedule::StepId w0 = s.shm_wait(0, {a0});
      Schedule::StepId a1;
      if (me > 0) {
        Schedule::StepId prev = s.copy(g.slot(0), recvbuf, bytes, {w0});
        for (int src = 1; src < me; ++src)
          prev = s.reduce(g.slot(src), recvbuf, count, type, op, {prev});
        a1 = s.shm_arrive(1, bytes, {prev});
      } else {
        a1 = s.shm_arrive(1, 0, {w0});
      }
      s.shm_wait(1, {a1});
      break;
    }
    default: {  // recursive doubling
      u8* partial = s.scratch(bytes);
      Schedule::StepId part_prev = s.copy(sendbuf, partial, bytes, {});
      // Under in-place aliasing the first recvbuf write must follow the
      // contribution snapshot; chaining from the copy covers it.
      Schedule::StepId res_prev = part_prev;
      bool have_result = false;
      int round = 0;
      for (int mask = 1; mask < n; mask <<= 1, ++round) {
        const int up = me + mask, down = me - mask;
        Schedule::StepId rv = Schedule::kNone;
        u8* tmp = nullptr;
        if (down >= 0) {
          tmp = s.scratch(bytes);
          rv = s.recv(tmp, bytes, down, round, {});
        }
        Schedule::StepId snd = Schedule::kNone;
        if (up < n) snd = s.send(partial, bytes, up, round, {part_prev});
        if (down >= 0) {
          // Incoming windows tile [0, me) exactly across the rounds.
          res_prev = have_result
                         ? s.reduce(tmp, recvbuf, count, type, op,
                                    {rv, res_prev})
                         : s.copy(tmp, recvbuf, bytes, {rv, res_prev});
          have_result = true;
          part_prev =
              s.reduce(tmp, partial, count, type, op, {rv, part_prev, snd});
        } else if (snd != Schedule::kNone) {
          part_prev = snd;
        }
      }
      break;
    }
  }
}

}  // namespace mpiwasm::simmpi::coll
