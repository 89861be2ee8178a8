// simmpi point-to-point tests: blocking/nonblocking semantics, matching
// rules (tags, wildcards, FIFO), eager vs rendezvous protocols, errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <tuple>

#include "embedder/abi.h"
#include "embedder/embedder.h"
#include "simmpi/api.h"
#include "simmpi/world.h"
#include "support/parallel.h"
#include "toolchain/mpi_imports.h"
#include "wasm/builder.h"

namespace mpiwasm::simmpi {
namespace {

TEST(SimMpiP2P, BlockingSendRecvSmall) {
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      int v = 12345;
      r.send(&v, 1, Datatype::kInt, 1, 0);
    } else {
      int v = 0;
      Status st = r.recv(&v, 1, Datatype::kInt, 0, 0);
      EXPECT_EQ(v, 12345);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 0);
      EXPECT_EQ(st.count(Datatype::kInt), 1);
    }
  });
}

TEST(SimMpiP2P, RendezvousLargeMessage) {
  // 1 MiB exceeds the eager limit: exercises the single-copy rendezvous.
  World world(2);
  world.run([](Rank& r) {
    const size_t n = 1 << 20;
    if (r.rank() == 0) {
      std::vector<u8> buf(n);
      for (size_t i = 0; i < n; ++i) buf[i] = u8(i * 13);
      r.send(buf.data(), int(n), Datatype::kByte, 1, 5);
    } else {
      std::vector<u8> buf(n, 0);
      r.recv(buf.data(), int(n), Datatype::kByte, 0, 5);
      for (size_t i = 0; i < n; i += 4097) EXPECT_EQ(buf[i], u8(i * 13));
    }
  });
}

TEST(SimMpiP2P, TagMatchingOutOfOrder) {
  // Receiver asks for tag 2 first even though tag 1 was sent first.
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      int a = 100, b = 200;
      r.send(&a, 1, Datatype::kInt, 1, 1);
      r.send(&b, 1, Datatype::kInt, 1, 2);
    } else {
      int v2 = 0, v1 = 0;
      r.recv(&v2, 1, Datatype::kInt, 0, 2);
      r.recv(&v1, 1, Datatype::kInt, 0, 1);
      EXPECT_EQ(v2, 200);
      EXPECT_EQ(v1, 100);
    }
  });
}

TEST(SimMpiP2P, FifoOrderPerTag) {
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      for (int i = 0; i < 20; ++i) r.send(&i, 1, Datatype::kInt, 1, 0);
    } else {
      for (int i = 0; i < 20; ++i) {
        int v = -1;
        r.recv(&v, 1, Datatype::kInt, 0, 0);
        EXPECT_EQ(v, i);  // per-(src,tag) FIFO
      }
    }
  });
}

TEST(SimMpiP2P, AnySourceAnyTag) {
  World world(3);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      int got = 0;
      for (int k = 0; k < 2; ++k) {
        int v = 0;
        Status st = r.recv(&v, 1, Datatype::kInt, kAnySource, kAnyTag);
        EXPECT_EQ(v, st.source * 10 + st.tag);
        ++got;
      }
      EXPECT_EQ(got, 2);
    } else {
      int v = r.rank() * 10 + r.rank();
      r.send(&v, 1, Datatype::kInt, 0, r.rank());
    }
  });
}

TEST(SimMpiP2P, IsendIrecvWaitall) {
  World world(2);
  world.run([](Rank& r) {
    constexpr int kN = 8;
    if (r.rank() == 0) {
      std::vector<int> data(kN);
      std::iota(data.begin(), data.end(), 0);
      std::vector<Request> reqs;
      for (int i = 0; i < kN; ++i)
        reqs.push_back(r.isend(&data[i], 1, Datatype::kInt, 1, i));
      r.waitall(reqs);
    } else {
      std::vector<int> out(kN, -1);
      std::vector<Request> reqs;
      for (int i = 0; i < kN; ++i)
        reqs.push_back(r.irecv(&out[i], 1, Datatype::kInt, 0, i));
      r.waitall(reqs);
      for (int i = 0; i < kN; ++i) EXPECT_EQ(out[i], i);
    }
  });
}

TEST(SimMpiP2P, TestPollsToCompletion) {
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      int v = 7;
      // Give the receiver a head start so test() sees both states.
      r.send(&v, 1, Datatype::kInt, 1, 0);
    } else {
      int v = 0;
      Request req = r.irecv(&v, 1, Datatype::kInt, 0, 0);
      Status st;
      while (!r.test(req, &st)) {
      }
      EXPECT_EQ(v, 7);
    }
  });
}

TEST(SimMpiP2P, SendrecvExchanges) {
  World world(4);
  world.run([](Rank& r) {
    int right = (r.rank() + 1) % r.size();
    int left = (r.rank() - 1 + r.size()) % r.size();
    int mine = r.rank() * 11;
    int theirs = -1;
    r.sendrecv(&mine, 1, Datatype::kInt, right, 3, &theirs, 1, Datatype::kInt,
               left, 3);
    EXPECT_EQ(theirs, left * 11);
  });
}

TEST(SimMpiP2P, IprobeSeesPendingMessage) {
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      int v = 1;
      r.send(&v, 1, Datatype::kInt, 1, 9);
      r.barrier();
    } else {
      r.barrier();  // after this the message must be in the unexpected queue
      Status st;
      EXPECT_TRUE(r.iprobe(0, 9, kCommWorld, &st));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 9);
      EXPECT_FALSE(r.iprobe(0, 1234, kCommWorld, nullptr));
      int v = 0;
      r.recv(&v, 1, Datatype::kInt, 0, 9);
    }
  });
}

/// Yields until `rank`'s mailbox holds a posted receive (`posted`) or a
/// queued message. Orders the two sides of an exchange where a barrier
/// cannot: after a blocking recv or a rendezvous send the caller is blocked.
void await_mailbox(World& world, int rank, bool posted) {
  detail::Mailbox& box = world.box(rank);
  while (true) {
    {
      std::lock_guard<std::mutex> lock(box.mu);
      if (posted ? !box.posted.empty() : !box.unexpected.empty()) return;
    }
    std::this_thread::yield();
  }
}

// A message larger than its receive, for every arrival order, protocol
// (eager 64 B, rendezvous 200 KiB) and receive form: the message is
// consumed, the first 16 bytes arrive, the receive throws MpiError
// mentioning "truncated", and the sender's call returns.
TEST(SimMpiP2P, TruncationFollowsOneRule) {
  for (bool posted_first : {true, false}) {
    for (size_t bytes : {size_t(64), size_t(200 * 1024)}) {
      for (bool nonblocking : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "posted_first=" << posted_first << " bytes=" << bytes
                     << " nonblocking=" << nonblocking);
        World world(2);
        std::vector<u8> msg(bytes);
        for (size_t i = 0; i < bytes; ++i) msg[i] = u8(i * 7 + 3);
        std::atomic<bool> sent{false};
        world.run([&](Rank& r) {
          if (r.rank() == 0) {
            if (posted_first) await_mailbox(world, 1, /*posted=*/true);
            r.send(msg.data(), int(bytes), Datatype::kByte, 1, 7);
            sent = true;
          } else {
            if (!posted_first) await_mailbox(world, 1, /*posted=*/false);
            u8 small[16] = {};
            try {
              if (nonblocking) {
                Request q = r.irecv(small, 16, Datatype::kByte, 0, 7);
                r.wait(q);
              } else {
                r.recv(small, 16, Datatype::kByte, 0, 7);
              }
              ADD_FAILURE() << "truncated receive reported no error";
            } catch (const MpiError& e) {
              EXPECT_NE(std::string(e.what()).find("truncated"),
                        std::string::npos)
                  << e.what();
            }
            EXPECT_EQ(std::memcmp(small, msg.data(), 16), 0);
          }
          r.barrier();
        });
        EXPECT_TRUE(sent);
        EXPECT_TRUE(world.box(1).unexpected.empty());
        EXPECT_TRUE(world.box(1).posted.empty());
      }
    }
  }
}

// A wildcard user receive never takes collective traffic, which shares the
// communicator under negative tags (under force_copy the barrier runs
// through the mailboxes).
TEST(SimMpiP2P, AnyTagReceiveSkipsCollectiveTraffic) {
  NetworkProfile prof = NetworkProfile::zero();
  prof.force_copy = true;
  World world(2, prof);
  world.run([](Rank& r) {
    int v = -1;
    if (r.rank() == 1) {
      Request q = r.irecv(&v, 1, Datatype::kInt, kAnySource, kAnyTag);
      r.barrier();
      EXPECT_FALSE(r.iprobe(kAnySource, kAnyTag, kCommWorld, nullptr));
      r.barrier();
      Status st = r.wait(q);
      EXPECT_EQ(v, 42);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 5);
    } else {
      r.barrier();
      r.barrier();
      v = 42;
      r.send(&v, 1, Datatype::kInt, 1, 5);
    }
  });
}

// --- Seeded point-to-point mix ---------------------------------------------
//
// Rounds separated by barriers. Each round opens with a ring sendrecv on
// some seeds, then runs a random message plan: every rank sends its
// messages in plan order (send or isend at eager sizes, isend above) and
// receives its own with one selector mode per round (exact, kAnySource,
// kAnyTag or both), so every receive of a matching class has the same
// selector and any matching outcome completes. Receives are posted in random
// order and form: irecv before the sends, recv, irecv + wait, a deferred
// irecv, or iprobe until a match and then recv. No rank blocks on a receive
// before all its sends are posted, so the plan cannot deadlock.

struct MixMsg {
  int src = 0;
  int dst = 0;
  int tag = 0;
  size_t bytes = 0;
  u32 seq = 0;  // index among this round's messages src sends dst with tag
};

struct MixRound {
  std::vector<MixMsg> msgs;
  std::vector<int> mode;  // per receiving rank: 0 exact, 1 any source,
                          // 2 any tag, 3 both
  size_t ring_bytes = 0;  // 0: no ring sendrecv this round
};

constexpr int kMixTags = 3;
constexpr int kRingTag = 100;

/// Payload of `m`: its seq in the first four bytes, then a pattern.
void fill_mix(u8* p, const MixMsg& m) {
  std::memcpy(p, &m.seq, sizeof m.seq);
  for (size_t i = sizeof m.seq; i < m.bytes; ++i)
    p[i] = u8(i * 131 + size_t(m.src) * 17 + size_t(m.tag) * 29 + m.seq * 7 +
              (i >> 9));
}

std::vector<MixRound> plan_mix(u64 seed, int nranks, size_t eager_limit) {
  std::mt19937_64 rng(seed);
  const size_t sizes[] = {4,           64,
                          1000,        eager_limit,
                          eager_limit + 1, 3 * eager_limit};
  auto pick_size = [&] { return sizes[rng() % std::size(sizes)]; };
  std::vector<MixRound> plan(12);
  for (MixRound& round : plan) {
    std::map<std::tuple<int, int, int>, u32> seqs;
    const int n = nranks + int(rng() % u64(2 * nranks + 1));
    for (int i = 0; i < n; ++i) {
      MixMsg m;
      m.src = int(rng() % u64(nranks));
      m.dst = int(rng() % u64(nranks));
      m.tag = int(rng() % kMixTags);
      m.bytes = pick_size();
      m.seq = seqs[{m.src, m.dst, m.tag}]++;
      round.msgs.push_back(m);
    }
    for (int r = 0; r < nranks; ++r) round.mode.push_back(int(rng() % 4));
    if (rng() % 2 == 0) round.ring_bytes = pick_size();
  }
  return plan;
}

/// Runs the plan of `seed` on `nranks` ranks; returns the first failure.
std::string run_p2p_mix(u64 seed, int nranks, bool force_copy) {
  NetworkProfile prof = NetworkProfile::zero();
  prof.force_copy = force_copy;
  const std::vector<MixRound> plan = plan_mix(seed, nranks, prof.eager_limit);
  std::mutex mu;
  std::string failure;
  auto fail = [&](int rank, size_t round, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (failure.empty())
      failure = "rank " + std::to_string(rank) + " round " +
                std::to_string(round) + ": " + what;
  };
  World world(nranks, prof);
  try {
    world.run([&](Rank& r) {
      const int me = r.rank();
      std::mt19937_64 rng(seed * 1000 + u64(me));
      for (size_t ri = 0; ri < plan.size(); ++ri) {
        const MixRound& round = plan[ri];
        if (round.ring_bytes > 0) {
          const int right = (me + 1) % nranks;
          const int left = (me + nranks - 1) % nranks;
          MixMsg out{me, right, kRingTag, round.ring_bytes, u32(ri)};
          MixMsg in{left, me, kRingTag, round.ring_bytes, u32(ri)};
          std::vector<u8> obuf(out.bytes), ibuf(in.bytes), want(in.bytes);
          fill_mix(obuf.data(), out);
          fill_mix(want.data(), in);
          Status st = r.sendrecv(obuf.data(), int(out.bytes), Datatype::kByte,
                                 right, kRingTag, ibuf.data(), int(in.bytes),
                                 Datatype::kByte, left, kRingTag);
          if (st.source != left || st.tag != kRingTag ||
              st.bytes != in.bytes || ibuf != want)
            fail(me, ri, "ring sendrecv delivered a wrong message");
        }

        // Receives of this rank, in a random posting order.
        const int mode = round.mode[size_t(me)];
        struct Rx {
          int src, tag;  // selector
          std::vector<u8> buf;
          Request req;
          Status st;
          bool pending = false;
          int posted_at = 0;  // position in this rank's posting order
        };
        std::vector<Rx> rxs;
        size_t capacity = 0;
        for (const MixMsg& m : round.msgs)
          if (m.dst == me) capacity = std::max(capacity, m.bytes);
        for (const MixMsg& m : round.msgs) {
          if (m.dst != me) continue;
          Rx rx;
          rx.src = mode == 1 || mode == 3 ? kAnySource : m.src;
          rx.tag = mode == 2 || mode == 3 ? kAnyTag : m.tag;
          rx.buf.resize(capacity);
          rxs.push_back(std::move(rx));
        }
        std::shuffle(rxs.begin(), rxs.end(), rng);
        // Pick every receive's form up front; the pre-posted ones go first.
        std::vector<int> form(rxs.size());
        for (int& f : form) f = int(rng() % 5);
        int posts = 0;
        auto post = [&](Rx& rx) {
          rx.posted_at = posts++;
          rx.req = r.irecv(rx.buf.data(), int(capacity), Datatype::kByte,
                           rx.src, rx.tag);
          rx.pending = true;
        };
        for (size_t i = 0; i < rxs.size(); ++i)
          if (form[i] == 0) post(rxs[i]);

        std::vector<std::vector<u8>> sbufs;
        std::vector<Request> sreqs;
        for (const MixMsg& m : round.msgs) {
          if (m.src != me) continue;
          sbufs.emplace_back(m.bytes);
          fill_mix(sbufs.back().data(), m);
          const bool buffered = m.bytes <= prof.eager_limit || force_copy;
          if (buffered && rng() % 2 == 0)
            r.send(sbufs.back().data(), int(m.bytes), Datatype::kByte, m.dst,
                   m.tag);
          else
            sreqs.push_back(r.isend(sbufs.back().data(), int(m.bytes),
                                    Datatype::kByte, m.dst, m.tag));
        }

        for (size_t i = 0; i < rxs.size(); ++i) {
          Rx& rx = rxs[i];
          auto recv = [&] {
            rx.posted_at = posts++;
            rx.st = r.recv(rx.buf.data(), int(capacity), Datatype::kByte,
                           rx.src, rx.tag);
          };
          switch (form[i]) {
            case 1: recv(); break;
            case 2:
              post(rx);
              rx.st = r.wait(rx.req);
              rx.pending = false;
              break;
            case 3: post(rx); break;
            case 4: {
              Status probed;
              const auto deadline =
                  std::chrono::steady_clock::now() + std::chrono::seconds(30);
              while (!r.iprobe(rx.src, rx.tag, kCommWorld, &probed)) {
                if (std::chrono::steady_clock::now() > deadline)
                  throw MpiError("iprobe found no message");
                std::this_thread::yield();
              }
              recv();
              if (probed.source != rx.st.source || probed.tag != rx.st.tag ||
                  probed.bytes != rx.st.bytes)
                fail(me, ri, "recv took another message than iprobe saw");
              break;
            }
            default: break;  // posted before the sends
          }
        }

        // Complete the deferred requests in one of four ways.
        std::vector<Request> reqs;
        std::vector<Rx*> owners;
        for (Rx& rx : rxs)
          if (rx.pending) {
            reqs.push_back(rx.req);
            owners.push_back(&rx);
          }
        switch (rng() % 4) {
          case 0:
            for (size_t i = 0; i < reqs.size(); ++i)
              owners[i]->st = r.wait(reqs[i]);
            break;
          case 1:
            for (size_t done = 0; done < reqs.size(); ++done) {
              Status st;
              const int i = r.waitany(reqs, &st);
              owners[size_t(i)]->st = st;
            }
            break;
          case 2:
            for (size_t left = reqs.size(); left > 0;)
              for (size_t i = 0; i < reqs.size(); ++i)
                if (reqs[i].valid() && r.test(reqs[i], &owners[i]->st)) --left;
            break;
          default: {
            std::vector<Status> sts(reqs.size());
            while (!r.testall(reqs, sts.data())) std::this_thread::yield();
            for (size_t i = 0; i < reqs.size(); ++i) owners[i]->st = sts[i];
          }
        }
        r.waitall(sreqs);

        // Every planned message arrived once, intact, and per (source, tag)
        // in sending order with respect to receive posting order.
        std::sort(rxs.begin(), rxs.end(), [](const Rx& a, const Rx& b) {
          return a.posted_at < b.posted_at;
        });
        std::map<std::pair<int, int>, u32> next_seq;
        for (const Rx& rx : rxs) {
          const Status& st = rx.st;
          if ((rx.src != kAnySource && st.source != rx.src) ||
              (rx.tag != kAnyTag && st.tag != rx.tag) || st.bytes < 4) {
            fail(me, ri, "status does not match the receive's selector");
            continue;
          }
          u32 seq;
          std::memcpy(&seq, rx.buf.data(), sizeof seq);
          u32& next = next_seq[{st.source, st.tag}];
          if (seq != next) {
            fail(me, ri,
                 "message " + std::to_string(seq) + " from " +
                     std::to_string(st.source) + " tag " +
                     std::to_string(st.tag) + " arrived where " +
                     std::to_string(next) + " was due");
            continue;
          }
          ++next;
          const MixMsg* m = nullptr;
          for (const MixMsg& c : round.msgs)
            if (c.src == st.source && c.dst == me && c.tag == st.tag &&
                c.seq == seq)
              m = &c;
          if (m == nullptr || m->bytes != st.bytes) {
            fail(me, ri, "received a message of the wrong length");
            continue;
          }
          std::vector<u8> want(m->bytes);
          fill_mix(want.data(), *m);
          if (std::memcmp(want.data(), rx.buf.data(), m->bytes) != 0)
            fail(me, ri, "payload differs");
        }
        r.barrier();
      }
    });
  } catch (const std::exception& e) {
    if (failure.empty()) failure = e.what();
  }
  if (failure.empty()) return "";
  return "reproduce: run_p2p_mix(seed=" + std::to_string(seed) +
         ", nranks=" + std::to_string(nranks) +
         ", force_copy=" + std::to_string(force_copy) + "): " + failure;
}

TEST(SimMpiP2P, SeededMixKeepsPayloadsAndOrder) {
  for (bool force_copy : {false, true})
    for (u64 seed = 1; seed <= 8; ++seed) {
      const std::string failure =
          run_p2p_mix(seed, 3 + int(seed % 2), force_copy);
      EXPECT_TRUE(failure.empty()) << failure;
    }
}

TEST(SimMpiP2P, InvalidArgumentsThrow) {
  World world(2);
  world.run([](Rank& r) {
    int v = 0;
    if (r.rank() == 0) {
      EXPECT_THROW(r.send(&v, 1, Datatype::kInt, 7, 0), MpiError);
      EXPECT_THROW(r.send(&v, 1, Datatype::kInt, 1, -5), MpiError);
      EXPECT_THROW(r.send(&v, -1, Datatype::kInt, 1, 0), MpiError);
      EXPECT_THROW(r.recv(&v, 1, Datatype::kInt, 9, 0), MpiError);
    }
  });
}

TEST(SimMpiP2P, AbortUnblocksPeers) {
  World world(2);
  EXPECT_THROW(world.run([](Rank& r) {
    if (r.rank() == 0) {
      int v;
      // Would block forever; rank 1's abort must unblock it.
      try {
        r.recv(&v, 1, Datatype::kInt, 1, 0);
      } catch (const MpiAbort&) {
        throw;  // expected path
      }
    } else {
      r.abort(3);
    }
  }),
               MpiError);
}

TEST(SimMpiP2P, WtimeAdvances) {
  World world(1);
  world.run([](Rank& r) {
    f64 t0 = r.wtime();
    f64 t1 = r.wtime();
    EXPECT_GE(t1, t0);
  });
}

TEST(SimMpiP2P, CurrentContextAccessor) {
  EXPECT_FALSE(in_mpi_context());
  EXPECT_THROW(ctx(), MpiError);
  World world(2);
  world.run([](Rank& r) {
    EXPECT_TRUE(in_mpi_context());
    EXPECT_EQ(&ctx(), &r);
  });
}

TEST(SimMpiP2P, SelfSendViaNonblocking) {
  World world(1);
  world.run([](Rank& r) {
    int in = 5, out = 0;
    Request rr = r.irecv(&out, 1, Datatype::kInt, 0, 0);
    r.send(&in, 1, Datatype::kInt, 0, 0);
    r.wait(rr);
    EXPECT_EQ(out, 5);
  });
}

// Zero-count messages with null buffers on both sides, for a receive posted
// before the send and for an unexpected message, blocking and nonblocking.
// With a size_t eager limit a zero-byte message is always eager, so the
// eager_limit = 0 profile (the smallest rendezvous boundary) exercises the
// same delivery as the default one; both must complete with count 0.
void zero_count_exchanges(NetworkProfile prof) {
  World world(2, prof);
  world.run([](Rank& r) {
    for (bool posted_first : {true, false}) {
      for (bool nonblocking : {false, true}) {
        const int tag = (posted_first ? 10 : 20) + (nonblocking ? 1 : 0);
        if (r.rank() == 0) {
          if (posted_first) r.barrier();
          if (nonblocking) {
            Request s = r.isend(nullptr, 0, Datatype::kDouble, 1, tag);
            r.wait(s);
          } else {
            r.send(nullptr, 0, Datatype::kDouble, 1, tag);
          }
          if (!posted_first) r.barrier();
        } else {
          Status st;
          if (posted_first) {
            Request q = r.irecv(nullptr, 0, Datatype::kDouble, 0, tag);
            r.barrier();
            st = r.wait(q);
          } else {
            r.barrier();
            if (nonblocking) {
              Request q = r.irecv(nullptr, 0, Datatype::kDouble, 0, tag);
              st = r.wait(q);
            } else {
              st = r.recv(nullptr, 0, Datatype::kDouble, 0, tag);
            }
          }
          EXPECT_EQ(st.source, 0);
          EXPECT_EQ(st.tag, tag);
          EXPECT_EQ(st.count(Datatype::kDouble), 0);
        }
      }
    }
  });
}

TEST(SimMpiP2P, ZeroCountNullBuffersEager) {
  zero_count_exchanges(NetworkProfile::zero());
}

TEST(SimMpiP2P, ZeroCountNullBuffersAtRendezvousBoundary) {
  NetworkProfile prof = NetworkProfile::zero();
  prof.eager_limit = 0;
  zero_count_exchanges(prof);
}

// --- The wait policy ---------------------------------------------------------

TEST(WaitPolicy, SpinsOnlyWhileTheRanksFitTheCpus) {
  EXPECT_TRUE(WaitPolicy::spins(1, 1, false));
  EXPECT_TRUE(WaitPolicy::spins(2, 4, false));
  EXPECT_TRUE(WaitPolicy::spins(4, 4, false));
  EXPECT_FALSE(WaitPolicy::spins(5, 4, false));
  EXPECT_FALSE(WaitPolicy::spins(8, 4, false));
  // More guest threads than ranks: the CPU count no longer bounds them.
  EXPECT_FALSE(WaitPolicy::spins(2, 4, true));
}

// The sender sleeps well past the spin budget before each send, so every
// receive spins, parks, and must still be woken by the delivery: a lost
// wake would hold it until the deadlock watchdog. Even rounds wait in a
// blocking recv, odd ones in waitany (the schedule-driving wait).
TEST(WaitPolicy, SpinningReceiverParksAndIsWokenByALateSend) {
  if (!WaitPolicy::spins(2, affinity_cpus(), false))
    GTEST_SKIP() << "a 2-rank world yields on a 1-CPU affinity mask";
  constexpr int kRounds = 20;
  constexpr auto kSenderDelay = std::chrono::milliseconds(2);
  static_assert(std::chrono::nanoseconds(kSenderDelay).count() >
                i64(WaitPolicy::kSpinBudgetNs));
  std::atomic<i64> sent_ns{0};
  i64 worst_lag_ns = 0;
  World world(2);
  world.run([&](Rank& r) {
    const auto now = [] {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
    for (int round = 0; round < kRounds; ++round) {
      if (r.rank() == 0) {
        std::this_thread::sleep_for(kSenderDelay);
        sent_ns.store(now());
        r.send(&round, 1, Datatype::kInt, 1, 0);
        r.barrier();
        continue;
      }
      int got = -1;
      if (round % 2 == 0) {
        r.recv(&got, 1, Datatype::kInt, 0, 0);
      } else {
        Request req = r.irecv(&got, 1, Datatype::kInt, 0, 0);
        EXPECT_EQ(r.waitany({&req, 1}), 0);
      }
      worst_lag_ns = std::max(worst_lag_ns, now() - sent_ns.load());
      EXPECT_EQ(got, round);
      r.barrier();
    }
  });
  // A woken park returns within scheduler latency; the watchdog is 120 s.
  EXPECT_LT(worst_lag_ns, i64(1'000'000'000)) << "a wake was lost";
}

// Twice as many ranks as CPUs: every wait yields instead of spinning, so a
// ring of blocking sends and receives must keep moving.
TEST(WaitPolicy, OversubscribedRingFinishesWellInsideTheWatchdog) {
  const int n = int(2 * affinity_cpus());
  ASSERT_FALSE(WaitPolicy::spins(n, affinity_cpus(), false));
  constexpr int kRounds = 500;
  const auto start = std::chrono::steady_clock::now();
  World world(n);
  world.run([&](Rank& r) {
    const int next = (r.rank() + 1) % n, prev = (r.rank() + n - 1) % n;
    for (int round = 0; round < kRounds; ++round) {
      const int out = round * n + r.rank();
      int in = -1;
      r.send(&out, 1, Datatype::kInt, next, round % 8);
      r.recv(&in, 1, Datatype::kInt, prev, round % 8);
      ASSERT_EQ(in, round * n + prev);
    }
  });
  EXPECT_LT(std::chrono::steady_clock::now() - start, kDeadlockTimeout / 4);
}

// The guest's MPI_Waitany waits through the same policy: rank 0 posts a
// receive nobody has sent to yet and waits on it; rank 1 sends after a
// host-side sleep. Rank 0 exits with the received value plus penalties for
// a wrong index (100s) or a request handle left set (1000).
std::vector<u8> build_late_send_waitany_module() {
  namespace abi = embed::abi;
  using wasm::Op;
  using wasm::ValType;
  constexpr ValType I32 = ValType::kI32;
  constexpr i32 kRankPtr = 1024, kBuf = 2048, kReq = 2064, kIndex = 2068;
  wasm::ModuleBuilder b;
  toolchain::MpiImportSet set;
  set.p2p = true;
  set.nonblocking = true;
  toolchain::MpiImports mpi = toolchain::declare_mpi_imports(b, set);
  u32 proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit",
                                {{I32}, {}});
  u32 pause = b.import_func("test", "pause", {{}, {}});
  b.add_memory(1);
  b.export_memory();
  auto& f = b.begin_func({{}, {}}, "_start");
  f.i32_const(0);
  f.i32_const(0);
  f.call(mpi.init);
  f.op(Op::kDrop);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(kRankPtr);
  f.call(mpi.comm_rank);
  f.op(Op::kDrop);
  f.i32_const(kRankPtr);
  f.mem_op(Op::kI32Load);
  f.op(Op::kI32Eqz);
  f.if_();
  {
    // Irecv(kBuf, 1, INT, 1, 7) -> kReq; Waitany(1, kReq) -> kIndex.
    for (i32 v : {kBuf, 1, abi::MPI_INT, 1, 7, abi::MPI_COMM_WORLD, kReq})
      f.i32_const(v);
    f.call(mpi.irecv);
    f.op(Op::kDrop);
    for (i32 v : {1, kReq, kIndex, abi::MPI_STATUS_IGNORE}) f.i32_const(v);
    f.call(mpi.waitany);
    f.op(Op::kDrop);
    f.i32_const(kBuf);
    f.mem_op(Op::kI32Load);
    f.i32_const(kIndex);
    f.mem_op(Op::kI32Load);
    f.i32_const(100);
    f.op(Op::kI32Mul);
    f.op(Op::kI32Add);
    f.i32_const(kReq);
    f.mem_op(Op::kI32Load);
    f.i32_const(abi::MPI_REQUEST_NULL);
    f.op(Op::kI32Ne);
    f.i32_const(1000);
    f.op(Op::kI32Mul);
    f.op(Op::kI32Add);
    f.call(proc_exit);
  }
  f.else_();
  {
    f.call(pause);
    f.i32_const(kBuf);
    f.i32_const(42);
    f.mem_op(Op::kI32Store);
    for (i32 v : {kBuf, 1, abi::MPI_INT, 0, 7, abi::MPI_COMM_WORLD})
      f.i32_const(v);
    f.call(mpi.send);
    f.op(Op::kDrop);
    f.i32_const(0);
    f.call(proc_exit);
  }
  f.end();
  f.end();
  return b.build();
}

TEST(WaitPolicy, GuestWaitanyOnAnUnmatchedReceiveCompletesWhenThePeerSends) {
  const std::vector<u8> bytes = build_late_send_waitany_module();
  embed::EmbedderConfig cfg;
  cfg.extra_imports = [](rt::ImportTable& t, int) {
    t.add("test", "pause", {{}, {}},
          [](rt::HostContext&, const rt::Slot*, rt::Slot*) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          });
  };
  embed::Embedder emb(cfg);
  EXPECT_EQ(emb.run_world({bytes.data(), bytes.size()}, 2).exit_code, 42);
}

}  // namespace
}  // namespace mpiwasm::simmpi
