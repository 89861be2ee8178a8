// simmpi point-to-point tests: blocking/nonblocking semantics, matching
// rules (tags, wildcards, FIFO), eager vs rendezvous protocols, errors.
#include <gtest/gtest.h>

#include <numeric>

#include "simmpi/api.h"
#include "simmpi/world.h"

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

TEST(SimMpiP2P, TruncationIsAnError) {
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      std::vector<int> big(16, 1);
      r.send(big.data(), 16, Datatype::kInt, 1, 0);
    } else {
      int small[2];
      EXPECT_THROW(r.recv(small, 2, Datatype::kInt, 0, 0), MpiError);
    }
  });
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

}  // namespace
}  // namespace mpiwasm::simmpi
