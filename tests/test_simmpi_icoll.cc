// Differential + stress suite for the nonblocking collectives (coll_sched).
//
// Every nonblocking collective is validated against a host-computed
// reference under every registry algorithm, across message sizes from 1 B
// to 1 MiB (hitting both the eager and rendezvous transports), power-of-two
// and non-pof2 rank counts, MPI_IN_PLACE, multiple outstanding requests,
// and out-of-order completion. Inputs are exact in every datatype (small
// integers), so every algorithm must agree with the reference bit-for-bit.
// (A blocking call runs the same schedule builder, so comparing the two
// would test the builder against itself.) The suite also pins the
// progress-engine semantics production codes rely on: blocking MPI calls
// must advance outstanding schedules (no deadlock when a rank blocks in
// recv while a peer waits on a collective), and blocking and nonblocking
// calls interleave on one communicator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "simmpi/coll_algos.h"
#include "simmpi/world.h"
#include "support/timing.h"

namespace mpiwasm::simmpi {
namespace {

using coll::CollOp;

/// Deterministic exact-in-every-type element for (rank, index).
i64 gen(int rank, i64 i) { return ((rank + 1) * 31 + i * 7) % 13 + 1; }

/// Host-computed reference: element i is the sum of gen(k, first + i) over
/// ranks k in [0, ranks).
std::vector<i64> rank_sum(int ranks, i64 count, i64 first = 0) {
  std::vector<i64> acc(static_cast<size_t>(count), 0);
  for (int k = 0; k < ranks; ++k)
    for (i64 i = 0; i < count; ++i) acc[size_t(i)] += gen(k, first + i);
  return acc;
}

// Element counts of i64 (8 B .. 1 MiB); 131072 crosses the rendezvous
// threshold for the full-vector algorithms.
const i64 kCounts[] = {1, 3, 257, 2048, 65536, 131072};

TEST(IcollDifferential, IallreduceEveryAlgorithmMatchesReference) {
  for (int ranks : {2, 3, 5, 8}) {
    for (CollAlgo algo : coll::algos_for(CollOp::kAllreduce)) {
      World world(ranks, NetworkProfile::zero(),
                  coll::forced_tuning(CollOp::kAllreduce, algo));
      for (i64 count : kCounts) {
        const std::vector<i64> expect = rank_sum(ranks, count);
        world.run([&, count](Rank& r) {
          std::vector<i64> in(static_cast<size_t>(count));
          for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
          std::vector<i64> out(static_cast<size_t>(count), -2);
          Request req = r.iallreduce(in.data(), out.data(), int(count),
                                     Datatype::kLong, ReduceOp::kSum);
          r.wait(req);
          ASSERT_EQ(out, expect)
              << "ranks=" << ranks << " count=" << count
              << " algo=" << coll::algo_name(algo);
        });
      }
    }
  }
}

TEST(IcollDifferential, IbcastEveryAlgorithmEveryRoot) {
  for (int ranks : {2, 3, 5, 8}) {
    for (CollAlgo algo : coll::algos_for(CollOp::kBcast)) {
      World world(ranks, NetworkProfile::zero(),
                  coll::forced_tuning(CollOp::kBcast, algo));
      for (i64 count : {i64(1), i64(257), i64(65536)}) {
        for (int root = 0; root < ranks; ++root) {
          world.run([&, count, root](Rank& r) {
            std::vector<i64> expect(static_cast<size_t>(count)), buf(static_cast<size_t>(count));
            for (i64 i = 0; i < count; ++i) {
              expect[size_t(i)] = gen(root, i);
              buf[size_t(i)] = r.rank() == root ? gen(root, i) : -1;
            }
            Request req = r.ibcast(buf.data(), int(count), Datatype::kLong,
                                   root);
            r.wait(req);
            ASSERT_EQ(buf, expect)
                << "ranks=" << ranks << " root=" << root
                << " algo=" << coll::algo_name(algo);
          });
        }
      }
    }
  }
}

TEST(IcollDifferential, IreduceEveryAlgorithmEveryRoot) {
  for (int ranks : {2, 3, 5, 8}) {
    for (CollAlgo algo : coll::algos_for(CollOp::kReduce)) {
      World world(ranks, NetworkProfile::zero(),
                  coll::forced_tuning(CollOp::kReduce, algo));
      for (i64 count : {i64(3), i64(2048), i64(131072)}) {
        const std::vector<i64> expect = rank_sum(ranks, count);
        for (int root = 0; root < ranks; ++root) {
          world.run([&, count, root](Rank& r) {
            std::vector<i64> in(static_cast<size_t>(count));
            for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
            bool is_root = r.rank() == root;
            std::vector<i64> out(is_root ? static_cast<size_t>(count) : 0);
            Request req =
                r.ireduce(in.data(), is_root ? out.data() : nullptr,
                          int(count), Datatype::kLong, ReduceOp::kSum, root);
            r.wait(req);
            if (is_root) {
              ASSERT_EQ(out, expect)
                  << "ranks=" << ranks << " root=" << root
                  << " algo=" << coll::algo_name(algo);
            }
          });
        }
      }
    }
  }
}

TEST(IcollDifferential, IallgatherEveryAlgorithm) {
  for (int ranks : {2, 3, 5, 8}) {
    for (CollAlgo algo : coll::algos_for(CollOp::kAllgather)) {
      World world(ranks, NetworkProfile::zero(),
                  coll::forced_tuning(CollOp::kAllgather, algo));
      for (i64 count : {i64(1), i64(257), i64(16384)}) {
        world.run([&, count](Rank& r) {
          int n = r.size();
          std::vector<i64> in(static_cast<size_t>(count));
          for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
          std::vector<i64> expect(static_cast<size_t>(count) * size_t(n));
          for (int k = 0; k < n; ++k)
            for (i64 i = 0; i < count; ++i)
              expect[size_t(k) * size_t(count) + size_t(i)] = gen(k, i);
          std::vector<i64> out(static_cast<size_t>(count) * size_t(n), -2);
          Request req = r.iallgather(in.data(), int(count), out.data(),
                                     int(count), Datatype::kLong);
          r.wait(req);
          ASSERT_EQ(out, expect) << "ranks=" << ranks << " count=" << count
                                 << " algo=" << coll::algo_name(algo);
        });
      }
    }
  }
}

TEST(IcollDifferential, IalltoallEveryAlgorithm) {
  for (int ranks : {2, 3, 5, 8}) {
    for (CollAlgo algo : coll::algos_for(CollOp::kAlltoall)) {
      World world(ranks, NetworkProfile::zero(),
                  coll::forced_tuning(CollOp::kAlltoall, algo));
      for (i64 count : {i64(1), i64(513), i64(16384)}) {
        world.run([&, count](Rank& r) {
          int n = r.size();
          std::vector<i64> in(static_cast<size_t>(count) * size_t(n));
          for (size_t i = 0; i < in.size(); ++i)
            in[i] = gen(r.rank(), i64(i));
          // Block `src` of my output is block `me` of rank src's input.
          std::vector<i64> expect(in.size()), out(in.size(), -2);
          for (int src = 0; src < n; ++src)
            for (i64 i = 0; i < count; ++i)
              expect[size_t(src) * size_t(count) + size_t(i)] =
                  gen(src, i64(r.rank()) * count + i);
          Request req = r.ialltoall(in.data(), int(count), out.data(),
                                    int(count), Datatype::kLong);
          r.wait(req);
          ASSERT_EQ(out, expect) << "ranks=" << ranks << " count=" << count
                                 << " algo=" << coll::algo_name(algo);
        });
      }
    }
  }
}

TEST(IcollDifferential, IbarrierEveryAlgorithmCompletes) {
  for (int ranks : {2, 3, 5, 8}) {
    for (CollAlgo algo : coll::algos_for(CollOp::kBarrier)) {
      World world(ranks, NetworkProfile::zero(),
                  coll::forced_tuning(CollOp::kBarrier, algo));
      world.run([&](Rank& r) {
        for (int iter = 0; iter < 8; ++iter) {
          Request req = r.ibarrier();
          r.wait(req);
        }
      });
    }
  }
}

TEST(IcollDifferential, IreduceScatterEveryAlgorithm) {
  for (int ranks : {2, 3, 5, 8}) {
    for (CollAlgo algo : coll::algos_for(CollOp::kReduceScatter)) {
      World world(ranks, NetworkProfile::zero(),
                  coll::forced_tuning(CollOp::kReduceScatter, algo));
      for (i64 base : {i64(1), i64(257), i64(8192)}) {
        world.run([&, base](Rank& r) {
          int n = r.size();
          // Non-uniform counts exercise the offset bookkeeping.
          std::vector<int> counts(static_cast<size_t>(n));
          i64 total = 0;
          for (int i = 0; i < n; ++i) {
            counts[size_t(i)] = int(base) + i;
            total += counts[size_t(i)];
          }
          std::vector<i64> in(static_cast<size_t>(total));
          for (i64 i = 0; i < total; ++i) in[size_t(i)] = gen(r.rank(), i);
          size_t mine = size_t(counts[size_t(r.rank())]);
          i64 first = 0;
          for (int i = 0; i < r.rank(); ++i) first += counts[size_t(i)];
          const std::vector<i64> expect = rank_sum(n, i64(mine), first);
          std::vector<i64> out(mine, -2);
          Request req =
              r.ireduce_scatter(in.data(), out.data(), counts.data(),
                                Datatype::kLong, ReduceOp::kSum);
          r.wait(req);
          ASSERT_EQ(out, expect) << "ranks=" << ranks << " base=" << base
                                 << " algo=" << coll::algo_name(algo);
        });
      }
    }
  }
}

TEST(IcollDifferential, IscanEveryAlgorithm) {
  for (int ranks : {2, 3, 5, 8}) {
    for (CollAlgo algo : coll::algos_for(CollOp::kScan)) {
      World world(ranks, NetworkProfile::zero(),
                  coll::forced_tuning(CollOp::kScan, algo));
      for (i64 count : {i64(1), i64(257), i64(65536)}) {
        world.run([&, count](Rank& r) {
          std::vector<i64> in(static_cast<size_t>(count));
          for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
          const std::vector<i64> expect = rank_sum(r.rank() + 1, count);
          std::vector<i64> out(static_cast<size_t>(count), -2);
          Request req = r.iscan(in.data(), out.data(), int(count),
                                Datatype::kLong, ReduceOp::kSum);
          r.wait(req);
          ASSERT_EQ(out, expect) << "ranks=" << ranks << " count=" << count
                                 << " algo=" << coll::algo_name(algo);
        });
      }
    }
  }
}

TEST(IcollDifferential, IexscanEveryAlgorithm) {
  for (int ranks : {2, 3, 5, 8}) {
    for (CollAlgo algo : coll::algos_for(CollOp::kExscan)) {
      World world(ranks, NetworkProfile::zero(),
                  coll::forced_tuning(CollOp::kExscan, algo));
      for (i64 count : {i64(1), i64(257), i64(65536)}) {
        world.run([&, count](Rank& r) {
          std::vector<i64> in(static_cast<size_t>(count));
          for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
          const std::vector<i64> expect = rank_sum(r.rank(), count);
          std::vector<i64> out(static_cast<size_t>(count), -1);
          Request req = r.iexscan(in.data(), out.data(), int(count),
                                  Datatype::kLong, ReduceOp::kSum);
          r.wait(req);
          if (r.rank() > 0) {  // rank 0's recvbuf is undefined
            ASSERT_EQ(out, expect)
                << "ranks=" << ranks << " count=" << count
                << " algo=" << coll::algo_name(algo);
          }
        });
      }
    }
  }
}

TEST(IcollInPlace, IreduceScatterIscanIexscan) {
  for (int ranks : {3, 4}) {
    World world(ranks, NetworkProfile::zero());
    world.run([&](Rank& r) {
      int n = r.size();
      const i64 count = 1000;
      std::vector<int> counts(static_cast<size_t>(n), int(count));
      std::vector<i64> in(static_cast<size_t>(count) * size_t(n));
      for (size_t i = 0; i < in.size(); ++i) in[i] = gen(r.rank(), i64(i));

      std::vector<i64> expect(static_cast<size_t>(count));
      r.reduce_scatter(in.data(), expect.data(), counts.data(),
                       Datatype::kLong, ReduceOp::kSum);
      std::vector<i64> buf = in;  // in-place: full vector in recvbuf
      Request req = r.ireduce_scatter(kInPlace, buf.data(), counts.data(),
                                      Datatype::kLong, ReduceOp::kSum);
      r.wait(req);
      ASSERT_TRUE(std::equal(expect.begin(), expect.end(), buf.begin()));

      std::vector<i64> sexp(static_cast<size_t>(count));
      r.scan(in.data(), sexp.data(), int(count), Datatype::kLong,
             ReduceOp::kSum);
      std::vector<i64> sbuf(in.begin(), in.begin() + count);
      req = r.iscan(kInPlace, sbuf.data(), int(count), Datatype::kLong,
                    ReduceOp::kSum);
      r.wait(req);
      ASSERT_TRUE(std::equal(sexp.begin(), sexp.end(), sbuf.begin()));

      std::vector<i64> eexp(static_cast<size_t>(count), -7);
      r.exscan(in.data(), eexp.data(), int(count), Datatype::kLong,
               ReduceOp::kSum);
      std::vector<i64> ebuf(in.begin(), in.begin() + count);
      req = r.iexscan(kInPlace, ebuf.data(), int(count), Datatype::kLong,
                      ReduceOp::kSum);
      r.wait(req);
      if (r.rank() > 0) {
        ASSERT_TRUE(std::equal(eexp.begin(), eexp.end(), ebuf.begin()));
      }
    });
  }
}

TEST(IcollInPlace, IallreduceIreduceIallgather) {
  const i64 count = 777;
  for (int ranks : {3, 4, 8}) {
    World world(ranks);
    world.run([&](Rank& r) {
      int n = r.size();
      // iallreduce IN_PLACE
      std::vector<i64> in(static_cast<size_t>(count)), expect(static_cast<size_t>(count));
      for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
      r.allreduce(in.data(), expect.data(), int(count), Datatype::kLong,
                  ReduceOp::kSum);
      std::vector<i64> buf = in;
      Request req = r.iallreduce(kInPlace, buf.data(), int(count),
                                 Datatype::kLong, ReduceOp::kSum);
      r.wait(req);
      ASSERT_EQ(buf, expect);
      // ireduce IN_PLACE at root 0
      buf = in;
      req = r.rank() == 0
                ? r.ireduce(kInPlace, buf.data(), int(count), Datatype::kLong,
                            ReduceOp::kSum, 0)
                : r.ireduce(buf.data(), nullptr, int(count), Datatype::kLong,
                            ReduceOp::kSum, 0);
      r.wait(req);
      if (r.rank() == 0) {
        ASSERT_EQ(buf, expect);
      }
      // iallgather IN_PLACE
      std::vector<i64> all(static_cast<size_t>(count) * size_t(n), -1);
      std::vector<i64> all_expect(all.size(), -2);
      r.allgather(in.data(), int(count), all_expect.data(), int(count),
                  Datatype::kLong);
      std::memcpy(all.data() + size_t(r.rank()) * static_cast<size_t>(count), in.data(),
                  static_cast<size_t>(count) * sizeof(i64));
      req = r.iallgather(kInPlace, 0, all.data(), int(count), Datatype::kLong);
      r.wait(req);
      ASSERT_EQ(all, all_expect);
    });
  }
}

TEST(IcollOutstanding, MultipleOutstandingCompleteOutOfOrder) {
  const i64 count = 4096;
  const int kOps = 4;
  for (int ranks : {3, 8}) {
    World world(ranks);
    world.run([&](Rank& r) {
      std::vector<std::vector<i64>> in(kOps), out(kOps), expect(kOps);
      std::vector<Request> reqs(kOps);
      for (int k = 0; k < kOps; ++k) {
        in[size_t(k)].resize(static_cast<size_t>(count));
        out[size_t(k)].assign(static_cast<size_t>(count), -1);
        expect[size_t(k)].assign(static_cast<size_t>(count), -2);
        for (i64 i = 0; i < count; ++i)
          in[size_t(k)][size_t(i)] = gen(r.rank(), i + k);
        r.allreduce(in[size_t(k)].data(), expect[size_t(k)].data(),
                    int(count), Datatype::kLong, ReduceOp::kSum);
      }
      for (int k = 0; k < kOps; ++k)
        reqs[size_t(k)] =
            r.iallreduce(in[size_t(k)].data(), out[size_t(k)].data(),
                         int(count), Datatype::kLong, ReduceOp::kSum);
      // Wait in reverse initiation order: later schedules complete while
      // earlier ones are still outstanding.
      for (int k = kOps - 1; k >= 0; --k) r.wait(reqs[size_t(k)]);
      for (int k = 0; k < kOps; ++k) ASSERT_EQ(out[size_t(k)], expect[size_t(k)]);
    });
  }
}

TEST(IcollOutstanding, MixedKindsAcrossCollectives) {
  const i64 count = 1024;
  World world(5);
  world.run([&](Rank& r) {
    std::vector<i64> a(static_cast<size_t>(count)), asum(static_cast<size_t>(count)), aexp(static_cast<size_t>(count));
    std::vector<i64> b(static_cast<size_t>(count));
    for (i64 i = 0; i < count; ++i) {
      a[size_t(i)] = gen(r.rank(), i);
      b[size_t(i)] = r.rank() == 2 ? gen(2, i) * 3 : -1;
    }
    r.allreduce(a.data(), aexp.data(), int(count), Datatype::kLong,
                ReduceOp::kMax);
    Request rb = r.ibcast(b.data(), int(count), Datatype::kLong, 2);
    Request ra = r.iallreduce(a.data(), asum.data(), int(count),
                              Datatype::kLong, ReduceOp::kMax);
    Request bar = r.ibarrier();
    // Completion order deliberately differs from initiation order.
    r.wait(ra);
    r.wait(bar);
    r.wait(rb);
    ASSERT_EQ(asum, aexp);
    for (i64 i = 0; i < count; ++i) ASSERT_EQ(b[size_t(i)], gen(2, i) * 3);
  });
}

// Blocking and nonblocking collectives draw their schedule tags from one
// per-communicator sequence: blocking calls issued while a nonblocking one
// is outstanding on the same communicator must neither take its messages
// nor wait on it. The shm path is off so every call runs a schedule.
TEST(IcollOutstanding, BlockingCollectivesWhileNonblockingOutstanding) {
  CollTuning tuning;
  tuning.enable_shm = false;
  for (int ranks : {3, 5, 8}) {
    World world(ranks, NetworkProfile::zero(), tuning);
    const int root = ranks - 1;
    for (i64 count : {i64(3), i64(4096), i64(131072)}) {
      const std::vector<i64> expect = rank_sum(ranks, count);
      world.run([&, count](Rank& r) {
        const size_t len = static_cast<size_t>(count);
        std::vector<i64> in(len), pending(len, -1), blocking(len, -2), buf(len);
        for (i64 i = 0; i < count; ++i) {
          in[size_t(i)] = gen(r.rank(), i);
          buf[size_t(i)] = r.rank() == root ? gen(root, i) * 3 : -1;
        }
        Request req = r.iallreduce(in.data(), pending.data(), int(count),
                                   Datatype::kLong, ReduceOp::kSum);
        r.allreduce(in.data(), blocking.data(), int(count), Datatype::kLong,
                    ReduceOp::kSum);
        r.bcast(buf.data(), int(count), Datatype::kLong, root);
        r.wait(req);
        ASSERT_EQ(pending, expect) << "ranks=" << ranks << " count=" << count;
        ASSERT_EQ(blocking, expect) << "ranks=" << ranks << " count=" << count;
        for (i64 i = 0; i < count; ++i)
          ASSERT_EQ(buf[size_t(i)], gen(root, i) * 3);
      });
    }
  }
}

TEST(IcollOutstanding, WaitallOverMixedP2pAndCollectiveRequests) {
  const i64 count = 2048;
  World world(4);
  world.run([&](Rank& r) {
    int n = r.size();
    int right = (r.rank() + 1) % n, left = (r.rank() - 1 + n) % n;
    std::vector<i64> in(static_cast<size_t>(count)), out(static_cast<size_t>(count), -1),
        expect(static_cast<size_t>(count));
    for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
    r.allreduce(in.data(), expect.data(), int(count), Datatype::kLong,
                ReduceOp::kSum);
    i64 token = r.rank(), got = -1;
    std::vector<Request> reqs;
    reqs.push_back(r.irecv(&got, 1, Datatype::kLong, left, 7));
    reqs.push_back(r.iallreduce(in.data(), out.data(), int(count),
                                Datatype::kLong, ReduceOp::kSum));
    reqs.push_back(r.isend(&token, 1, Datatype::kLong, right, 7));
    r.waitall(reqs);
    ASSERT_EQ(got, i64(left));
    ASSERT_EQ(out, expect);
  });
}

TEST(IcollRequestApi, WaitanyDrainsMixedRequests) {
  const i64 count = 512;
  World world(4);
  world.run([&](Rank& r) {
    std::vector<i64> a(static_cast<size_t>(count)), asum(static_cast<size_t>(count), -1),
        aexp(static_cast<size_t>(count));
    for (i64 i = 0; i < count; ++i) a[size_t(i)] = gen(r.rank(), i);
    r.allreduce(a.data(), aexp.data(), int(count), Datatype::kLong,
                ReduceOp::kSum);
    std::vector<Request> reqs;
    reqs.push_back(Request{});  // inactive slot must be skipped
    reqs.push_back(r.iallreduce(a.data(), asum.data(), int(count),
                                Datatype::kLong, ReduceOp::kSum));
    reqs.push_back(r.ibarrier());
    int completed = 0;
    while (true) {
      int idx = r.waitany(reqs);
      if (idx < 0) break;
      EXPECT_TRUE(idx == 1 || idx == 2);
      EXPECT_FALSE(reqs[size_t(idx)].valid());
      ++completed;
    }
    EXPECT_EQ(completed, 2);
    ASSERT_EQ(asum, aexp);
  });
}

TEST(IcollRequestApi, TestallDeallocatesAllOrNothing) {
  const i64 count = 512;
  World world(3);
  world.run([&](Rank& r) {
    std::vector<i64> a(static_cast<size_t>(count)), out(static_cast<size_t>(count), -1);
    for (i64 i = 0; i < count; ++i) a[size_t(i)] = gen(r.rank(), i);
    std::vector<Request> reqs;
    reqs.push_back(r.iallreduce(a.data(), out.data(), int(count),
                                Datatype::kLong, ReduceOp::kSum));
    reqs.push_back(r.ibarrier());
    // Poll to completion; incomplete polls must leave every request valid.
    while (!r.testall(reqs)) {
      for (const Request& q : reqs) EXPECT_TRUE(q.valid());
      std::this_thread::yield();
    }
    for (const Request& q : reqs) EXPECT_FALSE(q.valid());
    // All-inactive testall is trivially true.
    EXPECT_TRUE(r.testall(reqs));
  });
}

// A rank blocked in a plain recv must keep progressing its outstanding
// schedules: rank 1 only sends after its own collective completed, which
// needs rank 0's share of the collective to advance while rank 0 blocks.
TEST(IcollProgress, BlockingRecvProgressesOutstandingSchedules) {
  const i64 count = 131072;  // rendezvous-sized: needs multiple rounds
  World world(4, NetworkProfile::zero(),
              coll::forced_tuning(CollOp::kAllreduce, CollAlgo::kRing));
  world.run([&](Rank& r) {
    std::vector<i64> in(static_cast<size_t>(count)), out(static_cast<size_t>(count), -1),
        expect(static_cast<size_t>(count));
    for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
    r.allreduce(in.data(), expect.data(), int(count), Datatype::kLong,
                ReduceOp::kSum);
    Request req = r.iallreduce(in.data(), out.data(), int(count),
                               Datatype::kLong, ReduceOp::kSum);
    i64 token = 42;
    if (r.rank() == 0) {
      i64 got = 0;
      r.recv(&got, 1, Datatype::kLong, 1, 9);  // blocks until 1 finishes
      EXPECT_EQ(got, token);
      r.wait(req);
    } else {
      r.wait(req);
      if (r.rank() == 1) r.send(&token, 1, Datatype::kLong, 0, 9);
    }
    ASSERT_EQ(out, expect);
  });
}

TEST(IcollProgress, ComputeTestOverlapLoopCompletes) {
  const i64 count = 65536;
  World world(8);
  world.run([&](Rank& r) {
    std::vector<i64> in(static_cast<size_t>(count)), out(static_cast<size_t>(count), -1),
        expect(static_cast<size_t>(count));
    for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
    r.allreduce(in.data(), expect.data(), int(count), Datatype::kLong,
                ReduceOp::kSum);
    Request req = r.iallreduce(in.data(), out.data(), int(count),
                               Datatype::kLong, ReduceOp::kSum);
    // The canonical overlap pattern: compute chunks with a progress poll
    // between them, then wait.
    volatile i64 sink = 0;
    while (!r.test(req, nullptr)) {
      for (int i = 0; i < 1000; ++i) sink = sink + i;
      r.progress();
    }
    ASSERT_EQ(out, expect);
  });
}

// A poll loop over pure-p2p requests must still serve this rank's share
// of outstanding collectives: rank 1 sends only after its collective
// completed, which needs rank 0's schedule to advance while rank 0 polls
// nothing but the receive.
TEST(IcollProgress, P2pOnlyPollLoopServesOutstandingSchedules) {
  const i64 count = 131072;  // multi-round rendezvous-sized schedule
  World world(2, NetworkProfile::zero(),
              coll::forced_tuning(CollOp::kAllreduce, CollAlgo::kRing));
  world.run([&](Rank& r) {
    std::vector<i64> in(static_cast<size_t>(count)),
        out(static_cast<size_t>(count), -1), expect(static_cast<size_t>(count));
    for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
    r.allreduce(in.data(), expect.data(), int(count), Datatype::kLong,
                ReduceOp::kSum);
    Request coll = r.iallreduce(in.data(), out.data(), int(count),
                                Datatype::kLong, ReduceOp::kSum);
    i64 token = 7;
    if (r.rank() == 0) {
      i64 got = 0;
      std::vector<Request> only_p2p;
      only_p2p.push_back(r.irecv(&got, 1, Datatype::kLong, 1, 5));
      EXPECT_EQ(r.waitany(only_p2p), 0);
      EXPECT_EQ(got, token);
    } else {
      r.wait(coll);
      r.send(&token, 1, Datatype::kLong, 0, 5);
    }
    r.wait(coll);
    ASSERT_EQ(out, expect);
  });
}

// MPI_Comm_free must let a pending collective on that communicator
// complete (the schedule holds a pointer into the CommData being freed).
TEST(IcollComms, CommFreeDrainsOutstandingSchedules) {
  const i64 count = 8192;
  World world(4);
  world.run([&](Rank& r) {
    Comm dup = r.comm_dup(kCommWorld);
    std::vector<i64> in(static_cast<size_t>(count)),
        out(static_cast<size_t>(count), -1), expect(static_cast<size_t>(count));
    for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
    r.allreduce(in.data(), expect.data(), int(count), Datatype::kLong,
                ReduceOp::kSum, dup);
    Request req = r.iallreduce(in.data(), out.data(), int(count),
                               Datatype::kLong, ReduceOp::kSum, dup);
    r.comm_free(dup);  // must drain, not dangle
    r.wait(req);
    ASSERT_EQ(out, expect);
  });
}

TEST(IcollComms, SplitAndDupCommunicatorsInterleaved) {
  const i64 count = 1024;
  World world(6);
  world.run([&](Rank& r) {
    Comm dup = r.comm_dup(kCommWorld);
    Comm half = r.comm_split(kCommWorld, r.rank() % 2, r.rank());
    std::vector<i64> in(static_cast<size_t>(count)), a(static_cast<size_t>(count), -1),
        b(static_cast<size_t>(count), -1), aexp(static_cast<size_t>(count)), bexp(static_cast<size_t>(count));
    for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
    r.allreduce(in.data(), aexp.data(), int(count), Datatype::kLong,
                ReduceOp::kSum, dup);
    r.allreduce(in.data(), bexp.data(), int(count), Datatype::kLong,
                ReduceOp::kSum, half);
    // Outstanding schedules on two communicators at once.
    Request ra = r.iallreduce(in.data(), a.data(), int(count),
                              Datatype::kLong, ReduceOp::kSum, dup);
    Request rb = r.iallreduce(in.data(), b.data(), int(count),
                              Datatype::kLong, ReduceOp::kSum, half);
    r.wait(rb);
    r.wait(ra);
    ASSERT_EQ(a, aexp);
    ASSERT_EQ(b, bexp);
    r.comm_free(half);
    r.comm_free(dup);
  });
}

TEST(IcollStress, BackToBackMixedCollectivesStayConsistent) {
  const int kIters = 40;
  World world(8);
  world.run([&](Rank& r) {
    for (int it = 0; it < kIters; ++it) {
      i64 v = gen(r.rank(), it), sum = -1, expect = 0;
      for (int k = 0; k < r.size(); ++k) expect += gen(k, it);
      Request ra = r.iallreduce(&v, &sum, 1, Datatype::kLong, ReduceOp::kSum);
      Request rb = r.ibarrier();
      r.wait(ra);
      r.wait(rb);
      ASSERT_EQ(sum, expect) << "iter " << it;
    }
  });
}

TEST(IcollEnv, WtickIsSane) {
  World world(1);
  world.run([&](Rank& r) {
    EXPECT_GT(r.wtick(), 0.0);
    EXPECT_LT(r.wtick(), 1.0);
  });
}

TEST(IcollCostModel, ChargesWireTimeAsDeadline) {
  // On a profile with real latency, a nonblocking collective initiated and
  // immediately waited must still charge at least one wire cost.
  NetworkProfile p;
  p.name = "test";
  p.latency_ns = 200'000;  // 0.2 ms per message
  World world(2, p);
  world.run([&](Rank& r) {
    i64 v = 1, s = 0;
    u64 t0 = now_ns();
    Request req = r.iallreduce(&v, &s, 1, Datatype::kLong, ReduceOp::kSum);
    r.wait(req);
    u64 elapsed = now_ns() - t0;
    EXPECT_GE(elapsed, u64(200'000)) << "wire deadline not charged";
    EXPECT_EQ(s, 2);
  });
}

}  // namespace
}  // namespace mpiwasm::simmpi
