// Differential suite for the pluggable collective-algorithm registry:
// every algorithm variant of every collective is validated against a
// sequentially computed reference (identical to the kLinear canonical
// combine order) across message sizes from 1 B to 1 MiB, reduction ops,
// rank counts (power-of-two and not), every root, split/dup'd
// communicators, and MPI_IN_PLACE. Inputs are chosen so all reductions
// are exact in every datatype, making results independent of the
// combine-order differences between tree/ring/doubling algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <random>
#include <string>
#include <thread>

#include "simmpi/coll_algos.h"
#include "simmpi/reduce_ops.h"
#include "simmpi/world.h"
#include "support/timing.h"
#include "support/trace.h"

namespace mpiwasm::simmpi {
namespace {

using coll::CollOp;

/// Tuning that forces `algo` for collective `op` and leaves the rest on
/// auto. The shm context stays enabled so kShm is honored.
CollTuning forced(CollOp op, CollAlgo algo) {
  return coll::forced_tuning(op, algo);
}

/// Forces kShm for every collective that has a kShm variant.
CollTuning all_shm() {
  CollTuning t;
  t.barrier = t.bcast = t.reduce = t.allreduce = t.gather = t.scatter =
      t.allgather = t.alltoall = t.reduce_scatter = t.scan = t.exscan =
          CollAlgo::kShm;
  return t;
}

/// Deterministic exact-in-every-type element for (rank, index): small
/// positive integers so sum/prod/min/max/logical/bitwise all stay exact.
i64 gen(int rank, i64 i) { return ((rank + 1) * 31 + i * 7) % 13 + 1; }

/// Sequential reference reduction over ranks [0, n) in canonical order.
template <typename T>
std::vector<T> reduce_reference(int n, i64 count, ReduceOp op, Datatype dt) {
  std::vector<T> acc(count);
  for (i64 i = 0; i < count; ++i) acc[size_t(i)] = T(gen(0, i));
  std::vector<T> contrib(count);
  for (int rank = 1; rank < n; ++rank) {
    for (i64 i = 0; i < count; ++i) contrib[size_t(i)] = T(gen(rank, i));
    apply_reduce(op, dt, contrib.data(), acc.data(), int(count));
  }
  return acc;
}

struct AlgoCase {
  int ranks;
  CollAlgo algo;
};

std::vector<AlgoCase> cases_for(CollOp op) {
  std::vector<AlgoCase> cases;
  for (int ranks : {2, 3, 4, 5, 8})
    for (CollAlgo a : coll::algos_for(op)) cases.push_back({ranks, a});
  return cases;
}

// Sizes in elements of i64 (8 B .. 1 MiB), plus byte-level cases below.
const i64 kCounts[] = {1, 3, 16, 257, 2048, 65536, 131072};

TEST(CollAlgoDifferential, AllreduceEveryAlgorithmMatchesReference) {
  for (const auto& [ranks, algo] : cases_for(CollOp::kAllreduce)) {
    World world(ranks, NetworkProfile::zero(),
                forced(CollOp::kAllreduce, algo));
    for (i64 count : kCounts) {
      auto expect = reduce_reference<i64>(ranks, count, ReduceOp::kSum,
                                          Datatype::kLong);
      world.run([&, count](Rank& r) {
        std::vector<i64> in(count), out(size_t(count), -1);
        for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
        r.allreduce(in.data(), out.data(), int(count), Datatype::kLong,
                    ReduceOp::kSum);
        ASSERT_EQ(out, expect) << "ranks=" << ranks << " count=" << count
                               << " algo=" << coll::algo_name(algo);
      });
    }
  }
}

TEST(CollAlgoDifferential, AllreduceEveryOpAndType) {
  const i64 count = 257;
  for (const auto& [ranks, algo] : cases_for(CollOp::kAllreduce)) {
    World world(ranks, NetworkProfile::zero(),
                forced(CollOp::kAllreduce, algo));
    world.run([&](Rank& r) {
      // Exact double prod/sum/min.
      for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kProd, ReduceOp::kMin,
                          ReduceOp::kMax}) {
        auto expect =
            reduce_reference<f64>(r.size(), count, op, Datatype::kDouble);
        std::vector<f64> in(count), out(count);
        for (i64 i = 0; i < count; ++i) in[size_t(i)] = f64(gen(r.rank(), i));
        r.allreduce(in.data(), out.data(), int(count), Datatype::kDouble, op);
        ASSERT_EQ(out, expect) << coll::algo_name(algo) << " op " << int(op);
      }
      // Bitwise / logical on unsigned.
      for (ReduceOp op : {ReduceOp::kBand, ReduceOp::kBor, ReduceOp::kLand,
                          ReduceOp::kLor}) {
        auto expect =
            reduce_reference<u32>(r.size(), count, op, Datatype::kUnsigned);
        std::vector<u32> in(count), out(count);
        for (i64 i = 0; i < count; ++i) in[size_t(i)] = u32(gen(r.rank(), i));
        r.allreduce(in.data(), out.data(), int(count), Datatype::kUnsigned,
                    op);
        ASSERT_EQ(out, expect) << coll::algo_name(algo) << " op " << int(op);
      }
    });
  }
}

TEST(CollAlgoDifferential, BcastEveryAlgorithmEveryRoot) {
  for (const auto& [ranks, algo] : cases_for(CollOp::kBcast)) {
    World world(ranks, NetworkProfile::zero(), forced(CollOp::kBcast, algo));
    for (i64 bytes : {i64(1), i64(3), i64(1024), i64(65536), i64(1) << 20}) {
      world.run([&, bytes](Rank& r) {
        for (int root = 0; root < r.size(); ++root) {
          std::vector<u8> buf(size_t(bytes), u8(0));
          if (r.rank() == root)
            for (i64 i = 0; i < bytes; ++i)
              buf[size_t(i)] = u8(gen(root, i));
          r.bcast(buf.data(), int(bytes), Datatype::kByte, root);
          for (i64 i = 0; i < bytes; ++i)
            ASSERT_EQ(buf[size_t(i)], u8(gen(root, i)))
                << "root=" << root << " algo=" << coll::algo_name(algo);
        }
      });
    }
  }
}

TEST(CollAlgoDifferential, ReduceEveryAlgorithmEveryRoot) {
  for (const auto& [ranks, algo] : cases_for(CollOp::kReduce)) {
    World world(ranks, NetworkProfile::zero(), forced(CollOp::kReduce, algo));
    for (i64 count : {i64(515), i64(20011)}) {
      auto expect =
          reduce_reference<i64>(ranks, count, ReduceOp::kSum, Datatype::kLong);
      world.run([&, count](Rank& r) {
        for (int root = 0; root < r.size(); ++root) {
          std::vector<i64> in(count), out(size_t(count), -1);
          for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
          r.reduce(in.data(), r.rank() == root ? out.data() : nullptr,
                   int(count), Datatype::kLong, ReduceOp::kSum, root);
          if (r.rank() == root) {
            ASSERT_EQ(out, expect) << "root=" << root << " count=" << count
                                   << " algo=" << coll::algo_name(algo);
          }
        }
      });
    }
  }
}

TEST(CollAlgoDifferential, GatherScatterEveryAlgorithmEveryRoot) {
  const i64 count = 129;  // elements per rank
  for (const auto& [ranks, algo] : cases_for(CollOp::kGather)) {
    World gw(ranks, NetworkProfile::zero(), forced(CollOp::kGather, algo));
    gw.run([&](Rank& r) {
      for (int root = 0; root < r.size(); ++root) {
        std::vector<i32> mine(count);
        for (i64 i = 0; i < count; ++i)
          mine[size_t(i)] = i32(gen(r.rank(), i)) + r.rank() * 1000;
        std::vector<i32> all(size_t(count) * r.size(), -1);
        r.gather(mine.data(), int(count), all.data(), int(count),
                 Datatype::kInt, root);
        if (r.rank() == root) {
          for (int src = 0; src < r.size(); ++src)
            for (i64 i = 0; i < count; ++i)
              ASSERT_EQ(all[size_t(src) * count + size_t(i)],
                        i32(gen(src, i)) + src * 1000)
                  << "root=" << root << " algo=" << coll::algo_name(algo);
        }
      }
    });
    World sw(ranks, NetworkProfile::zero(), forced(CollOp::kScatter, algo));
    sw.run([&](Rank& r) {
      for (int root = 0; root < r.size(); ++root) {
        std::vector<i32> all;
        if (r.rank() == root) {
          all.resize(size_t(count) * r.size());
          for (size_t i = 0; i < all.size(); ++i) all[i] = i32(i) * 3 + root;
        }
        std::vector<i32> mine(size_t(count), -1);
        r.scatter(all.data(), int(count), mine.data(), int(count),
                  Datatype::kInt, root);
        for (i64 i = 0; i < count; ++i)
          ASSERT_EQ(mine[size_t(i)], i32(r.rank() * count + i) * 3 + root)
              << "root=" << root << " algo=" << coll::algo_name(algo);
      }
    });
  }
}

TEST(CollAlgoDifferential, AllgatherEveryAlgorithm) {
  for (const auto& [ranks, algo] : cases_for(CollOp::kAllgather)) {
    World world(ranks, NetworkProfile::zero(),
                forced(CollOp::kAllgather, algo));
    for (i64 count : {i64(1), i64(63), i64(1024), i64(16384)}) {
      world.run([&, count](Rank& r) {
        std::vector<i64> mine(count);
        for (i64 i = 0; i < count; ++i) mine[size_t(i)] = gen(r.rank(), i);
        std::vector<i64> all(size_t(count) * r.size(), -1);
        r.allgather(mine.data(), int(count), all.data(), int(count),
                    Datatype::kLong);
        for (int src = 0; src < r.size(); ++src)
          for (i64 i = 0; i < count; ++i)
            ASSERT_EQ(all[size_t(src) * count + size_t(i)], gen(src, i))
                << "algo=" << coll::algo_name(algo) << " count=" << count;
      });
    }
  }
}

TEST(CollAlgoDifferential, AlltoallEveryAlgorithm) {
  for (const auto& [ranks, algo] : cases_for(CollOp::kAlltoall)) {
    World world(ranks, NetworkProfile::zero(),
                forced(CollOp::kAlltoall, algo));
    for (i64 count : {i64(1), i64(65), i64(16411)}) {
      world.run([&, count](Rank& r) {
        int n = r.size();
        std::vector<i32> send(size_t(count) * n), recv(size_t(count) * n, -1);
        for (int dst = 0; dst < n; ++dst)
          for (i64 i = 0; i < count; ++i)
            send[size_t(dst) * count + size_t(i)] =
                r.rank() * 10000 + dst * 100 + i32(i % 97);
        r.alltoall(send.data(), int(count), recv.data(), int(count),
                   Datatype::kInt);
        for (int src = 0; src < n; ++src)
          for (i64 i = 0; i < count; ++i)
            ASSERT_EQ(recv[size_t(src) * count + size_t(i)],
                      src * 10000 + r.rank() * 100 + i32(i % 97))
                << "algo=" << coll::algo_name(algo) << " count=" << count;
      });
    }
  }
}

// A send block larger than the receive block would overrun its slot: every
// path rejects the call on every rank before copying anything.
TEST(CollAlgoDifferential, AlltoallRejectsTruncationBeforeAnyCopy) {
  const int scount = 16, rcount = 8;
  const i32 kCanary = 0x5A5A5A5A;
  for (int ranks : {1, 2, 3}) {
    for (CollAlgo algo : coll::algos_for(CollOp::kAlltoall)) {
      World world(ranks, NetworkProfile::zero(),
                  forced(CollOp::kAlltoall, algo));
      std::atomic<int> throws{0};
      world.run([&](Rank& r) {
        const int n = r.size();
        std::vector<i32> send(size_t(scount) * n, 7);
        // The receive view plus a canary run past its end.
        std::vector<i32> recv(size_t(rcount) * n + 16, kCanary);
        try {
          r.alltoall(send.data(), scount, recv.data(), rcount,
                     Datatype::kInt);
        } catch (const MpiError&) {
          ++throws;
        }
        EXPECT_THROW(r.ialltoall(send.data(), scount, recv.data(), rcount,
                                 Datatype::kInt),
                     MpiError);
        for (size_t i = 0; i < recv.size(); ++i)
          ASSERT_EQ(recv[i], kCanary)
              << "i=" << i << " algo=" << coll::algo_name(algo);
      });
      EXPECT_EQ(throws.load(), ranks) << "algo=" << coll::algo_name(algo);
    }
  }
}

// Ring and pairwise schedules take a step per peer but share one tag round
// across the steps: a round per step would run out of the schedule's
// kIcollRounds (64) tag rounds above 33 ranks.
TEST(CollAlgoDifferential, RingAndPairwiseOnLargeCommunicator) {
  const int ranks = 72;
  const CollTuning ring_allreduce = forced(CollOp::kAllreduce, CollAlgo::kRing);
  World w1(ranks, NetworkProfile::zero(), ring_allreduce);
  w1.run([&](Rank& r) {
    const int n = r.size();
    std::vector<i64> v(size_t(n) + 3), sum(v.size(), -1);
    for (size_t i = 0; i < v.size(); ++i) v[i] = gen(r.rank(), i64(i));
    r.allreduce(v.data(), sum.data(), int(v.size()), Datatype::kLong,
                ReduceOp::kSum);
    for (size_t i = 0; i < v.size(); ++i) {
      i64 want = 0;
      for (int k = 0; k < n; ++k) want += gen(k, i64(i));
      ASSERT_EQ(sum[i], want) << "element " << i;
    }
  });
  World w2(ranks, NetworkProfile::zero(),
           forced(CollOp::kAlltoall, CollAlgo::kPairwise));
  w2.run([&](Rank& r) {
    const int n = r.size();
    std::vector<i32> send(static_cast<size_t>(n)), recv(send.size(), -1);
    for (int dst = 0; dst < n; ++dst) send[size_t(dst)] = r.rank() * n + dst;
    r.alltoall(send.data(), 1, recv.data(), 1, Datatype::kInt);
    for (int src = 0; src < n; ++src)
      ASSERT_EQ(recv[size_t(src)], src * n + r.rank());
  });
  World w3(ranks, NetworkProfile::zero(),
           forced(CollOp::kAllgather, CollAlgo::kRing));
  w3.run([&](Rank& r) {
    const int n = r.size();
    std::vector<i32> all(static_cast<size_t>(n), -1);
    i32 mine = r.rank() * 3 + 1;
    r.allgather(&mine, 1, all.data(), 1, Datatype::kInt);
    for (int k = 0; k < n; ++k) ASSERT_EQ(all[size_t(k)], k * 3 + 1);
  });
  World w4(ranks, NetworkProfile::zero(),
           forced(CollOp::kReduceScatter, CollAlgo::kPairwise));
  w4.run([&](Rank& r) {
    const int n = r.size();
    std::vector<int> counts(static_cast<size_t>(n), 1);
    std::vector<i64> in(counts.size());
    for (int k = 0; k < n; ++k) in[size_t(k)] = gen(r.rank(), k);
    i64 out = -1;
    r.reduce_scatter(in.data(), &out, counts.data(), Datatype::kLong,
                     ReduceOp::kSum);
    i64 want = 0;
    for (int k = 0; k < n; ++k) want += gen(k, r.rank());
    ASSERT_EQ(out, want);
  });
}

TEST(CollAlgoDifferential, ReduceScatterUnevenCounts) {
  for (const auto& [ranks, algo] : cases_for(CollOp::kReduceScatter)) {
    World world(ranks, NetworkProfile::zero(),
                forced(CollOp::kReduceScatter, algo));
    world.run([&](Rank& r) {
      int n = r.size();
      // Rank i receives (i + 1) * 37 elements.
      std::vector<int> counts(n);
      i64 total = 0;
      for (int i = 0; i < n; ++i) {
        counts[size_t(i)] = (i + 1) * 37;
        total += counts[size_t(i)];
      }
      auto expect = reduce_reference<i64>(n, total, ReduceOp::kSum,
                                          Datatype::kLong);
      std::vector<i64> in(total);
      for (i64 i = 0; i < total; ++i) in[size_t(i)] = gen(r.rank(), i);
      std::vector<i64> out(size_t(counts[size_t(r.rank())]), -1);
      r.reduce_scatter(in.data(), out.data(), counts.data(), Datatype::kLong,
                       ReduceOp::kSum);
      i64 off = 0;
      for (int i = 0; i < r.rank(); ++i) off += counts[size_t(i)];
      for (i64 i = 0; i < counts[size_t(r.rank())]; ++i)
        ASSERT_EQ(out[size_t(i)], expect[size_t(off + i)])
            << "algo=" << coll::algo_name(algo);
    });
  }
}

TEST(CollAlgoDifferential, ScanAndExscanEveryAlgorithm) {
  for (const auto& [ranks, algo] : cases_for(CollOp::kScan)) {
    World sw(ranks, NetworkProfile::zero(), forced(CollOp::kScan, algo));
    for (i64 count : {i64(1), i64(300), i64(40000)}) {
      sw.run([&, count](Rank& r) {
        auto expect = reduce_reference<i64>(r.rank() + 1, count,
                                            ReduceOp::kSum, Datatype::kLong);
        std::vector<i64> in(count), out(size_t(count), -1);
        for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
        r.scan(in.data(), out.data(), int(count), Datatype::kLong,
               ReduceOp::kSum);
        ASSERT_EQ(out, expect)
            << "algo=" << coll::algo_name(algo) << " count=" << count;
      });
    }
    World ew(ranks, NetworkProfile::zero(), forced(CollOp::kExscan, algo));
    ew.run([&](Rank& r) {
      const i64 count = 300;
      std::vector<i64> in(count), out(size_t(count), -7);
      for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
      r.exscan(in.data(), out.data(), int(count), Datatype::kLong,
               ReduceOp::kSum);
      if (r.rank() == 0) {
        for (i64 i = 0; i < count; ++i)
          ASSERT_EQ(out[size_t(i)], -7) << "rank 0 recvbuf must be untouched";
      } else {
        auto expect = reduce_reference<i64>(r.rank(), count, ReduceOp::kSum,
                                            Datatype::kLong);
        ASSERT_EQ(out, expect) << "algo=" << coll::algo_name(algo);
      }
    });
  }
}

TEST(CollAlgoDifferential, BarrierEveryAlgorithmOrders) {
  for (const auto& [ranks, algo] : cases_for(CollOp::kBarrier)) {
    World world(ranks, NetworkProfile::zero(), forced(CollOp::kBarrier, algo));
    std::atomic<int> counter{0};
    world.run([&](Rank& r) {
      for (int phase = 0; phase < 16; ++phase) {
        counter.fetch_add(1);
        r.barrier();
        ASSERT_GE(counter.load(), (phase + 1) * r.size())
            << "algo=" << coll::algo_name(algo);
        r.barrier();
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Split / dup'd communicators
// ---------------------------------------------------------------------------

TEST(CollAlgoDifferential, SplitCommunicatorsEveryAllreduceAlgorithm) {
  for (CollAlgo algo : coll::algos_for(CollOp::kAllreduce)) {
    World world(7, NetworkProfile::zero(), forced(CollOp::kAllreduce, algo));
    world.run([&](Rank& r) {
      Comm half = r.comm_split(kCommWorld, r.rank() % 2, r.rank());
      const i64 count = 1000;
      std::vector<i64> in(count), out(count);
      // Use the sub-communicator rank so the reference is computable.
      for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(half), i);
      r.allreduce(in.data(), out.data(), int(count), Datatype::kLong,
                  ReduceOp::kSum, half);
      auto expect = reduce_reference<i64>(r.size(half), count, ReduceOp::kSum,
                                          Datatype::kLong);
      ASSERT_EQ(out, expect) << "algo=" << coll::algo_name(algo);
      r.comm_free(half);
    });
  }
}

TEST(CollAlgoDifferential, DupCommunicatorRunsShmAndTreeCollectives) {
  for (CollAlgo algo :
       {CollAlgo::kShm, CollAlgo::kBinomial, CollAlgo::kLinear}) {
    World world(5, NetworkProfile::zero(), forced(CollOp::kBcast, algo));
    world.run([&](Rank& r) {
      Comm dup = r.comm_dup(kCommWorld);
      for (int root = 0; root < r.size(dup); ++root) {
        i64 v = r.rank(dup) == root ? 4242 + root : -1;
        r.bcast(&v, 1, Datatype::kLong, root, dup);
        ASSERT_EQ(v, 4242 + root) << "algo=" << coll::algo_name(algo);
      }
      r.comm_free(dup);
    });
  }
}

// ---------------------------------------------------------------------------
// MPI_IN_PLACE semantics
// ---------------------------------------------------------------------------

TEST(CollInPlace, AllreduceReduceScanMatchOutOfPlace) {
  // Sizes on both sides of the shm path's whole/chunked reduction split.
  const i64 kSizes[] = {333, 20011};
  for (CollAlgo algo : coll::algos_for(CollOp::kAllreduce)) {
    World world(6, NetworkProfile::zero(), forced(CollOp::kAllreduce, algo));
    world.run([&](Rank& r) {
      for (i64 count : kSizes) {
        auto expect = reduce_reference<i64>(r.size(), count, ReduceOp::kSum,
                                            Datatype::kLong);
        std::vector<i64> buf(count);
        for (i64 i = 0; i < count; ++i) buf[size_t(i)] = gen(r.rank(), i);
        r.allreduce(kInPlace, buf.data(), int(count), Datatype::kLong,
                    ReduceOp::kSum);
        ASSERT_EQ(buf, expect)
            << "algo=" << coll::algo_name(algo) << " count=" << count;
      }
    });
  }
  for (const CollTuning& t : {CollTuning{}, all_shm()}) {
    World world(6, NetworkProfile::zero(), t);
    world.run([&](Rank& r) {
      for (i64 count : {i64(64), i64(20011)}) {
        // Reduce: IN_PLACE at root only; non-roots pass their send buffer.
        auto expect = reduce_reference<i64>(r.size(), count, ReduceOp::kMax,
                                            Datatype::kLong);
        for (int root = 0; root < r.size(); ++root) {
          std::vector<i64> buf(count);
          for (i64 i = 0; i < count; ++i) buf[size_t(i)] = gen(r.rank(), i);
          if (r.rank() == root) {
            r.reduce(kInPlace, buf.data(), int(count), Datatype::kLong,
                     ReduceOp::kMax, root);
            ASSERT_EQ(buf, expect) << "root=" << root << " count=" << count;
          } else {
            r.reduce(buf.data(), nullptr, int(count), Datatype::kLong,
                     ReduceOp::kMax, root);
          }
        }
        // Scan in place.
        std::vector<i64> sbuf(count);
        for (i64 i = 0; i < count; ++i) sbuf[size_t(i)] = gen(r.rank(), i);
        r.scan(kInPlace, sbuf.data(), int(count), Datatype::kLong,
               ReduceOp::kSum);
        auto sexpect = reduce_reference<i64>(r.rank() + 1, count,
                                             ReduceOp::kSum, Datatype::kLong);
        ASSERT_EQ(sbuf, sexpect) << "count=" << count;
      }
    });
  }
}

// In-place gather/scatter under every forced algorithm and root: the root's
// own block stays home (gather) or is never written (scatter).
TEST(CollInPlace, GatherScatterEveryAlgorithmEveryRoot) {
  const i64 count = 33;
  for (const auto& [ranks, algo] : cases_for(CollOp::kGather)) {
    CollTuning t = forced(CollOp::kGather, algo);
    t.scatter = algo;
    World world(ranks, NetworkProfile::zero(), t);
    world.run([&](Rank& r) {
      const int n = r.size();
      for (int root = 0; root < n; ++root) {
        std::vector<i32> mine(static_cast<size_t>(count));
        for (i64 i = 0; i < count; ++i) mine[size_t(i)] = i32(gen(r.rank(), i));
        if (r.rank() == root) {
          std::vector<i32> all(size_t(count) * n, -1);
          std::copy(mine.begin(), mine.end(), all.begin() + root * count);
          r.gather(kInPlace, 0, all.data(), int(count), Datatype::kInt, root);
          for (int src = 0; src < n; ++src)
            for (i64 i = 0; i < count; ++i)
              ASSERT_EQ(all[size_t(src * count + i)], i32(gen(src, i)))
                  << "root=" << root << " algo=" << coll::algo_name(algo);
          r.scatter(all.data(), int(count), const_cast<void*>(kInPlace),
                    int(count), Datatype::kInt, root);
        } else {
          r.gather(mine.data(), int(count), nullptr, int(count),
                   Datatype::kInt, root);
          std::vector<i32> got(static_cast<size_t>(count), -1);
          r.scatter(nullptr, int(count), got.data(), int(count),
                    Datatype::kInt, root);
          ASSERT_EQ(got, mine)
              << "root=" << root << " algo=" << coll::algo_name(algo);
        }
      }
    });
  }
}

TEST(CollInPlace, GatherAllgatherScatterReduceScatter) {
  World world(5);
  world.run([](Rank& r) {
    const i64 count = 48;
    int n = r.size();
    // Gather: root's contribution sits at recvbuf[root * count].
    for (int root = 0; root < n; ++root) {
      std::vector<i32> all(size_t(count) * n, -1);
      std::vector<i32> mine(count);
      for (i64 i = 0; i < count; ++i) mine[size_t(i)] = i32(gen(r.rank(), i));
      if (r.rank() == root) {
        std::memcpy(all.data() + size_t(root) * count, mine.data(),
                    size_t(count) * 4);
        r.gather(kInPlace, 0, all.data(), int(count), Datatype::kInt, root);
        for (int src = 0; src < n; ++src)
          for (i64 i = 0; i < count; ++i)
            ASSERT_EQ(all[size_t(src) * count + size_t(i)], i32(gen(src, i)));
      } else {
        r.gather(mine.data(), int(count), nullptr, int(count), Datatype::kInt,
                 root);
      }
    }
    // Allgather in place (every rank).
    std::vector<i32> all(size_t(count) * n, -1);
    for (i64 i = 0; i < count; ++i)
      all[size_t(r.rank()) * count + size_t(i)] = i32(gen(r.rank(), i));
    r.allgather(kInPlace, 0, all.data(), int(count), Datatype::kInt);
    for (int src = 0; src < n; ++src)
      for (i64 i = 0; i < count; ++i)
        ASSERT_EQ(all[size_t(src) * count + size_t(i)], i32(gen(src, i)));
    // Scatter: root keeps its block in sendbuf.
    for (int root = 0; root < n; ++root) {
      std::vector<i32> src_all;
      std::vector<i32> mine(size_t(count), -1);
      if (r.rank() == root) {
        src_all.resize(size_t(count) * n);
        for (size_t i = 0; i < src_all.size(); ++i) src_all[i] = i32(i) + root;
        r.scatter(src_all.data(), int(count),
                  const_cast<void*>(kInPlace), int(count), Datatype::kInt,
                  root);
        // Root's block is untouched inside sendbuf; nothing to verify
        // beyond no crash and peers' contents below.
      } else {
        r.scatter(nullptr, int(count), mine.data(), int(count), Datatype::kInt,
                  root);
        for (i64 i = 0; i < count; ++i)
          ASSERT_EQ(mine[size_t(i)], i32(r.rank() * count + i) + root);
      }
    }
    // Reduce_scatter in place: full input in recvbuf, result at the front.
    std::vector<int> counts(static_cast<size_t>(n), int(count));
    i64 total = i64(count) * n;
    auto expect =
        reduce_reference<i64>(n, total, ReduceOp::kSum, Datatype::kLong);
    std::vector<i64> buf(total);
    for (i64 i = 0; i < total; ++i) buf[size_t(i)] = gen(r.rank(), i);
    r.reduce_scatter(kInPlace, buf.data(), counts.data(), Datatype::kLong,
                     ReduceOp::kSum);
    for (i64 i = 0; i < count; ++i)
      ASSERT_EQ(buf[size_t(i)], expect[size_t(i64(r.rank()) * count + i)]);
  });
}

// ---------------------------------------------------------------------------
// Selection table and registry sanity
// ---------------------------------------------------------------------------

TEST(CollSelect, AutoPrefersShmForSmallAndAdaptsBySize) {
  CollTuning t;  // all auto; hw_threads pinned for machine-independence
  const int hw = 64;
  EXPECT_EQ(coll::select(CollOp::kAllreduce, t, 8, 256, true, hw),
            CollAlgo::kShm);
  EXPECT_EQ(coll::select(CollOp::kAllreduce, t, 8, 256, false, hw),
            CollAlgo::kRecursiveDoubling);
  EXPECT_EQ(coll::select(CollOp::kAllreduce, t, 8, 1 << 20, false, hw),
            CollAlgo::kRabenseifner);
  EXPECT_EQ(coll::select(CollOp::kBarrier, t, 8, 0, false, hw),
            CollAlgo::kDissemination);
  EXPECT_EQ(coll::select(CollOp::kAllgather, t, 8, 1 << 20, false, hw),
            CollAlgo::kRing);
}

TEST(CollSelect, AutoAdaptsToOversubscription) {
  CollTuning t;
  // More ranks than cores: barrier-based shm stalls on scheduler rounds,
  // pipelining tree/chain algorithms win for the data-carrying rooted
  // collectives; the single-epoch shm barrier still wins.
  EXPECT_EQ(coll::select(CollOp::kAllreduce, t, 8, 256, true, 1),
            CollAlgo::kShm);
  EXPECT_EQ(coll::select(CollOp::kAllreduce, t, 8, 256, false, 1),
            CollAlgo::kBinomial);
  EXPECT_EQ(coll::select(CollOp::kBcast, t, 8, 256, true, 1),
            CollAlgo::kBinomial);
  EXPECT_EQ(coll::select(CollOp::kScan, t, 8, 256, true, 1),
            CollAlgo::kLinear);
  EXPECT_EQ(coll::select(CollOp::kBarrier, t, 8, 0, true, 1), CollAlgo::kShm);
  EXPECT_EQ(coll::select(CollOp::kAllgather, t, 8, 256, true, 1),
            CollAlgo::kShm);
}

TEST(CollSelect, ShmServesEverySizeWithAContext) {
  CollTuning t;
  const int hw = 64;
  EXPECT_EQ(coll::select(CollOp::kAllreduce, t, 8, 1 << 20, true, hw),
            CollAlgo::kShm);
  EXPECT_EQ(coll::select(CollOp::kBcast, t, 4, 1 << 20, true, hw),
            CollAlgo::kShm);
  // Alltoall reads its blocks in place; an oversubscribed world does so
  // for small blocks only and runs the pairwise exchange for large ones.
  EXPECT_EQ(coll::select(CollOp::kAlltoall, t, 4, 1024, true, hw),
            CollAlgo::kShm);
  EXPECT_EQ(coll::select(CollOp::kAlltoall, t, 4, 1 << 20, true, hw),
            CollAlgo::kShm);
  EXPECT_EQ(coll::select(CollOp::kAlltoall, t, 8, 8, true, 4),
            CollAlgo::kShm);
  EXPECT_EQ(coll::select(CollOp::kAlltoall, t, 8, 16 * 1024, true, 4),
            CollAlgo::kShm);
  EXPECT_EQ(coll::select(CollOp::kAlltoall, t, 8, 256 * 1024, true, 4),
            CollAlgo::kPairwise);
  EXPECT_EQ(coll::select(CollOp::kAlltoall, t, 4, 1024, false, hw),
            CollAlgo::kPairwise);
}

TEST(CollSelect, ForcedShmHonouredAtOneMiBWithAContext) {
  CollTuning t;
  t.allreduce = CollAlgo::kShm;
  EXPECT_EQ(coll::select(CollOp::kAllreduce, t, 8, 1 << 20, true, 64),
            CollAlgo::kShm);
#ifndef MPIWASM_TRACE_DISABLED
  // End to end: every rank's 1 MiB allreduce runs the shm path.
  trace::enable_profiling(true);
  trace::reset();
  const int ranks = 4, count = (1 << 20) / 8;
  World world(ranks, NetworkProfile::zero(), t);
  auto expect = reduce_reference<i64>(ranks, count, ReduceOp::kSum,
                                      Datatype::kLong);
  world.run([&](Rank& r) {
    std::vector<i64> in(count), out(count);
    for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
    r.allreduce(in.data(), out.data(), count, Datatype::kLong,
                ReduceOp::kSum);
    ASSERT_EQ(out, expect);
  });
  auto algos = trace::algo_histogram();
  trace::enable_profiling(false);
  trace::reset();
  EXPECT_EQ(algos["allreduce/shm"], u64(ranks));
#endif
}

TEST(CollSelect, ForcedShmDegradesWithoutAContext) {
  CollTuning t;
  t.allreduce = CollAlgo::kShm;
  EXPECT_EQ(coll::select(CollOp::kAllreduce, t, 8, 1 << 20, false, 64),
            CollAlgo::kRabenseifner);
  // A world with the shm path off gives its communicators no context; the
  // forced choice then runs the table's pick instead of failing the call.
  t.enable_shm = false;
  const int ranks = 4, count = 4096;
  World world(ranks, NetworkProfile::zero(), t);
  auto expect = reduce_reference<i64>(ranks, count, ReduceOp::kSum,
                                      Datatype::kLong);
  world.run([&](Rank& r) {
    std::vector<i64> in(count), out(count);
    for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
    r.allreduce(in.data(), out.data(), count, Datatype::kLong,
                ReduceOp::kSum);
    ASSERT_EQ(out, expect);
  });
}

TEST(CollSelect, ForcedUnsupportedAlgorithmThrows) {
  CollTuning t;
  t.bcast = CollAlgo::kPairwise;  // bcast has no pairwise variant
  EXPECT_THROW(coll::select(CollOp::kBcast, t, 4, 64, false), MpiError);
}

TEST(CollSelect, EnvOverridesParse) {
  CollTuning base;
  CollAlgo a;
  EXPECT_TRUE(coll::algo_from_name("raben", &a));
  EXPECT_EQ(a, CollAlgo::kRabenseifner);
  EXPECT_TRUE(coll::algo_from_name("recursive_doubling", &a));
  EXPECT_EQ(a, CollAlgo::kRecursiveDoubling);
  EXPECT_FALSE(coll::algo_from_name("quantum", &a));
  for (i32 i = 0; i < coll::kNumCollOps; ++i) {
    auto op = coll::CollOp(i);
    // Every registered variant must be selectable when forced.
    for (CollAlgo v : coll::algos_for(op))
      EXPECT_EQ(coll::select(op, forced(op, v), 8, 64, true), v)
          << coll::coll_name(op);
  }
  (void)base;
}

/// Repeated mixed shm collectives on one communicator: catches epoch /
/// slot-reuse races under the lock-free barrier (run under TSan in CI).
TEST(CollShmStress, BackToBackShmCollectivesStayConsistent) {
  CollTuning t;  // auto: small payloads all take the shm path
  World world(8, NetworkProfile::zero(), t);
  world.run([](Rank& r) {
    for (int iter = 0; iter < 200; ++iter) {
      i64 v = r.rank() + iter;
      i64 sum = 0;
      r.allreduce(&v, &sum, 1, Datatype::kLong, ReduceOp::kSum);
      i64 n = r.size();
      ASSERT_EQ(sum, n * (n - 1) / 2 + n * iter);
      i64 b = r.rank() == iter % r.size() ? 77 + iter : -1;
      r.bcast(&b, 1, Datatype::kLong, iter % r.size());
      ASSERT_EQ(b, 77 + iter);
      r.barrier();
    }
  });
}

/// Index of the first element of got[0, len) that differs from want(i),
/// or len when all match (one gtest assertion per buffer, not per element).
template <typename T, typename F>
size_t first_mismatch(const T* got, size_t len, F want) {
  for (size_t i = 0; i < len; ++i)
    if (got[i] != want(i)) return i;
  return len;
}

/// Large payloads read in place, back to back. Each rank copies its result
/// aside and overwrites both its buffers the moment a call returns, so a
/// rank that leaves while a peer is still reading one of its buffers shows
/// up as wrong data at that peer (and as a race under TSan).
TEST(CollShmStress, LargePayloadsReadInPlaceBackToBack) {
  const size_t kBytes[] = {size_t(64) << 10, size_t(256) << 10,
                           size_t(1) << 20};
  constexpr u32 kPoison = 0xA5A5A5A5u;
  for (int ranks : {4, 5}) {
    World world(ranks, NetworkProfile::zero(), all_shm());
    world.run([&](Rank& r) {
      const int n = r.size(), me = r.rank();
      std::vector<u32> send(kBytes[2] / 4), recv(kBytes[2] / 4), got;
      std::vector<int> counts(static_cast<size_t>(n));
      for (int it = 0; it < 100; ++it) {
        const size_t count = kBytes[it % 3] / 4;
        const size_t block = count / size_t(n);
        // Element i of rank q's input in this iteration; u32 sums wrap.
        auto val = [it](int q, size_t i) {
          return u32(i) * 2654435761u + u32(q) * 977u + u32(it) * 131u;
        };
        auto sum = [&](size_t i) {
          u32 acc = 0;
          for (int q = 0; q < n; ++q) acc += val(q, i);
          return acc;
        };
        auto fill = [&](int q, size_t len) {
          for (size_t i = 0; i < len; ++i) send[i] = val(q, i);
        };
        // Keeps the first `len` elements of `result`, then poisons both
        // buffers.
        auto take = [&](const std::vector<u32>& result, size_t len) {
          got.assign(result.begin(), result.begin() + ptrdiff_t(len));
          std::fill(send.begin(), send.end(), kPoison);
          std::fill(recv.begin(), recv.end(), kPoison);
        };
        const std::string at = "ranks=" + std::to_string(n) +
                               " it=" + std::to_string(it);

        fill(me, count);
        r.allreduce(send.data(), recv.data(), int(count), Datatype::kUnsigned,
                    ReduceOp::kSum);
        take(recv, count);
        ASSERT_EQ(first_mismatch(got.data(), count, sum), count)
            << "allreduce " << at;

        fill(me, count);
        r.allreduce(kInPlace, send.data(), int(count), Datatype::kUnsigned,
                    ReduceOp::kSum);
        take(send, count);
        ASSERT_EQ(first_mismatch(got.data(), count, sum), count)
            << "allreduce in place " << at;

        const int root = it % n;
        if (me == root) fill(root, count);
        r.bcast(send.data(), int(count), Datatype::kUnsigned, root);
        take(send, count);
        ASSERT_EQ(first_mismatch(got.data(), count,
                                 [&](size_t i) { return val(root, i); }),
                  count)
            << "bcast " << at;

        // Block d of the send buffer goes to rank d.
        fill(me, block * size_t(n));
        r.alltoall(send.data(), int(block), recv.data(), int(block),
                   Datatype::kUnsigned);
        take(recv, block * size_t(n));
        ASSERT_EQ(first_mismatch(got.data(), block * size_t(n),
                                 [&](size_t i) {
                                   return val(int(i / block),
                                              size_t(me) * block + i % block);
                                 }),
                  block * size_t(n))
            << "alltoall " << at;

        fill(me, block);
        r.allgather(send.data(), int(block), recv.data(), int(block),
                    Datatype::kUnsigned);
        take(recv, block * size_t(n));
        ASSERT_EQ(first_mismatch(got.data(), block * size_t(n),
                                 [&](size_t i) {
                                   return val(int(i / block), i % block);
                                 }),
                  block * size_t(n))
            << "allgather " << at;

        size_t my_off = 0;
        for (int q = 0; q < n; ++q) {
          counts[size_t(q)] = int(count / size_t(n)) +
                              (size_t(q) < count % size_t(n) ? 1 : 0);
          if (q < me) my_off += size_t(counts[size_t(q)]);
        }
        const size_t mine = size_t(counts[size_t(me)]);
        fill(me, count);
        r.reduce_scatter(send.data(), recv.data(), counts.data(),
                         Datatype::kUnsigned, ReduceOp::kSum);
        take(recv, mine);
        ASSERT_EQ(first_mismatch(got.data(), mine,
                                 [&](size_t i) { return sum(my_off + i); }),
                  mine)
            << "reduce_scatter " << at;
      }
    });
  }
}

/// Rank-order reduction of inexact doubles: exactly one rank reduces each
/// element (or all reduce it in the same order), so every rank holds the
/// same bits, equal to the sequential comm-rank-order reference.
TEST(CollShmStress, AllreduceOfInexactDoublesIsBitIdenticalEverywhere) {
  for (int ranks : {3, 4, 5}) {
    World world(ranks, NetworkProfile::zero(),
                forced(CollOp::kAllreduce, CollAlgo::kShm));
    // Whole-payload (<= 8 KiB) and reduce-scatter sizes.
    for (int count : {7, 1000, 100003}) {
      std::mt19937_64 rng(u64(ranks) * 1000003u + u64(count));
      std::uniform_real_distribution<f64> mant(-1.0, 1.0);
      std::uniform_int_distribution<int> expo(-20, 20);
      std::vector<std::vector<f64>> in(
          static_cast<size_t>(ranks),
          std::vector<f64>(static_cast<size_t>(count)));
      for (auto& v : in)
        for (f64& x : v) x = std::ldexp(mant(rng), expo(rng));
      std::vector<f64> expect = in[0];
      for (int q = 1; q < ranks; ++q)
        apply_reduce(ReduceOp::kSum, Datatype::kDouble, in[size_t(q)].data(),
                     expect.data(), count);
      for (bool in_place : {false, true}) {
        std::vector<std::vector<f64>> out(static_cast<size_t>(ranks));
        world.run([&](Rank& r) {
          std::vector<f64>& mine = out[size_t(r.rank())];
          if (in_place) {
            mine = in[size_t(r.rank())];
            r.allreduce(kInPlace, mine.data(), count, Datatype::kDouble,
                        ReduceOp::kSum);
          } else {
            mine.assign(size_t(count), 0.0);
            r.allreduce(in[size_t(r.rank())].data(), mine.data(), count,
                        Datatype::kDouble, ReduceOp::kSum);
          }
        });
        for (int q = 0; q < ranks; ++q)
          EXPECT_EQ(std::memcmp(out[size_t(q)].data(), expect.data(),
                                size_t(count) * sizeof(f64)),
                    0)
              << "ranks=" << ranks << " count=" << count << " rank=" << q
              << " in_place=" << in_place;
      }
    }
  }
}

/// Ranks that disagree on the payload size (or the root) of a forced kShm
/// call all raise MpiError after the same barriers: nobody reads past the
/// smaller buffer (each sized exactly, so ASan sees any over-read), nobody
/// hangs, and the communicator stays usable.
TEST(CollShmStress, MismatchedCountsThrowOnEveryRankWithoutOverRead) {
  const int ranks = 4;
  World world(ranks, NetworkProfile::zero(), all_shm());
  std::atomic<int> throws{0};
  world.run([&](Rank& r) {
    const int n = r.size(), me = r.rank();
    auto expect_error = [&](const char* what, const std::function<void()>& fn) {
      try {
        fn();
        ADD_FAILURE() << what << " did not throw on rank " << me;
      } catch (const MpiError&) {
        ++throws;
      }
    };
    // Rank 0 exposes less than its peers read; both allreduce paths.
    for (int big : {100, 100000}) {
      const int count = me == 0 ? big : 2 * big;
      std::vector<i64> in(static_cast<size_t>(count), 1),
          out(static_cast<size_t>(count));
      expect_error("allreduce", [&] {
        r.allreduce(in.data(), out.data(), count, Datatype::kLong,
                    ReduceOp::kSum);
      });
    }
    {
      const int count = me == 0 ? 1000 : 3000;
      std::vector<u8> buf(static_cast<size_t>(count), u8(me));
      expect_error("bcast", [&] {
        r.bcast(buf.data(), count, Datatype::kByte, 0);
      });
      // Equal counts, but rank 1 names itself the root.
      expect_error("bcast root", [&] {
        r.bcast(buf.data(), 1000, Datatype::kByte, me == 1 ? 1 : 0);
      });
      std::vector<u8> send(size_t(count) * size_t(n)),
          recv(size_t(count) * size_t(n));
      expect_error("alltoall", [&] {
        r.alltoall(send.data(), count, recv.data(), count, Datatype::kByte);
      });
      expect_error("allgather", [&] {
        r.allgather(send.data(), count, recv.data(), count, Datatype::kByte);
      });
      expect_error("gather", [&] {
        r.gather(send.data(), count, recv.data(), count, Datatype::kByte, 0);
      });
      expect_error("scatter", [&] {
        r.scatter(send.data(), count, recv.data(), count, Datatype::kByte, 1);
      });
      expect_error("scan", [&] {
        r.scan(buf.data(), recv.data(), count, Datatype::kByte,
               ReduceOp::kBor);
      });
      expect_error("exscan", [&] {
        r.exscan(buf.data(), recv.data(), count, Datatype::kByte,
                 ReduceOp::kBor);
      });
      expect_error("reduce", [&] {
        r.reduce(buf.data(), recv.data(), count, Datatype::kByte,
                 ReduceOp::kBor, 0);
      });
      std::vector<int> counts(size_t(n), count);
      expect_error("reduce_scatter", [&] {
        r.reduce_scatter(send.data(), recv.data(), counts.data(),
                         Datatype::kByte, ReduceOp::kBor);
      });
    }
    // The barrier epochs are still in step.
    i64 v = 1, total = 0;
    r.allreduce(&v, &total, 1, Datatype::kLong, ReduceOp::kSum);
    EXPECT_EQ(total, n);
  });
  EXPECT_EQ(throws.load(), ranks * 12);
}

/// A reduction op that is not defined on the datatype (MPI_BAND on
/// doubles) is rejected on every rank before anything is published: no
/// rank leaves a call while its peers read its buffers, which each rank
/// frees at once (ASan sees any read of them), and the barrier epochs stay
/// in step.
TEST(CollShmStress, UndefinedReductionThrowsOnEveryRankBeforePublishing) {
  const int ranks = 4, count = 100000;
  World world(ranks, NetworkProfile::zero(), all_shm());
  std::atomic<int> throws{0};
  world.run([&](Rank& r) {
    const int n = r.size();
    auto expect_error = [&](const char* what, auto&& fn) {
      {
        std::vector<f64> in(size_t(count) * size_t(n), 1.5),
            out(size_t(count) * size_t(n));
        try {
          fn(in.data(), out.data());
          ADD_FAILURE() << what << " did not throw on rank " << r.rank();
        } catch (const MpiError&) {
          ++throws;
        }
      }
      // The freed buffers' memory is reused at once.
      std::vector<f64> reuse(size_t(count) * size_t(n), -1.0);
      ASSERT_EQ(reuse[0], -1.0);
    };
    for (ReduceOp op : {ReduceOp::kBand, ReduceOp::kBor}) {
      expect_error("allreduce", [&](f64* in, f64* out) {
        r.allreduce(in, out, count, Datatype::kDouble, op);
      });
      expect_error("allreduce in place", [&](f64*, f64* out) {
        r.allreduce(kInPlace, out, count, Datatype::kDouble, op);
      });
      expect_error("reduce", [&](f64* in, f64* out) {
        r.reduce(in, out, count, Datatype::kDouble, op, 1);
      });
      expect_error("scan", [&](f64* in, f64* out) {
        r.scan(in, out, count, Datatype::kDouble, op);
      });
      expect_error("exscan", [&](f64* in, f64* out) {
        r.exscan(in, out, count, Datatype::kDouble, op);
      });
      std::vector<int> counts(size_t(n), count);
      expect_error("reduce_scatter", [&](f64* in, f64* out) {
        r.reduce_scatter(in, out, counts.data(), Datatype::kDouble, op);
      });
      expect_error("iallreduce", [&](f64* in, f64* out) {
        r.iallreduce(in, out, count, Datatype::kDouble, op);
      });
      expect_error("ireduce", [&](f64* in, f64* out) {
        r.ireduce(in, out, count, Datatype::kDouble, op, 0);
      });
      expect_error("iscan", [&](f64* in, f64* out) {
        r.iscan(in, out, count, Datatype::kFloat, op);
      });
      expect_error("iexscan", [&](f64* in, f64* out) {
        r.iexscan(in, out, count, Datatype::kFloat, op);
      });
      expect_error("ireduce_scatter", [&](f64* in, f64* out) {
        r.ireduce_scatter(in, out, counts.data(), Datatype::kDouble, op);
      });
    }
    // The same ops are defined on integers.
    std::vector<i64> in(size_t(count), i64(1) << r.rank()), out(static_cast<size_t>(count));
    r.allreduce(in.data(), out.data(), count, Datatype::kLong, ReduceOp::kBor);
    EXPECT_EQ(out[size_t(count) - 1], (i64(1) << n) - 1);
  });
  EXPECT_EQ(throws.load(), ranks * 22);
}

/// A world abort that lands while the ranks of a communicator loop over
/// large kShm calls: a rank may give up only at a call's opening barrier,
/// where no peer reads its buffers yet; a rank past it finishes the call
/// first. The buffers are freed as the rank leaves, so under ASan a peer
/// reading them after that is a use-after-free.
TEST(CollShmStress, AbortLeavesNoPeerReadingFreedBuffers) {
  const int ranks = 4, count = 1 << 16;
  World world(ranks, NetworkProfile::zero(), all_shm());
  std::atomic<int> aborted{0};
  EXPECT_THROW(
      world.run([&](Rank& r) {
        const Comm sub =
            r.comm_split(kCommWorld, r.rank() == 0 ? kUndefined : 0, 0);
        if (r.rank() == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          r.abort(7);
        }
        try {
          std::vector<i64> in(size_t(count), 1),
              out(static_cast<size_t>(count));
          for (int it = 0; it < 100000; ++it) {
            r.allreduce(in.data(), out.data(), count, Datatype::kLong,
                        ReduceOp::kSum, sub);
            r.bcast(in.data(), count, Datatype::kLong, it % 3, sub);
          }
        } catch (const MpiAbort&) {
          ++aborted;
          throw;
        }
        ADD_FAILURE() << "rank " << r.rank() << " never saw the abort";
      }),
      MpiError);
  EXPECT_EQ(aborted.load(), ranks - 1);
}

// Blocking collectives charge each p2p message's wire time at injection,
// like a p2p send, so a rank that sends twice pays the latency twice, in
// sequence. Nonblocking schedules charge it as a completion deadline
// instead, which lets a binomial root's two sends overlap; that model must
// not leak into blocking calls, whose modelled cost Figures 3/4 report.
TEST(CollCostModel, BlockingSendsChargeWireAtInjection) {
  NetworkProfile p;
  p.name = "test";
  p.latency_ns = 200'000;  // 0.2 ms per message
  const u64 two_latencies = 2 * p.latency_ns;
  {
    World world(4, p,
                forced(CollOp::kAllreduce, CollAlgo::kRecursiveDoubling));
    world.run([&](Rank& r) {
      i64 v = r.rank() + 1, sum = 0;
      const u64 t0 = now_ns();
      r.allreduce(&v, &sum, 1, Datatype::kLong, ReduceOp::kSum);
      EXPECT_GE(now_ns() - t0, two_latencies) << "rank " << r.rank();
      EXPECT_EQ(sum, 10);
    });
  }
  {
    World world(4, p, forced(CollOp::kBcast, CollAlgo::kBinomial));
    world.run([&](Rank& r) {
      i64 v = r.rank() == 0 ? 42 : -1;
      const u64 t0 = now_ns();
      r.bcast(&v, 1, Datatype::kLong, 0);
      const u64 elapsed = now_ns() - t0;
      if (r.rank() == 0) {
        EXPECT_GE(elapsed, two_latencies);
      }
      EXPECT_EQ(v, 42);
    });
  }
}

}  // namespace
}  // namespace mpiwasm::simmpi
