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
#include <cstring>
#include <numeric>

#include "simmpi/coll_algos.h"
#include "simmpi/reduce_ops.h"
#include "simmpi/world.h"
#include "support/timing.h"

namespace mpiwasm::simmpi {
namespace {

using coll::CollOp;

/// Tuning that forces `algo` for collective `op` and leaves the rest on
/// auto. The shm context stays enabled so kShm is honored.
CollTuning forced(CollOp op, CollAlgo algo) {
  return coll::forced_tuning(op, algo);
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
  const i64 count = 515;
  for (const auto& [ranks, algo] : cases_for(CollOp::kReduce)) {
    World world(ranks, NetworkProfile::zero(), forced(CollOp::kReduce, algo));
    auto expect =
        reduce_reference<i64>(ranks, count, ReduceOp::kSum, Datatype::kLong);
    world.run([&](Rank& r) {
      for (int root = 0; root < r.size(); ++root) {
        std::vector<i64> in(count), out(size_t(count), -1);
        for (i64 i = 0; i < count; ++i) in[size_t(i)] = gen(r.rank(), i);
        r.reduce(in.data(), r.rank() == root ? out.data() : nullptr,
                 int(count), Datatype::kLong, ReduceOp::kSum, root);
        if (r.rank() == root)
          ASSERT_EQ(out, expect)
              << "root=" << root << " algo=" << coll::algo_name(algo);
      }
    });
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
  const i64 count = 65;
  for (const auto& [ranks, algo] : cases_for(CollOp::kAlltoall)) {
    World world(ranks, NetworkProfile::zero(),
                forced(CollOp::kAlltoall, algo));
    world.run([&](Rank& r) {
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
              << "algo=" << coll::algo_name(algo);
    });
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
  for (CollAlgo algo : coll::algos_for(CollOp::kAllreduce)) {
    World world(6, NetworkProfile::zero(), forced(CollOp::kAllreduce, algo));
    world.run([&](Rank& r) {
      const i64 count = 333;
      auto expect = reduce_reference<i64>(r.size(), count, ReduceOp::kSum,
                                          Datatype::kLong);
      std::vector<i64> buf(count);
      for (i64 i = 0; i < count; ++i) buf[size_t(i)] = gen(r.rank(), i);
      r.allreduce(kInPlace, buf.data(), int(count), Datatype::kLong,
                  ReduceOp::kSum);
      ASSERT_EQ(buf, expect) << "algo=" << coll::algo_name(algo);
    });
  }
  World world(6);
  world.run([](Rank& r) {
    const i64 count = 64;
    // Reduce: IN_PLACE at root only; non-roots pass their send buffer.
    auto expect =
        reduce_reference<i64>(r.size(), count, ReduceOp::kMax, Datatype::kLong);
    for (int root = 0; root < r.size(); ++root) {
      std::vector<i64> buf(count);
      for (i64 i = 0; i < count; ++i) buf[size_t(i)] = gen(r.rank(), i);
      if (r.rank() == root) {
        r.reduce(kInPlace, buf.data(), int(count), Datatype::kLong,
                 ReduceOp::kMax, root);
        ASSERT_EQ(buf, expect);
      } else {
        r.reduce(buf.data(), nullptr, int(count), Datatype::kLong,
                 ReduceOp::kMax, root);
      }
    }
    // Scan in place.
    std::vector<i64> sbuf(count);
    for (i64 i = 0; i < count; ++i) sbuf[size_t(i)] = gen(r.rank(), i);
    r.scan(kInPlace, sbuf.data(), int(count), Datatype::kLong, ReduceOp::kSum);
    auto sexpect = reduce_reference<i64>(r.rank() + 1, count, ReduceOp::kSum,
                                         Datatype::kLong);
    ASSERT_EQ(sbuf, sexpect);
  });
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

TEST(CollSelect, ForcedShmDegradesWhenPayloadTooBig) {
  CollTuning t;
  t.allreduce = CollAlgo::kShm;
  EXPECT_EQ(coll::select(CollOp::kAllreduce, t, 8, 1 << 20, false, 64),
            CollAlgo::kRabenseifner);
  EXPECT_EQ(coll::select(CollOp::kAllreduce, t, 8, 64, true, 64),
            CollAlgo::kShm);
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
