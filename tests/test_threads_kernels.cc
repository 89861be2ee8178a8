// Guest-concurrency battery: the threaded kernel twins (worker-pool epoch
// barrier over 0xFE atomics + wasi thread-spawn) must be bit-exact against
// the host references at every thread count and tier, and simmpi must
// survive MPI_THREAD_MULTIPLE-style concurrent callers on one rank.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "embedder/threads_host.h"
#include "simmpi/world.h"
#include "testlib.h"
#include "toolchain/kernels.h"

namespace mpiwasm::test {
namespace {

using toolchain::MicroKernel;

/// init → run(reps) → shutdown → join, with the guest workers joined
/// before the instance is destroyed.
f64 run_threaded(const std::vector<u8>& bytes, const EngineConfig& cfg,
                 i32 reps) {
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  embed::GuestThreads guests;  // no MPI rank: pure-engine module
  rt::ImportTable imports;
  guests.register_imports(imports);
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("init").as_i32(), 0) << "guest thread spawn failed";
  Value arg = Value::from_i32(reps);
  f64 result = inst.invoke("run", {&arg, 1}).as_f64();
  inst.invoke("shutdown");
  guests.join_all();
  return result;
}

std::vector<EngineConfig> interp_and_jit() {
  EngineConfig interp;
  interp.tier = EngineTier::kInterp;
  EngineConfig jit;
  jit.tier = EngineTier::kJit;
  return {interp, jit};
}

TEST(ThreadedKernelTest, MicroKernelsBitExactAcrossThreadCounts) {
  for (MicroKernel k : {MicroKernel::kDaxpy, MicroKernel::kStencil3}) {
    toolchain::MicroKernelParams mp;
    mp.kernel = k;
    mp.n = 1024;
    const i32 reps = 3;
    const f64 ref = toolchain::micro_kernel_reference(mp, u32(reps));
    toolchain::ThreadedKernelParams tp;
    tp.kernel = k;
    tp.n = mp.n;
    for (const EngineConfig& cfg : interp_and_jit()) {
      for (u32 nt : {1u, 2u, 4u}) {
        tp.nthreads = nt;
        EXPECT_EQ(run_threaded(toolchain::build_threaded_micro_kernel_module(
                                   tp),
                               cfg, reps),
                  ref)
            << toolchain::micro_kernel_name(k) << " nthreads=" << nt
            << " tier=" << config_label(cfg);
      }
    }
  }
}

TEST(ThreadedKernelTest, DaxpyAgreesUnderEveryEngineConfig) {
  toolchain::MicroKernelParams mp;
  mp.kernel = MicroKernel::kDaxpy;
  mp.n = 512;
  const i32 reps = 2;
  const f64 ref = toolchain::micro_kernel_reference(mp, u32(reps));
  toolchain::ThreadedKernelParams tp;
  tp.kernel = MicroKernel::kDaxpy;
  tp.n = mp.n;
  tp.nthreads = 2;
  auto bytes = toolchain::build_threaded_micro_kernel_module(tp);
  for (const EngineConfig& cfg : all_engine_configs()) {
    EXPECT_EQ(run_threaded(bytes, cfg, reps), ref)
        << "config " << config_label(cfg);
  }
}

TEST(ThreadedKernelTest, CgResidualIsThreadCountInvariant) {
  toolchain::ThreadedCgParams p;
  p.n = 512;
  const i32 iters = 6;
  const f64 ref = toolchain::threaded_cg_reference(p, u32(iters));
  for (const EngineConfig& cfg : interp_and_jit()) {
    for (u32 nt : {1u, 2u, 4u}) {
      p.nthreads = nt;
      EXPECT_EQ(run_threaded(toolchain::build_threaded_cg_module(p), cfg,
                             iters),
                ref)
          << "cg nthreads=" << nt << " tier=" << config_label(cfg)
          << " (residual must be bit-identical: fixed dot-partial blocks)";
    }
  }
}

// ---------------------------------------------------------------------------
// simmpi under MPI_THREAD_MULTIPLE-style concurrency: multiple host
// threads drive p2p and collectives on the SAME rank. Regression for the
// request/mailbox wakeup races fixed alongside the threads work.
// ---------------------------------------------------------------------------

using simmpi::Comm;
using simmpi::Datatype;
using simmpi::Rank;
using simmpi::ReduceOp;
using simmpi::World;

TEST(SimMpiThreaded, ConcurrentSameRankPingPong) {
  World world(2);
  world.set_threaded();
  world.run([](Rank& r) {
    constexpr int kThreads = 3, kMsgs = 20;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&r, t] {
        for (int i = 0; i < kMsgs; ++i) {
          const int tag = t * 1000 + i;
          if (r.rank() == 0) {
            int v = tag;
            r.send(&v, 1, Datatype::kInt, 1, tag);
            int back = -1;
            r.recv(&back, 1, Datatype::kInt, 1, tag);
            EXPECT_EQ(back, tag + 7);
          } else {
            int v = -1;
            r.recv(&v, 1, Datatype::kInt, 0, tag);
            EXPECT_EQ(v, tag);
            v += 7;
            r.send(&v, 1, Datatype::kInt, 0, tag);
          }
        }
      });
    }
    for (auto& t : ts) t.join();
  });
}

TEST(SimMpiThreaded, ConcurrentNonblockingSameRank) {
  World world(2);
  world.set_threaded();
  world.run([](Rank& r) {
    constexpr int kThreads = 2, kMsgs = 15;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&r, t] {
        for (int i = 0; i < kMsgs; ++i) {
          const int tag = 5000 + t * 100 + i;
          int out = tag, in = -1;
          const int peer = 1 - r.rank();
          simmpi::Request sreq =
              r.isend(&out, 1, Datatype::kInt, peer, tag);
          simmpi::Request rreq = r.irecv(&in, 1, Datatype::kInt, peer, tag);
          r.wait(rreq);
          r.wait(sreq);
          EXPECT_EQ(in, tag);
        }
      });
    }
    for (auto& t : ts) t.join();
  });
}

TEST(SimMpiThreaded, ConcurrentCollectivesOnDistinctComms) {
  World world(2);
  world.set_threaded();
  world.run([](Rank& r) {
    // comm_dup is collective, so the dups happen on the rank thread in a
    // fixed order; the concurrency is the per-comm collective traffic.
    Comm c1 = r.comm_dup(simmpi::kCommWorld);
    Comm c2 = r.comm_dup(simmpi::kCommWorld);
    std::thread t1([&] {
      for (int i = 0; i < 10; ++i) {
        int v = r.rank() + 1, s = 0;
        r.allreduce(&v, &s, 1, Datatype::kInt, ReduceOp::kSum, c1);
        EXPECT_EQ(s, 3);
      }
    });
    std::thread t2([&] {
      for (int i = 0; i < 10; ++i) {
        int v = (r.rank() + 1) * 10, m = 0;
        r.allreduce(&v, &m, 1, Datatype::kInt, ReduceOp::kMax, c2);
        EXPECT_EQ(m, 20);
      }
    });
    t1.join();
    t2.join();
    r.comm_free(c1);
    r.comm_free(c2);
  });
}

}  // namespace
}  // namespace mpiwasm::test
