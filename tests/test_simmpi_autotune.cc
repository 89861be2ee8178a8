// Online collective autotuner (coll_tune.h).
//
// The unit tests drive the Autotuner with injected fake timings, so the
// expected winner is machine-independent: exploration must rotate through
// the candidate list as a pure function of the call index (the property
// rank consistency hangs on), the lock must pick the EWMA argmin, the
// fallback must win when nothing was measured, and the persisted table must
// round-trip — but only onto a host with the same signature. The World
// tests check the wiring: convergence to a locked winner during a real run,
// the MPIWASM_COLL_AUTOTUNE=0 ablation, and warm starts from a saved table.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "simmpi/coll_algos.h"
#include "simmpi/coll_tune.h"
#include "simmpi/world.h"

namespace mpiwasm::simmpi {
namespace {

using coll::Autotuner;
using coll::CollOp;

const CollAlgo kCands[] = {CollAlgo::kLinear, CollAlgo::kBinomial,
                           CollAlgo::kRing};

std::string temp_table_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("mpiwasm-tune-test-") + tag + ".table"))
      .string();
}

TEST(Autotune, ExplorationRotatesByCallIndexOnly) {
  Autotuner t("sig");
  const u64 key = Autotuner::key(CollOp::kAllreduce, 4, 1024);
  const u64 n = std::size(kCands);
  for (u64 idx = 0; idx < u64(Autotuner::kExploreRounds) * n; ++idx) {
    bool exploring = false;
    CollAlgo a = t.choose(key, idx, kCands, CollAlgo::kLinear, &exploring);
    EXPECT_TRUE(exploring) << "idx=" << idx;
    EXPECT_EQ(a, kCands[idx % n]) << "idx=" << idx;
    // Recording a timing mid-exploration must not perturb the rotation.
    t.record(key, a, 10.0 + f64(idx));
  }
}

TEST(Autotune, LocksEwmaArgminAfterExploration) {
  Autotuner t("sig");
  const u64 key = Autotuner::key(CollOp::kBcast, 8, 4096);
  t.record(key, CollAlgo::kLinear, 90.0);
  t.record(key, CollAlgo::kBinomial, 5.0);  // injected cheapest
  t.record(key, CollAlgo::kRing, 50.0);
  bool exploring = true;
  const u64 after = u64(Autotuner::kExploreRounds) * std::size(kCands);
  CollAlgo a = t.choose(key, after, kCands, CollAlgo::kLinear, &exploring);
  EXPECT_FALSE(exploring);
  EXPECT_EQ(a, CollAlgo::kBinomial);
  EXPECT_EQ(t.winner(key), CollAlgo::kBinomial);
  EXPECT_TRUE(t.dirty());
  // Write-once: later (even cheaper) measurements cannot flip the lock.
  t.record(key, CollAlgo::kRing, 0.001);
  EXPECT_EQ(t.choose(key, after + 1, kCands, CollAlgo::kLinear, &exploring),
            CollAlgo::kBinomial);
}

TEST(Autotune, NarrowWinDoesNotDisplaceFallback) {
  // Per-call latency samples miss cross-call pipelining, so a candidate
  // must beat the static pick's EWMA by the kLockMargin hysteresis to
  // displace it; a narrow measured win locks the fallback instead.
  Autotuner t("sig");
  const u64 key = Autotuner::key(CollOp::kBcast, 8, 64);
  t.record(key, CollAlgo::kLinear, 10.0);
  t.record(key, CollAlgo::kBinomial, 10.0 * Autotuner::kLockMargin + 0.5);
  bool exploring = true;
  const u64 after = u64(Autotuner::kExploreRounds) * std::size(kCands);
  EXPECT_EQ(t.choose(key, after, kCands, CollAlgo::kLinear, &exploring),
            CollAlgo::kLinear);

  // A decisive win (below the margin) still flips the lock.
  Autotuner t2("sig");
  t2.record(key, CollAlgo::kLinear, 10.0);
  t2.record(key, CollAlgo::kBinomial, 10.0 * Autotuner::kLockMargin - 0.5);
  EXPECT_EQ(t2.choose(key, after, kCands, CollAlgo::kLinear, &exploring),
            CollAlgo::kBinomial);
}

TEST(Autotune, UnmeasuredFallbackIsNeverDisplaced) {
  // The shm path is kept out of the measured candidate set (its internal
  // barrier serializes the calling loop, which per-call samples miss), so
  // when the static table picks it, the fallback has no EWMA. No amount of
  // measured-candidate evidence may displace a pick that was never tested.
  Autotuner t("sig");
  const u64 key = Autotuner::key(CollOp::kAllreduce, 8, 256);
  t.record(key, CollAlgo::kLinear, 0.001);  // spectacular, but irrelevant
  bool exploring = true;
  const u64 after = u64(Autotuner::kExploreRounds) * std::size(kCands);
  EXPECT_EQ(t.choose(key, after, kCands, CollAlgo::kShm, &exploring),
            CollAlgo::kShm);
  EXPECT_EQ(t.winner(key), CollAlgo::kShm);
}

TEST(Autotune, FallbackWinsWhenNothingMeasured) {
  // A purely nonblocking workload advances the call counter but never
  // records timings; the static table's pick must survive.
  Autotuner t("sig");
  const u64 key = Autotuner::key(CollOp::kScan, 4, 64);
  bool exploring = true;
  const u64 after = u64(Autotuner::kExploreRounds) * std::size(kCands);
  EXPECT_EQ(t.choose(key, after, kCands, CollAlgo::kRing, &exploring),
            CollAlgo::kRing);
  EXPECT_FALSE(exploring);
}

TEST(Autotune, EwmaSmoothesTowardsNewSamples) {
  Autotuner t("sig");
  const u64 key = Autotuner::key(CollOp::kReduce, 2, 32);
  t.record(key, CollAlgo::kLinear, 100.0);
  EXPECT_DOUBLE_EQ(t.ewma_us(key, CollAlgo::kLinear), 100.0);
  t.record(key, CollAlgo::kLinear, 0.0);
  EXPECT_DOUBLE_EQ(t.ewma_us(key, CollAlgo::kLinear),
                   100.0 - Autotuner::kAlpha * 100.0);
  EXPECT_LT(t.ewma_us(key, CollAlgo::kBinomial), 0.0);  // never recorded
}

TEST(Autotune, KeySeparatesOpSizeBinAndCommSize) {
  const u64 a = Autotuner::key(CollOp::kAllreduce, 4, 1024);
  EXPECT_EQ(a, Autotuner::key(CollOp::kAllreduce, 4, 2000));  // same pof2 bin
  EXPECT_NE(a, Autotuner::key(CollOp::kAllreduce, 4, 2048));
  EXPECT_NE(a, Autotuner::key(CollOp::kAllreduce, 8, 1024));
  EXPECT_NE(a, Autotuner::key(CollOp::kReduce, 4, 1024));
}

TEST(Autotune, PersistRoundTripAndSignatureMismatch) {
  const std::string path = temp_table_path("roundtrip");
  const u64 key = Autotuner::key(CollOp::kAllgather, 4, 8192);
  {
    Autotuner t("hw=4 profile=zero ranks=4");
    t.record(key, CollAlgo::kRing, 1.0);
    t.record(key, CollAlgo::kLinear, 99.0);
    bool exploring = false;
    t.choose(key, u64(Autotuner::kExploreRounds) * std::size(kCands), kCands,
             CollAlgo::kLinear, &exploring);
    ASSERT_EQ(t.winner(key), CollAlgo::kRing);
    ASSERT_TRUE(t.save(path));
  }
  {
    Autotuner t("hw=4 profile=zero ranks=4");
    ASSERT_TRUE(t.load(path));
    // Preloaded winners are immutable and apply from call 0.
    bool exploring = true;
    EXPECT_EQ(t.choose(key, 0, kCands, CollAlgo::kLinear, &exploring),
              CollAlgo::kRing);
    EXPECT_FALSE(exploring);
    EXPECT_FALSE(t.dirty());  // nothing new learned
  }
  {
    Autotuner t("hw=8 profile=zero ranks=4");  // different machine
    EXPECT_FALSE(t.load(path));
    EXPECT_EQ(t.winner(key), CollAlgo::kAuto);
  }
  {
    Autotuner t("hw=4 profile=zero ranks=4");
    EXPECT_FALSE(t.load(path + ".missing"));
  }
  std::remove(path.c_str());
}

TEST(Autotune, EnvVarDisablesAutotuning) {
  ASSERT_EQ(setenv("MPIWASM_COLL_AUTOTUNE", "0", 1), 0);
  CollTuning off = CollTuning::from_env();
  ASSERT_EQ(setenv("MPIWASM_COLL_AUTOTUNE", "1", 1), 0);
  CollTuning on = CollTuning::from_env();
  ASSERT_EQ(unsetenv("MPIWASM_COLL_AUTOTUNE"), 0);
  CollTuning dflt = CollTuning::from_env();
  EXPECT_FALSE(off.autotune);
  EXPECT_TRUE(on.autotune);
  EXPECT_TRUE(dflt.autotune);

  World world(2, NetworkProfile::zero(), off);
  EXPECT_EQ(world.tuner(), nullptr);
  world.run([](Rank& r) {  // still fully functional, statically selected
    i64 v = r.rank(), sum = -1;
    r.allreduce(&v, &sum, 1, Datatype::kLong, ReduceOp::kSum);
    ASSERT_EQ(sum, 1);
  });
}

TEST(Autotune, ExplicitAlgoOverrideBypassesTuner) {
  // MPIWASM_COLL_<NAME>-style forcing must win over the autotuner: the
  // forced op never advances past kAuto in the tuner's table.
  CollTuning t = coll::forced_tuning(CollOp::kAllreduce, CollAlgo::kRing);
  ASSERT_TRUE(t.autotune);
  World world(4, NetworkProfile::zero(), t);
  ASSERT_NE(world.tuner(), nullptr);
  world.run([](Rank& r) {
    std::vector<i64> v(256, r.rank()), out(256);
    for (int it = 0; it < 40; ++it)
      r.allreduce(v.data(), out.data(), 256, Datatype::kLong, ReduceOp::kSum);
  });
  const u64 key = Autotuner::key(CollOp::kAllreduce, 4, 256 * 8);
  EXPECT_EQ(world.tuner()->winner(key), CollAlgo::kAuto);
}

TEST(Autotune, WorldConvergesToLockedWinner) {
  CollTuning t;  // kAuto everywhere, autotune on, no persistence
  World world(4, NetworkProfile::zero(), t);
  ASSERT_NE(world.tuner(), nullptr);
  const int count = 512;
  const u64 key = Autotuner::key(CollOp::kAllreduce, 4, count * 8);
  // More calls than the exploration budget of any candidate list.
  world.run([&](Rank& r) {
    std::vector<i64> in(count), expect(count), out(count);
    for (int i = 0; i < count; ++i) in[size_t(i)] = (r.rank() + 1) * (i + 1);
    for (int i = 0; i < count; ++i)
      expect[size_t(i)] = 10 * (i + 1);  // sum of (rank+1) over 4 ranks
    for (int it = 0; it < 40; ++it) {
      r.allreduce(in.data(), out.data(), count, Datatype::kLong,
                  ReduceOp::kSum);
      ASSERT_EQ(out, expect) << "it=" << it;  // correct during exploration
    }
  });
  CollAlgo w = world.tuner()->winner(key);
  EXPECT_NE(w, CollAlgo::kAuto);  // converged
  bool found = false;
  for (CollAlgo a : coll::algos_for(CollOp::kAllreduce))
    found = found || a == w;
  EXPECT_TRUE(found) << "winner not in candidate list";
}

TEST(Autotune, WorldPersistsAndWarmStarts) {
  const std::string path = temp_table_path("world");
  std::remove(path.c_str());
  CollTuning t;
  t.autotune_file = path;
  const int count = 128;
  const u64 key = Autotuner::key(CollOp::kAllreduce, 4, count * 8);
  CollAlgo cold_winner;
  {
    World world(4, NetworkProfile::zero(), t);
    world.run([&](Rank& r) {
      std::vector<i64> v(count, 1), out(count);
      for (int it = 0; it < 40; ++it)
        r.allreduce(v.data(), out.data(), count, Datatype::kLong,
                    ReduceOp::kSum);
    });
    cold_winner = world.tuner()->winner(key);
    ASSERT_NE(cold_winner, CollAlgo::kAuto);
  }  // dtor saves the table
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    World world(4, NetworkProfile::zero(), t);
    // Warm start: the winner is preloaded before any collective ran.
    EXPECT_EQ(world.tuner()->winner(key), cold_winner);
    world.run([&](Rank& r) {
      std::vector<i64> v(count, 1), out(count);
      r.allreduce(v.data(), out.data(), count, Datatype::kLong,
                  ReduceOp::kSum);
      ASSERT_EQ(out[0], 4);
    });
    EXPECT_EQ(world.tuner()->winner(key), cold_winner);
  }
  {
    // A different rank layout gets a different signature: the stale table
    // must be ignored, not misapplied.
    World world(2, NetworkProfile::zero(), t);
    EXPECT_EQ(world.tuner()->winner(key), CollAlgo::kAuto);
  }
  std::remove(path.c_str());
}

// The persisted table does not record whether the shm path was on: a
// world with MPIWASM_COLL_SHM=0 that preloads a kShm winner must run the
// static table's p2p pick instead of the shm path it has no context for.
TEST(Autotune, ShmWinnerFromTableIsNotRunWithoutContext) {
  const std::string path = temp_table_path("shm-off");
  std::remove(path.c_str());
  CollTuning t;
  t.autotune_file = path;
  const u64 key = Autotuner::key(CollOp::kBarrier, 4, 0);
  {
    World world(4, NetworkProfile::zero(), t);
    world.run([&](Rank& r) {
      for (int it = 0; it < 40; ++it) r.barrier();
    });
    ASSERT_EQ(world.tuner()->winner(key), CollAlgo::kShm);
  }  // dtor saves the table
  t.enable_shm = false;
  World world(4, NetworkProfile::zero(), t);
  EXPECT_EQ(world.tuner()->winner(key), CollAlgo::kShm);
  world.run([&](Rank& r) {
    for (int it = 0; it < 3; ++it) r.barrier();
    i64 v = 1, sum = 0;
    r.allreduce(&v, &sum, 1, Datatype::kLong, ReduceOp::kSum);
    EXPECT_EQ(sum, 4);
  });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpiwasm::simmpi
