// Direct unit tests for LinearMemory (the §3.5 substrate: stable base,
// bounds semantics, grow) and the embedder's Env/SharedHandleState
// translation tables (§3.6/§3.7).
#include "testlib.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "embedder/abi.h"
#include "embedder/env.h"
#include "runtime/memory.h"
#include "simmpi/world.h"

namespace mpiwasm::test {
namespace {

namespace abi = embed::abi;
using rt::LinearMemory;

TEST(LinearMemory, BaseIsStableAcrossGrow) {
  // The embedder records the base address once (§3.5 / Fig. 2); growth
  // must never move it.
  LinearMemory mem(1, 64);
  const u8* base = mem.base();
  EXPECT_EQ(mem.pages(), 1u);
  EXPECT_EQ(mem.grow(3), 1);
  EXPECT_EQ(mem.grow(10), 4);
  EXPECT_EQ(mem.pages(), 14u);
  EXPECT_EQ(mem.base(), base);
}

TEST(LinearMemory, GrowRespectsMax) {
  LinearMemory mem(2, 4);
  EXPECT_EQ(mem.grow(2), 2);
  EXPECT_EQ(mem.grow(1), -1);  // beyond max: fail, do not trap
  EXPECT_EQ(mem.pages(), 4u);
}

TEST(LinearMemory, BoundsFollowLogicalSizeNotReservation) {
  LinearMemory mem(1, 16);
  // Offset beyond page 1 is reserved virtually but must still trap until
  // grown — sandbox semantics are defined by the logical size.
  EXPECT_THROW(mem.load<u32>(wasm::kPageSize), rt::Trap);
  mem.grow(1);
  EXPECT_EQ(mem.load<u32>(wasm::kPageSize), 0u);  // fresh pages are zero
}

TEST(LinearMemory, EdgeAccesses) {
  LinearMemory mem(1, 4);
  const u64 last = wasm::kPageSize - 1;
  mem.store<u8>(last, 0xAB);
  EXPECT_EQ(mem.load<u8>(last), 0xAB);
  EXPECT_THROW(mem.store<u16>(last, 1), rt::Trap);
  EXPECT_THROW(mem.load<u64>(wasm::kPageSize - 7), rt::Trap);
  EXPECT_NO_THROW(mem.load<u64>(wasm::kPageSize - 8));
}

TEST(LinearMemory, SpanIsChecked) {
  LinearMemory mem(1, 4);
  auto s = mem.span(100, 16);
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(s.data(), mem.base() + 100);
  EXPECT_THROW(mem.span(wasm::kPageSize - 4, 8), rt::Trap);
}

TEST(LinearMemory, MoveTransfersOwnership) {
  LinearMemory a(1, 4);
  a.store<u32>(0, 42);
  LinearMemory b(std::move(a));
  EXPECT_EQ(b.load<u32>(0), 42u);
  EXPECT_EQ(a.base(), nullptr);
  LinearMemory c(1, 2);
  c = std::move(b);
  EXPECT_EQ(c.load<u32>(0), 42u);
}

constexpr u64 kHugePage = u64(2) << 20;

TEST(LinearMemory, GuardedBaseIsHugePageAligned) {
  LinearMemory mem(1, 64);
  ASSERT_TRUE(mem.guarded());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(mem.base()) % kHugePage, 0u);
}

TEST(LinearMemory, TwoMiBMemoryTrapsAtItsEndAndOpensOnGrow) {
  // 32 pages are exactly one huge page: the whole aligned 2 MiB is
  // read-write and the byte after it is the first of the guard region.
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.mem_op(Op::kI32Load);
    f.end();
  }, 32);
  const std::string want = "access at 2097152+4 exceeds memory size 2097152";
  for (EngineTier tier : {EngineTier::kInterp, EngineTier::kJit}) {
    SCOPED_TRACE(rt::tier_name(tier));
    auto inst = instantiate(bytes, tier);
    LinearMemory& mem = inst->memory();
    ASSERT_EQ(mem.byte_size(), kHugePage);
    std::memset(mem.base(), 0x5A, kHugePage);
    Value last = Value::from_i32(i32(kHugePage - 4));
    EXPECT_EQ(inst->invoke("run", {&last, 1}).as_i32(), 0x5A5A5A5A);
    Value end = Value::from_i32(i32(kHugePage));
    try {
      inst->invoke("run", {&end, 1});
      ADD_FAILURE() << "expected a trap";
    } catch (const rt::Trap& t) {
      EXPECT_EQ(t.kind(), rt::TrapKind::kMemoryOutOfBounds);
      EXPECT_NE(std::string(t.what()).find(want), std::string::npos)
          << t.what();
    }
    ASSERT_EQ(mem.grow(1), 32);
    EXPECT_EQ(inst->invoke("run", {&end, 1}).as_i32(), 0);
  }
}

/// Whether the host's THP mode lets an madvise'd range get huge pages.
bool thp_madvise_honoured() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(in, mode);
  return mode.find("[always]") != std::string::npos ||
         mode.find("[madvise]") != std::string::npos;
}

/// AnonHugePages (kB) of the /proc/self/smaps mapping holding `addr`, or -1.
long anon_huge_kb(const void* addr) {
  const auto a = reinterpret_cast<uintptr_t>(addr);
  std::ifstream in("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      inside = lo <= a && a < hi;
      continue;
    }
    long kb = 0;
    if (inside && std::sscanf(line.c_str(), "AnonHugePages: %ld kB", &kb) == 1)
      return kb;
  }
  return -1;
}

TEST(LinearMemory, TouchedMemoryIsBackedByHugePages) {
  if (!thp_madvise_honoured())
    GTEST_SKIP() << "transparent huge pages are off on this host";
  LinearMemory mem(64, 64);  // 4 MiB from an aligned base
  std::memset(mem.base(), 1, 2 * kHugePage);
  EXPECT_GE(anon_huge_kb(mem.base()), 2048);
}

TEST(SharedHandleState, StaticTablesMatchAbi) {
  embed::SharedHandleState st;
  EXPECT_EQ(st.lookup_datatype(abi::MPI_BYTE), simmpi::Datatype::kByte);
  EXPECT_EQ(st.lookup_datatype(abi::MPI_DOUBLE), simmpi::Datatype::kDouble);
  EXPECT_EQ(st.lookup_op(abi::MPI_SUM), simmpi::ReduceOp::kSum);
  EXPECT_EQ(st.lookup_op(abi::MPI_BOR), simmpi::ReduceOp::kBor);
  EXPECT_EQ(st.lookup_comm(abi::MPI_COMM_WORLD), simmpi::kCommWorld);
}

TEST(SharedHandleState, InvalidHandlesTrap) {
  embed::SharedHandleState st;
  EXPECT_THROW(st.lookup_datatype(999), rt::Trap);
  EXPECT_THROW(st.lookup_op(-3), rt::Trap);
  EXPECT_THROW(st.lookup_comm(12345), rt::Trap);
}

TEST(SharedHandleState, InternedCommsResolve) {
  embed::SharedHandleState st;
  i32 handle = st.intern_comm(7);
  EXPECT_EQ(handle, 7);
  EXPECT_EQ(st.lookup_comm(handle), 7);
}

TEST(Env, RequestTableLifecycle) {
  simmpi::World world(1);
  world.run([&](simmpi::Rank& rank) {
    auto shared = std::make_shared<embed::SharedHandleState>();
    embed::Env env(&rank, shared, true, false);
    i32 h1 = env.add_request({});
    i32 h2 = env.add_request({});
    EXPECT_NE(h1, h2);
    EXPECT_NE(env.find_request(h1), nullptr);
    env.drop_request(h1);
    EXPECT_EQ(env.find_request(h1), nullptr);
    EXPECT_NE(env.find_request(h2), nullptr);
    EXPECT_EQ(env.find_request(999), nullptr);
  });
}

TEST(Env, TranslationSamplesOnlyWhenEnabled) {
  simmpi::World world(1);
  world.run([&](simmpi::Rank& rank) {
    auto shared = std::make_shared<embed::SharedHandleState>();
    embed::Env off(&rank, shared, true, false);
    off.translate_datatype(abi::MPI_INT, 128);
    EXPECT_TRUE(off.samples().empty());
    embed::Env on(&rank, shared, true, true);
    on.translate_datatype(abi::MPI_INT, 128);
    on.translate_datatype(abi::MPI_DOUBLE, 4096);
    ASSERT_EQ(on.samples().size(), 2u);
    EXPECT_EQ(on.samples()[0].wasm_datatype, abi::MPI_INT);
    EXPECT_EQ(on.samples()[1].msg_bytes, 4096u);
  });
}

TEST(NetworkProfile, CostModel) {
  auto p = simmpi::NetworkProfile::omnipath();
  EXPECT_EQ(p.message_cost_ns(0), p.latency_ns);
  // 12.5 bytes/ns: 1 MiB should cost latency + ~83886ns.
  u64 mib_cost = p.message_cost_ns(1 << 20);
  EXPECT_NEAR(f64(mib_cost - p.latency_ns), f64(1 << 20) / 12.5, 2.0);
  auto g = simmpi::NetworkProfile::grpc_messaging();
  EXPECT_TRUE(g.force_copy);
  EXPECT_GT(g.message_cost_ns(1 << 20), p.message_cost_ns(1 << 20));
  auto z = simmpi::NetworkProfile::zero();
  EXPECT_EQ(z.message_cost_ns(1 << 20), 0u);
}

TEST(Datatypes, SizesAndNames) {
  using simmpi::Datatype;
  EXPECT_EQ(simmpi::datatype_size(Datatype::kByte), 1u);
  EXPECT_EQ(simmpi::datatype_size(Datatype::kInt), 4u);
  EXPECT_EQ(simmpi::datatype_size(Datatype::kDouble), 8u);
  EXPECT_EQ(simmpi::datatype_size(Datatype::kLongLong), 8u);
  EXPECT_STREQ(simmpi::datatype_name(Datatype::kFloat), "MPI_FLOAT");
}

}  // namespace
}  // namespace mpiwasm::test
