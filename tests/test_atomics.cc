// Differential suite for the threads-proposal 0xFE atomic opcode space.
//
// One module exports a tiny wrapper per atomic opcode; every engine
// configuration (the three tiers, jit on/off) must
// agree with a host-side std::atomic-style reference on result values and
// memory effects — including sub-word zero-extension and the untouched
// neighbouring bytes. On top of the
// single-threaded semantics: host-thread hammer tests for RMW atomicity,
// a cmpxchg retry-loop (ABA-shaped) counter, wait/notify handshakes
// including the FIFO no-wake-stealing regression, trap equivalence for
// unaligned / out-of-bounds atomics, and the validator's shared-memory
// and natural-alignment rejections.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "testlib.h"

namespace mpiwasm::test {
namespace {

using rt::Trap;
using rt::TrapKind;

// Operand kinds for the per-op wrappers. Each family of seven ops shares
// the width/result pattern {i32/4, i64/8, i32/1, i32/2, i64/1, i64/2,
// i64/4} in opcode order.
enum class Kind : u8 { kLoad, kStore, kAdd, kSub, kAnd, kOr, kXor, kXchg,
                       kCmpxchg };

struct OpCase {
  Op op;
  u32 bytes;   // access width
  bool wide;   // i64-typed operands/result
  Kind kind;
};

void push_family(std::vector<OpCase>& v, Op base, Kind kind) {
  static constexpr u32 kW[7] = {4, 8, 1, 2, 1, 2, 4};
  static constexpr bool kWide[7] = {false, true, false, false, true, true,
                                    true};
  for (u16 i = 0; i < 7; ++i)
    v.push_back({Op(u16(base) + i), kW[i], kWide[i], kind});
}

std::vector<OpCase> all_op_cases() {
  std::vector<OpCase> v;
  push_family(v, Op::kI32AtomicLoad, Kind::kLoad);
  push_family(v, Op::kI32AtomicStore, Kind::kStore);
  push_family(v, Op::kI32AtomicRmwAdd, Kind::kAdd);
  push_family(v, Op::kI32AtomicRmwSub, Kind::kSub);
  push_family(v, Op::kI32AtomicRmwAnd, Kind::kAnd);
  push_family(v, Op::kI32AtomicRmwOr, Kind::kOr);
  push_family(v, Op::kI32AtomicRmwXor, Kind::kXor);
  push_family(v, Op::kI32AtomicRmwXchg, Kind::kXchg);
  push_family(v, Op::kI32AtomicRmwCmpxchg, Kind::kCmpxchg);
  return v;
}

std::string op_export_name(Op op) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "op_%04x", unsigned(u16(op)));
  return buf;
}

/// Module with a shared memory and one exported wrapper per 0xFE op, plus
/// "cas_inc": a cmpxchg retry loop incrementing the i32 at its address
/// argument by one (the classic lock-free counter).
std::vector<u8> build_atomics_module() {
  ModuleBuilder b;
  b.add_memory(1, 1, /*has_max=*/true, /*shared=*/true);
  b.export_memory();
  for (const OpCase& c : all_op_cases()) {
    const ValType t = c.wide ? I64 : I32;
    switch (c.kind) {
      case Kind::kLoad: {
        auto& f = b.begin_func({{I32}, {t}}, op_export_name(c.op));
        f.local_get(0);
        f.mem_op(c.op);
        f.end();
        break;
      }
      case Kind::kStore: {
        auto& f = b.begin_func({{I32, t}, {}}, op_export_name(c.op));
        f.local_get(0);
        f.local_get(1);
        f.mem_op(c.op);
        f.end();
        break;
      }
      case Kind::kCmpxchg: {
        auto& f = b.begin_func({{I32, t, t}, {t}}, op_export_name(c.op));
        f.local_get(0);
        f.local_get(1);
        f.local_get(2);
        f.mem_op(c.op);
        f.end();
        break;
      }
      default: {  // two-operand RMW
        auto& f = b.begin_func({{I32, t}, {t}}, op_export_name(c.op));
        f.local_get(0);
        f.local_get(1);
        f.mem_op(c.op);
        f.end();
        break;
      }
    }
  }
  {
    auto& f = b.begin_func({{I32, I32}, {I32}},
                           op_export_name(Op::kMemoryAtomicNotify));
    f.local_get(0);
    f.local_get(1);
    f.mem_op(Op::kMemoryAtomicNotify);
    f.end();
  }
  {
    auto& f = b.begin_func({{I32, I32, I64}, {I32}},
                           op_export_name(Op::kMemoryAtomicWait32));
    f.local_get(0);
    f.local_get(1);
    f.local_get(2);
    f.mem_op(Op::kMemoryAtomicWait32);
    f.end();
  }
  {
    auto& f = b.begin_func({{I32, I64, I64}, {I32}},
                           op_export_name(Op::kMemoryAtomicWait64));
    f.local_get(0);
    f.local_get(1);
    f.local_get(2);
    f.mem_op(Op::kMemoryAtomicWait64);
    f.end();
  }
  {
    auto& f = b.begin_func({{}, {}}, op_export_name(Op::kAtomicFence));
    f.op(Op::kAtomicFence);
    f.end();
  }
  {
    auto& f = b.begin_func({{I32}, {}}, "cas_inc");
    u32 old = f.add_local(I32);
    f.loop();
    f.local_get(0);
    f.mem_op(Op::kI32AtomicLoad);
    f.local_set(old);
    f.local_get(0);
    f.local_get(old);
    f.local_get(old);
    f.i32_const(1);
    f.op(Op::kI32Add);
    f.mem_op(Op::kI32AtomicRmwCmpxchg);
    f.local_get(old);
    f.op(Op::kI32Ne);
    f.br_if(0);
    f.end();   // loop
    f.end();   // function
  }
  std::vector<u8> bytes = b.build();
  auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
  EXPECT_TRUE(decoded.ok()) << decoded.error;
  if (decoded.ok()) {
    auto vr = wasm::validate_module(*decoded.module);
    EXPECT_TRUE(vr.ok) << vr.error;
  }
  return bytes;
}

u64 width_mask(u32 bytes) {
  return bytes == 8 ? ~u64(0) : (u64(1) << (bytes * 8)) - 1;
}

u64 apply_rmw(Kind k, u64 a, u64 b, u64 m) {
  switch (k) {
    case Kind::kAdd: return (a + b) & m;
    case Kind::kSub: return (a - b) & m;
    case Kind::kAnd: return a & b & m;
    case Kind::kOr: return (a | b) & m;
    case Kind::kXor: return (a ^ b) & m;
    case Kind::kXchg: return b & m;
    default: return 0;
  }
}

Value val(bool wide, u64 v) {
  return wide ? Value::from_i64(i64(v)) : Value::from_i32(i32(u32(v)));
}

u64 ret_of(bool wide, const Value& v) {
  return wide ? u64(v.as_i64()) : u64(u32(v.as_i32()));
}

using AtomicsCfgTest = ::testing::TestWithParam<EngineConfig>;

INSTANTIATE_TEST_SUITE_P(AllConfigs, AtomicsCfgTest,
                         ::testing::ValuesIn(all_engine_configs()),
                         [](const auto& info) {
                           std::string s = config_label(info.param);
                           for (char& c : s)
                             if (!isalnum(u8(c))) c = '_';
                           return s;
                         });

constexpr u64 kPatA = 0xF1E2D3C4B5A69788ull;
constexpr u64 kPatB = 0x1122334455667788ull;
constexpr u32 kAddr = 16;

TEST_P(AtomicsCfgTest, EveryOpMatchesHostReference) {
  auto bytes = build_atomics_module();
  auto inst = instantiate_cfg(bytes, GetParam());
  for (const OpCase& c : all_op_cases()) {
    SCOPED_TRACE(op_export_name(c.op));
    const u64 m = width_mask(c.bytes);
    auto& mem = inst->memory();
    mem.store<u64>(kAddr, kPatA);
    const u64 old = kPatA & m;
    const u64 untouched = kPatA & ~m;
    switch (c.kind) {
      case Kind::kLoad: {
        Value a = Value::from_i32(i32(kAddr));
        EXPECT_EQ(ret_of(c.wide, inst->invoke(op_export_name(c.op), {&a, 1})),
                  old);
        break;
      }
      case Kind::kStore: {
        Value args[2] = {Value::from_i32(i32(kAddr)), val(c.wide, kPatB)};
        inst->invoke(op_export_name(c.op), {args, 2});
        EXPECT_EQ(mem.load<u64>(kAddr), untouched | (kPatB & m));
        break;
      }
      case Kind::kCmpxchg: {
        // Matching expected: swaps, returns the old value.
        Value hit[3] = {Value::from_i32(i32(kAddr)), val(c.wide, old),
                        val(c.wide, kPatB)};
        EXPECT_EQ(ret_of(c.wide, inst->invoke(op_export_name(c.op), {hit, 3})),
                  old);
        EXPECT_EQ(mem.load<u64>(kAddr), untouched | (kPatB & m));
        // Mismatching expected: memory unchanged, still returns the value.
        mem.store<u64>(kAddr, kPatA);
        Value miss[3] = {Value::from_i32(i32(kAddr)),
                         val(c.wide, (old ^ 1) & m), val(c.wide, kPatB)};
        EXPECT_EQ(
            ret_of(c.wide, inst->invoke(op_export_name(c.op), {miss, 3})),
            old);
        EXPECT_EQ(mem.load<u64>(kAddr), kPatA);
        break;
      }
      default: {
        Value args[2] = {Value::from_i32(i32(kAddr)), val(c.wide, kPatB)};
        EXPECT_EQ(
            ret_of(c.wide, inst->invoke(op_export_name(c.op), {args, 2})),
            old)
            << "rmw must return the pre-op (zero-extended) value";
        EXPECT_EQ(mem.load<u64>(kAddr),
                  untouched | apply_rmw(c.kind, old, kPatB & m, m));
        break;
      }
    }
  }
}

TEST_P(AtomicsCfgTest, WaitNotifyFenceSingleThread) {
  auto inst = instantiate_cfg(build_atomics_module(), GetParam());
  inst->invoke(op_export_name(Op::kAtomicFence));
  inst->memory().store<u32>(32, 7);
  inst->memory().store<u64>(40, 9);
  // notify with no waiters wakes nobody.
  {
    Value a[2] = {Value::from_i32(32), Value::from_i32(5)};
    EXPECT_EQ(
        inst->invoke(op_export_name(Op::kMemoryAtomicNotify), {a, 2}).as_i32(),
        0);
  }
  // wait with a stale expected value returns 1 ("not-equal") immediately.
  {
    Value a[3] = {Value::from_i32(32), Value::from_i32(8),
                  Value::from_i64(-1)};
    EXPECT_EQ(
        inst->invoke(op_export_name(Op::kMemoryAtomicWait32), {a, 3}).as_i32(),
        1);
  }
  {
    Value a[3] = {Value::from_i32(40), Value::from_i64(10),
                  Value::from_i64(-1)};
    EXPECT_EQ(
        inst->invoke(op_export_name(Op::kMemoryAtomicWait64), {a, 3}).as_i32(),
        1);
  }
  // wait on the current value with a 1ms budget returns 2 ("timed-out").
  {
    Value a[3] = {Value::from_i32(32), Value::from_i32(7),
                  Value::from_i64(1'000'000)};
    EXPECT_EQ(
        inst->invoke(op_export_name(Op::kMemoryAtomicWait32), {a, 3}).as_i32(),
        2);
  }
  {
    Value a[3] = {Value::from_i32(40), Value::from_i64(9),
                  Value::from_i64(1'000'000)};
    EXPECT_EQ(
        inst->invoke(op_export_name(Op::kMemoryAtomicWait64), {a, 3}).as_i32(),
        2);
  }
}

template <typename Fn>
TrapKind expect_trap(Fn&& fn) {
  try {
    fn();
  } catch (const Trap& t) {
    return t.kind();
  }
  ADD_FAILURE() << "expected a trap";
  return TrapKind::kHostError;
}

TEST_P(AtomicsCfgTest, UnalignedAndOutOfBoundsTrapsAgree) {
  auto inst = instantiate_cfg(build_atomics_module(), GetParam());
  auto call1 = [&](Op op, u32 addr) {
    Value a = Value::from_i32(i32(addr));
    inst->invoke(op_export_name(op), {&a, 1});
  };
  auto call2 = [&](Op op, u32 addr, bool wide) {
    Value a[2] = {Value::from_i32(i32(addr)), val(wide, 1)};
    inst->invoke(op_export_name(op), {a, 2});
  };
  // Atomics trap on any non-naturally-aligned address — even in-bounds.
  EXPECT_EQ(expect_trap([&] { call1(Op::kI32AtomicLoad, 2); }),
            TrapKind::kUnalignedAtomic);
  EXPECT_EQ(expect_trap([&] { call1(Op::kI64AtomicLoad, 12); }),
            TrapKind::kUnalignedAtomic);
  EXPECT_EQ(expect_trap([&] { call2(Op::kI32AtomicRmwAdd, 6, false); }),
            TrapKind::kUnalignedAtomic);
  EXPECT_EQ(expect_trap([&] { call2(Op::kI64AtomicStore, 4, true); }),
            TrapKind::kUnalignedAtomic);
  {
    Value a[3] = {Value::from_i32(2), Value::from_i32(0), Value::from_i64(0)};
    EXPECT_EQ(expect_trap([&] {
                inst->invoke(op_export_name(Op::kMemoryAtomicWait32), {a, 3});
              }),
              TrapKind::kUnalignedAtomic);
  }
  // Aligned but out of the one-page memory.
  EXPECT_EQ(expect_trap([&] { call1(Op::kI32AtomicLoad, 65536); }),
            TrapKind::kMemoryOutOfBounds);
  EXPECT_EQ(expect_trap([&] { call2(Op::kI64AtomicRmwXchg, 65536, true); }),
            TrapKind::kMemoryOutOfBounds);
  EXPECT_EQ(expect_trap([&] { call2(Op::kI32AtomicRmwAdd, 65536, false); }),
            TrapKind::kMemoryOutOfBounds);  // lock-prefixed fault site
  EXPECT_EQ(
      expect_trap([&] { call2(Op::kI32AtomicRmw16SubU, 65536, false); }),
      TrapKind::kMemoryOutOfBounds);
  EXPECT_EQ(expect_trap([&] { call1(Op::kI32AtomicLoad, 65534); }),
            TrapKind::kMemoryOutOfBounds)
      << "4-byte access straddling the memory end";
  // Both unaligned and out of bounds: bounds are reported first, for
  // inline and helper-backed atomics alike.
  EXPECT_EQ(expect_trap([&] { call1(Op::kI32AtomicLoad, 65538); }),
            TrapKind::kMemoryOutOfBounds);
  EXPECT_EQ(expect_trap([&] { call2(Op::kI64AtomicStore, 65540, true); }),
            TrapKind::kMemoryOutOfBounds);
  EXPECT_EQ(expect_trap([&] { call2(Op::kI32AtomicRmwOr, 65538, false); }),
            TrapKind::kMemoryOutOfBounds);
  EXPECT_EQ(expect_trap([&] { call2(Op::kI32AtomicRmwOr, 6, false); }),
            TrapKind::kUnalignedAtomic);
}

// ---------------------------------------------------------------------------
// Host-thread concurrency. The interp and jit tiers bracket the dispatch
// space; the differential sweep above covers the middle tiers.
// ---------------------------------------------------------------------------

std::vector<EngineConfig> hammer_configs() {
  EngineConfig interp;
  interp.tier = EngineTier::kInterp;
  EngineConfig jit;
  jit.tier = EngineTier::kJit;
  return {interp, jit};
}

using AtomicsHammerTest = ::testing::TestWithParam<EngineConfig>;

INSTANTIATE_TEST_SUITE_P(InterpAndJit, AtomicsHammerTest,
                         ::testing::ValuesIn(hammer_configs()),
                         [](const auto& info) {
                           return std::string(rt::tier_name(info.param.tier));
                         });

TEST_P(AtomicsHammerTest, RmwAddIsAtomicAcrossHostThreads) {
  auto inst = instantiate_cfg(build_atomics_module(), GetParam());
  constexpr int kThreads = 4, kIters = 500;
  const std::string add32 = op_export_name(Op::kI32AtomicRmwAdd);
  const std::string add64 = op_export_name(Op::kI64AtomicRmwAdd);
  const std::string add8 = op_export_name(Op::kI32AtomicRmw8AddU);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        Value a32[2] = {Value::from_i32(16), Value::from_i32(1)};
        inst->invoke(add32, {a32, 2});
        Value a64[2] = {Value::from_i32(24), Value::from_i64(3)};
        inst->invoke(add64, {a64, 2});
        Value a8[2] = {Value::from_i32(33), Value::from_i32(1)};
        inst->invoke(add8, {a8, 2});
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(inst->memory().load<u32>(16), u32(kThreads * kIters));
  EXPECT_EQ(inst->memory().load<u64>(24), u64(kThreads * kIters) * 3);
  // The 8-bit op wraps modulo 256 and must not spill into neighbours.
  EXPECT_EQ(inst->memory().load<u8>(33), u8(kThreads * kIters));
  EXPECT_EQ(inst->memory().load<u8>(32), 0u);
  EXPECT_EQ(inst->memory().load<u8>(34), 0u);
}

TEST_P(AtomicsHammerTest, CmpxchgRetryLoopCountsExactly) {
  auto inst = instantiate_cfg(build_atomics_module(), GetParam());
  constexpr int kThreads = 4, kIters = 300;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        Value a = Value::from_i32(48);
        inst->invoke("cas_inc", {&a, 1});
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(inst->memory().load<u32>(48), u32(kThreads * kIters));
}

TEST_P(AtomicsHammerTest, WaitNotifyHandshake) {
  auto inst = instantiate_cfg(build_atomics_module(), GetParam());
  const std::string wait32 = op_export_name(Op::kMemoryAtomicWait32);
  const std::string notify = op_export_name(Op::kMemoryAtomicNotify);
  std::atomic<int> waiter_ret{-1};
  std::thread waiter([&] {
    Value a[3] = {Value::from_i32(56), Value::from_i32(0),
                  Value::from_i64(-1)};
    waiter_ret.store(inst->invoke(wait32, {a, 3}).as_i32());
  });
  // Poke until the parked waiter is actually woken.
  int woken = 0;
  while (woken == 0) {
    Value a[2] = {Value::from_i32(56), Value::from_i32(1)};
    woken = inst->invoke(notify, {a, 2}).as_i32();
    if (woken == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  waiter.join();
  EXPECT_EQ(woken, 1);
  EXPECT_EQ(waiter_ret.load(), 0);
}

// Regression for the wake-stealing bug: wake tokens used to live in a
// per-address pool, so a woken thread that immediately re-parked on the
// same address could consume a token minted for a still-sleeping peer
// (exactly what a worker-pool epoch barrier does every phase). Wakes are
// now handed to specific FIFO-queued waiters.
TEST_P(AtomicsHammerTest, ReparkingWaiterCannotStealPeersWake) {
  auto inst = instantiate_cfg(build_atomics_module(), GetParam());
  const std::string wait32 = op_export_name(Op::kMemoryAtomicWait32);
  const std::string notify = op_export_name(Op::kMemoryAtomicNotify);
  std::atomic<int> first_ret{-1}, repark_ret{-1}, peer_ret{-1};
  std::thread reparker([&] {
    Value a[3] = {Value::from_i32(64), Value::from_i32(0),
                  Value::from_i64(-1)};
    first_ret.store(inst->invoke(wait32, {a, 3}).as_i32());
    // Immediately park again: under the token model this consumed the
    // peer's wake; with FIFO delivery it can only time out.
    Value b[3] = {Value::from_i32(64), Value::from_i32(0),
                  Value::from_i64(300'000'000)};
    repark_ret.store(inst->invoke(wait32, {b, 3}).as_i32());
  });
  std::thread peer([&] {
    Value a[3] = {Value::from_i32(64), Value::from_i32(0),
                  Value::from_i64(5'000'000'000)};
    peer_ret.store(inst->invoke(wait32, {a, 3}).as_i32());
  });
  // Give both threads time to park, then mint exactly two wakes. If they
  // raced past the sleep, top up until two waiters have been woken.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  int woken = 0;
  while (woken < 2) {
    Value a[2] = {Value::from_i32(64), Value::from_i32(2)};
    woken += inst->invoke(notify, {a, 2}).as_i32();
    if (woken < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reparker.join();
  peer.join();
  EXPECT_EQ(first_ret.load(), 0);
  EXPECT_EQ(peer_ret.load(), 0) << "peer's wake was stolen by the re-parker";
  EXPECT_EQ(repark_ret.load(), 2) << "re-park must time out, not steal";
}

TEST_P(AtomicsHammerTest, NotifyOneWakesExactlyOneOfTwo) {
  auto inst = instantiate_cfg(build_atomics_module(), GetParam());
  const std::string wait32 = op_export_name(Op::kMemoryAtomicWait32);
  const std::string notify = op_export_name(Op::kMemoryAtomicNotify);
  std::atomic<int> r1{-1}, r2{-1};
  auto waiter = [&](std::atomic<int>& out) {
    Value a[3] = {Value::from_i32(72), Value::from_i32(0),
                  Value::from_i64(400'000'000)};
    out.store(inst->invoke(wait32, {a, 3}).as_i32());
  };
  std::thread t1(waiter, std::ref(r1)), t2(waiter, std::ref(r2));
  int woken = 0;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(300);
  while (woken == 0 && std::chrono::steady_clock::now() < deadline) {
    Value a[2] = {Value::from_i32(72), Value::from_i32(1)};
    woken = inst->invoke(notify, {a, 2}).as_i32();
    if (woken == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  t1.join();
  t2.join();
  EXPECT_EQ(woken, 1);
  // Exactly one waiter saw the wake; the other timed out.
  EXPECT_EQ(std::min(r1.load(), r2.load()), 0);
  EXPECT_EQ(std::max(r1.load(), r2.load()), 2);
}

// ---------------------------------------------------------------------------
// Validator and engine policy.
// ---------------------------------------------------------------------------

std::string validate_error(ModuleBuilder& b) {
  std::vector<u8> bytes = b.build();
  auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
  if (!decoded.ok()) return decoded.error;
  auto vr = wasm::validate_module(*decoded.module);
  return vr.ok ? "" : vr.error;
}

/// Shared memory of 1..64 pages with cell 0 holding the published page
/// count. "grow"(rounds) grows by one page `rounds` times, atomically
/// storing the new count after each grow returns. "touch"(limit) sets cell
/// 4 to announce it is running, polls the count until it reaches `limit`
/// and, for every page below it, writes and reads back the page's first
/// and last word with plain (non-atomic) accesses, stores the last word
/// again with i32.atomic.store, reads the first word back with
/// i32.atomic.rmw.or (a helper-backed op in native code) and reads
/// memory.size; it returns the number of read-backs that disagreed plus
/// the number of memory.size reads not above the page. "probe"(addr) sets
/// cell 12 to announce it is running, waits until cell 8 is nonzero, then
/// loads from addr.
std::vector<u8> build_grow_under_load_module() {
  ModuleBuilder b;
  b.add_memory(1, 64, /*has_max=*/true, /*shared=*/true);
  {
    auto& f = b.begin_func({{I32}, {}}, "grow");
    u32 i = f.add_local(I32);
    f.for_loop_i32(i, 0, 0, 1, [&] {
      f.i32_const(0);
      f.i32_const(1);
      f.op(Op::kMemoryGrow);
      f.i32_const(1);
      f.op(Op::kI32Add);
      f.mem_op(Op::kI32AtomicStore);
    });
    f.end();
  }
  {
    auto& f = b.begin_func({{I32}, {I32}}, "touch");
    const u32 limit = 0;
    const u32 seen = f.add_local(I32), pages = f.add_local(I32);
    const u32 addr = f.add_local(I32), errors = f.add_local(I32);
    f.i32_const(4);
    f.i32_const(1);
    f.mem_op(Op::kI32AtomicStore);
    f.i32_const(1);
    f.local_set(seen);
    f.loop();  // poll
    f.i32_const(0);
    f.mem_op(Op::kI32AtomicLoad);
    f.local_set(pages);
    f.block();
    f.loop();  // every page in [seen, pages)
    f.local_get(seen);
    f.local_get(pages);
    f.op(Op::kI32GeU);
    f.br_if(1);
    f.local_get(seen);
    f.i32_const(16);
    f.op(Op::kI32Shl);
    f.local_set(addr);
    f.local_get(addr);
    f.local_get(seen);
    f.mem_op(Op::kI32Store);
    f.local_get(addr);
    f.local_get(seen);
    f.mem_op(Op::kI32Store, 65532);
    f.local_get(addr);
    f.local_get(seen);
    f.mem_op(Op::kI32AtomicStore, 65532);
    f.local_get(errors);
    f.local_get(addr);
    f.mem_op(Op::kI32Load, 65532);
    f.local_get(seen);
    f.op(Op::kI32Ne);
    f.op(Op::kI32Add);
    f.local_get(addr);
    f.i32_const(0);
    f.mem_op(Op::kI32AtomicRmwOr);  // the first word's old value
    f.local_get(seen);
    f.op(Op::kI32Ne);
    f.op(Op::kI32Add);
    f.op(Op::kMemorySize);
    f.local_get(seen);
    f.op(Op::kI32LeU);
    f.op(Op::kI32Add);
    f.local_set(errors);
    f.local_get(seen);
    f.i32_const(1);
    f.op(Op::kI32Add);
    f.local_set(seen);
    f.br(0);
    f.end();
    f.end();
    f.local_get(seen);
    f.local_get(limit);
    f.op(Op::kI32LtU);
    f.br_if(0);
    f.end();
    f.local_get(errors);
    f.end();
  }
  {
    auto& f = b.begin_func({{I32}, {I32}}, "probe");
    f.i32_const(12);
    f.i32_const(1);
    f.mem_op(Op::kI32AtomicStore);
    f.loop();
    f.i32_const(8);
    f.mem_op(Op::kI32AtomicLoad);
    f.op(Op::kI32Eqz);
    f.br_if(0);
    f.end();
    f.local_get(0);
    f.mem_op(Op::kI32Load);
    f.end();
  }
  return b.build();
}

TEST_P(AtomicsHammerTest, SharedMemoryGrowsUnderLoad) {
  // One guest thread grows the shared memory while another writes and
  // reads the new pages. Once grow has returned, no access below the new
  // size may trap and memory.size must count the page; at kJit the plain
  // and inline atomic accesses are native code with no bounds check,
  // relying on grow to open the pages before it returns, and the rmw and
  // memory.size ask the memory for its live size. The growing starts only
  // once "touch" runs, so it entered at one page.
  auto inst = instantiate_cfg(build_grow_under_load_module(), GetParam());
  const rt::CompiledModule& cm = inst->compiled();
  if (cm.tier == EngineTier::kJit) {
    ASSERT_NE(rt::compiled_body(cm, *inst->exported_func("touch")).jit,
              nullptr);
  }
  constexpr i32 kRounds = 32;
  inst->memory().store<u32>(0, 1);
  std::atomic<int> errors{-1};
  std::thread toucher([&] {
    Value limit = Value::from_i32(1 + kRounds);
    try {
      errors = inst->invoke("touch", {&limit, 1}).as_i32();
    } catch (const Trap& t) {
      ADD_FAILURE() << "touch trapped: " << t.what();
    }
  });
  while (inst->memory().atomic_load<u32>(4) == 0) std::this_thread::yield();
  Value rounds = Value::from_i32(kRounds);
  inst->invoke("grow", {&rounds, 1});
  toucher.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(inst->memory().pages(), u32(1 + kRounds));
  EXPECT_EQ(inst->memory().load<u32>(u64(kRounds) * 65536 + 65532),
            u32(kRounds));
}

TEST_P(AtomicsHammerTest, OobTrapNamesTheLiveSize) {
  // "probe" enters at one page and waits while the host grows the memory
  // to two, then loads just past the new end. The trap must name the size
  // at the time of the access, exactly as the interpreter's check does.
  auto inst = instantiate_cfg(build_grow_under_load_module(), GetParam());
  const rt::CompiledModule& cm = inst->compiled();
  if (cm.tier == EngineTier::kJit) {
    const rt::RFunc& body =
        rt::compiled_body(cm, *inst->exported_func("probe"));
    ASSERT_TRUE(body.jit != nullptr && body.jit->fault_sites > 0);
  }
  TrapKind kind = TrapKind::kHostError;
  std::string what;
  std::thread prober([&] {
    Value addr = Value::from_i32(2 * 65536);
    try {
      inst->invoke("probe", {&addr, 1});
    } catch (const Trap& t) {
      kind = t.kind();
      what = t.what();
    }
  });
  while (inst->memory().atomic_load<u32>(12) == 0) std::this_thread::yield();
  EXPECT_EQ(inst->memory().grow(1), 1);
  inst->memory().atomic_store<u32>(8, 1);
  prober.join();

  rt::LinearMemory two_pages(2, 2);
  std::string want;
  try {
    two_pages.check(2 * 65536, 4);
  } catch (const Trap& t) {
    want = t.what();
  }
  EXPECT_EQ(kind, TrapKind::kMemoryOutOfBounds);
  EXPECT_EQ(what, want);
  EXPECT_NE(want.find("exceeds memory size 131072"), std::string::npos);
}

/// Two copies of one loop that keeps four values (i, x, y, z) live across a
/// load of address 0: "plain" loads with i32.load, "atomic" with
/// i32.atomic.load.
std::vector<u8> build_live_across_load_module() {
  ModuleBuilder b;
  b.add_memory(1, 1, /*has_max=*/true, /*shared=*/true);
  for (Op load : {Op::kI32Load, Op::kI32AtomicLoad}) {
    auto& f = b.begin_func({{I32}, {I32}},
                           load == Op::kI32Load ? "plain" : "atomic");
    const u32 i = f.add_local(I32), x = f.add_local(I32);
    const u32 y = f.add_local(I32), z = f.add_local(I32);
    f.for_loop_i32(i, 0, 0, 1, [&] {
      f.local_get(x);
      f.local_get(i);
      f.op(Op::kI32Add);
      f.local_set(x);
      f.local_get(y);
      f.local_get(x);
      f.op(Op::kI32Xor);
      f.local_set(y);
      f.local_get(z);
      f.local_get(y);
      f.op(Op::kI32Add);
      f.local_set(z);
      f.i32_const(0);
      f.mem_op(load);
      f.local_get(x);
      f.op(Op::kI32Add);
      f.local_set(x);
    });
    f.local_get(x);
    f.local_get(y);
    f.op(Op::kI32Add);
    f.local_get(z);
    f.op(Op::kI32Add);
    f.end();
  }
  return b.build();
}

TEST(AtomicsJit, InlineAtomicLoadKeepsLiveValuesInRegisters) {
  // An inline atomic calls no helper, so the register allocator must not
  // store the values live across it before the access and reload them
  // after. The atomic body may exceed the plain one only by its alignment
  // check (test al, imm8; jnz rel32: 8 bytes) and the copy of its address
  // to eax that the check needs (mov eax, esi: 2 bytes; 3 from r8-r11),
  // where the plain load indexes [r13 + reg] with the address register
  // itself: 10 bytes on x86-64. Saving and reloading the four live values
  // as well makes it 64 bytes larger.
  constexpr size_t kInlineAtomicMargin = 11;
  EngineConfig cfg;
  cfg.tier = EngineTier::kJit;
  auto inst = instantiate_cfg(build_live_across_load_module(), cfg);
  // Inline bytes: the out-of-line stubs follow the body, the shared
  // out-of-bounds ones first, so the body ends at the lowest stub offset in
  // the fault-site table (JitBlob::fault_sites).
  auto body_bytes = [&](const char* name) -> size_t {
    const rt::RFunc& body =
        rt::compiled_body(inst->compiled(), *inst->exported_func(name));
    EXPECT_TRUE(body.jit != nullptr) << name;
    if (body.jit == nullptr) return 0;
    const rt::JitBlob& blob = *body.jit;
    EXPECT_GT(blob.fault_sites, 0u) << name;
    size_t end = blob.fault_table();
    for (u32 k = 0; k < blob.fault_sites; ++k) {
      u32 site[2];  // pc, stub
      std::memcpy(site, blob.code.data() + blob.fault_table() + 8 * k, 8);
      end = std::min<size_t>(end, site[1]);
    }
    return end;
  };
  const size_t plain = body_bytes("plain");
  const size_t atomic = body_bytes("atomic");
  EXPECT_LE(atomic, plain + kInlineAtomicMargin)
      << "plain " << plain << " B, atomic " << atomic << " B";

  inst->memory().store<u32>(0, 7);
  Value n = Value::from_i32(1000);
  EXPECT_EQ(inst->invoke("atomic", {&n, 1}).as_i32(),
            inst->invoke("plain", {&n, 1}).as_i32());
}

TEST(AtomicsValidation, AtomicOpNeedsSharedMemory) {
  ModuleBuilder b;
  b.add_memory(1);  // unshared
  auto& f = b.begin_func({{I32}, {I32}}, "run");
  f.local_get(0);
  f.mem_op(Op::kI32AtomicLoad);
  f.end();
  EXPECT_NE(validate_error(b).find("atomic operation requires a shared"),
            std::string::npos);
}

TEST(AtomicsValidation, AtomicAlignmentMustBeNatural) {
  ModuleBuilder b;
  b.add_memory(1, 1, true, true);
  auto& f = b.begin_func({{I32}, {I32}}, "run");
  f.local_get(0);
  f.mem_op(Op::kI32AtomicLoad, 0, /*align_log2=*/0);  // natural is 2
  f.end();
  EXPECT_NE(
      validate_error(b).find("atomic alignment must equal natural alignment"),
      std::string::npos);
}

TEST(AtomicsValidation, SharedMemoryRequiresMax) {
  // The builder refuses to emit this shape, so exercise both layers
  // directly: the decoder on raw bytes (limits flag 0x02 = shared, no
  // max), and the validator on a hand-built module.
  const u8 raw[] = {0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00,
                    0x05, 0x03, 0x01, 0x02, 0x01};
  auto decoded = wasm::decode_module({raw, sizeof raw});
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error.find("shared limits require a max"),
            std::string::npos)
      << decoded.error;

  wasm::Module m;
  wasm::Limits lim;
  lim.min = 1;
  lim.has_max = false;
  lim.shared = true;
  m.memories.push_back(lim);
  auto vr = wasm::validate_module(m);
  ASSERT_FALSE(vr.ok);
  EXPECT_NE(vr.error.find("shared memory requires a max"), std::string::npos)
      << vr.error;
}

}  // namespace
}  // namespace mpiwasm::test
