#include "runtime/memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <unordered_map>

namespace mpiwasm::rt {

namespace {
// Virtual reservation ceiling for modules that declare no maximum. Virtual
// space is free with MAP_NORESERVE; physical pages are committed only when
// touched, so this does not inflate RSS with many rank instances beyond
// the huge-page rounding: a partly touched 2 MiB page is committed whole.
constexpr u32 kDefaultMaxPages = 16384;  // 1 GiB virtual per module
// A guarded reservation: every effective address native code forms (below
// 2^33, plus at most 16 bytes of access width) lands inside it.
constexpr u64 kGuardedReserveBytes = (u64(1) << 33) + wasm::kPageSize;
// Transparent huge page size on x86-64: reservations start on and span
// whole multiples of it.
constexpr u64 kHugePageBytes = u64(2) << 20;

u64 round_up_huge(u64 bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

/// Maps `len` bytes (a multiple of kHugePageBytes) at a 2 MiB-aligned
/// address and advises huge pages over all of it. The kernel aligns large
/// anonymous mappings only by heuristic, so this over-maps by one huge page
/// and unmaps the unaligned head and tail. A failed madvise (THP off, an old
/// kernel) leaves 4 KiB pages and changes nothing else.
void* map_huge_aligned(u64 len, int prot) {
  void* p = ::mmap(nullptr, len + kHugePageBytes, prot,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) return p;
  auto* raw = static_cast<u8*>(p);
  const u64 head = round_up_huge(reinterpret_cast<uintptr_t>(raw)) -
                   reinterpret_cast<uintptr_t>(raw);
  u8* base = raw + head;
  if (head != 0) ::munmap(raw, head);
  ::munmap(base + len, kHugePageBytes - head);
  (void)::madvise(base, len, MADV_HUGEPAGE);
  return base;
}
}  // namespace

/// Growth lock plus the futex-style parking table for wait/notify. The map
/// is node-based, so a ParkCell (and its condition_variable) never moves
/// while waiters sleep on it.
///
/// Wakes are delivered to specific waiters (FIFO), not to a shared token
/// pool: a pooled token can be stolen by a thread that re-parks on the same
/// address after being woken (worker loops do exactly this), leaving the
/// waiters the notify was meant for asleep forever. Each park_wait call
/// queues its own stack node; notify flips the flag on the first `count`
/// queued nodes, so a late (re-)parker can never consume another waiter's
/// wake.
struct LinearMemory::MemSync {
  std::mutex grow_mu;
  std::mutex park_mu;
  struct ParkWaiter {
    bool woken = false;
  };
  struct ParkCell {
    std::condition_variable cv;
    std::deque<ParkWaiter*> queue;  // parked, not yet woken (FIFO)
    u32 active = 0;                 // waiters inside park_wait on this cell
  };
  std::unordered_map<u64, ParkCell> park;
};

LinearMemory::LinearMemory() : sync_(std::make_unique<MemSync>()) {}

LinearMemory::LinearMemory(u32 min_pages, u32 max_pages, bool shared)
    : shared_(shared), sync_(std::make_unique<MemSync>()) {
  pages_.store(min_pages, std::memory_order_relaxed);
  max_pages_ = max_pages == 0 ? std::max(min_pages, kDefaultMaxPages)
                              : std::min(max_pages, wasm::kMaxPages);
  max_pages_ = std::max(max_pages_, min_pages);
  const u64 guarded_bytes = round_up_huge(kGuardedReserveBytes);
  void* p = map_huge_aligned(guarded_bytes, PROT_NONE);
  if (p != MAP_FAILED &&
      ::mprotect(p, u64(min_pages) * wasm::kPageSize,
                 PROT_READ | PROT_WRITE) == 0) {
    reserved_bytes_ = guarded_bytes;
    guarded_ = true;
  } else {
    // No room for the guard region: reserve the maximum size only.
    if (p != MAP_FAILED) ::munmap(p, guarded_bytes);
    reserved_bytes_ = round_up_huge(u64(max_pages_) * wasm::kPageSize);
    p = map_huge_aligned(reserved_bytes_, PROT_READ | PROT_WRITE);
    if (p == MAP_FAILED) fatal("mmap failed reserving linear memory");
  }
  base_ = static_cast<u8*>(p);
}

LinearMemory::~LinearMemory() { release(); }

void LinearMemory::release() {
  if (base_ != nullptr) {
    ::munmap(base_, reserved_bytes_);
    base_ = nullptr;
  }
}

LinearMemory::LinearMemory(LinearMemory&& o) noexcept
    : base_(o.base_),
      reserved_bytes_(o.reserved_bytes_),
      max_pages_(o.max_pages_),
      shared_(o.shared_),
      guarded_(o.guarded_),
      sync_(std::move(o.sync_)) {
  pages_.store(o.pages_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  o.base_ = nullptr;
  o.reserved_bytes_ = 0;
  o.pages_.store(0, std::memory_order_relaxed);
}

LinearMemory& LinearMemory::operator=(LinearMemory&& o) noexcept {
  if (this != &o) {
    release();
    base_ = o.base_;
    reserved_bytes_ = o.reserved_bytes_;
    max_pages_ = o.max_pages_;
    shared_ = o.shared_;
    guarded_ = o.guarded_;
    sync_ = std::move(o.sync_);
    pages_.store(o.pages_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    o.base_ = nullptr;
    o.reserved_bytes_ = 0;
    o.pages_.store(0, std::memory_order_relaxed);
  }
  return *this;
}

i32 LinearMemory::grow(u32 delta_pages) {
  std::lock_guard<std::mutex> lock(sync_->grow_mu);
  u32 prev = pages_.load(std::memory_order_relaxed);
  u64 target = u64(prev) + delta_pages;
  if (target > max_pages_) return -1;
  if (guarded_ && ::mprotect(base_ + u64(prev) * wasm::kPageSize,
                             u64(delta_pages) * wasm::kPageSize,
                             PROT_READ | PROT_WRITE) != 0)
    return -1;
  pages_.store(u32(target), std::memory_order_release);
  return i32(prev);
}

namespace {

/// Shared wait implementation: the expected-value check happens under
/// park_mu, which notify also holds while minting wake tokens, so a
/// peer's store+notify between our check and the sleep cannot be lost.
template <typename T, typename Park>
u32 park_wait(Park& s, u8* base, u64 addr, T expected, i64 timeout_ns) {
  std::unique_lock<std::mutex> lock(s.park_mu);
  T current = std::atomic_ref<T>(*reinterpret_cast<T*>(base + addr))
                  .load(std::memory_order_seq_cst);
  if (current != expected) return 1;
  auto& cell = s.park[addr];
  ++cell.active;
  typename Park::ParkWaiter self;
  cell.queue.push_back(&self);
  auto woken = [&] { return self.woken; };
  if (timeout_ns < 0) {
    cell.cv.wait(lock, woken);
  } else {
    cell.cv.wait_for(lock, std::chrono::nanoseconds(timeout_ns), woken);
    if (!self.woken) {
      // Timed out: unlink so notify never hands a wake to a dead node.
      auto it = std::find(cell.queue.begin(), cell.queue.end(), &self);
      if (it != cell.queue.end()) cell.queue.erase(it);
    }
  }
  bool got_wake = self.woken;
  // The cell (and its cv) must outlive every waiter still draining, so it
  // is erased only when the last one leaves.
  if (--cell.active == 0) s.park.erase(addr);
  return got_wake ? 0 : 2;
}

}  // namespace

u32 LinearMemory::atomic_notify(u64 addr, u32 count) {
  check_atomic(addr, 4);
  std::lock_guard<std::mutex> lock(sync_->park_mu);
  auto it = sync_->park.find(addr);
  if (it == sync_->park.end()) return 0;
  auto& cell = it->second;
  u32 woken = 0;
  while (woken < count && !cell.queue.empty()) {
    cell.queue.front()->woken = true;
    cell.queue.pop_front();
    ++woken;
  }
  if (woken > 0) cell.cv.notify_all();
  return woken;
}

u32 LinearMemory::atomic_wait32(u64 addr, u32 expected, i64 timeout_ns) {
  check_atomic(addr, 4);
  return park_wait<u32>(*sync_, base_, addr, expected, timeout_ns);
}

u32 LinearMemory::atomic_wait64(u64 addr, u64 expected, i64 timeout_ns) {
  check_atomic(addr, 8);
  return park_wait<u64>(*sync_, base_, addr, expected, timeout_ns);
}

}  // namespace mpiwasm::rt
