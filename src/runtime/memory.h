// Linear memory: a module's 32-bit sandboxed address space.
//
// MPIWasm reserves a contiguous range of the embedder's 64-bit address
// space for the module, records the base address at instantiation, and
// translates 32-bit module pointers by adding the base (paper §3.5,
// Figure 2). Like the paper (§2.2), we reserve the range virtually and let
// the kernel map physical pages lazily; `base()` is therefore stable across
// memory.grow.
//
// The reservation covers every address native code can form: a u32 base
// plus a u32 offset is below 2^33, plus at most 16 bytes of access width.
// Only the current size is readable and writable; the rest is PROT_NONE,
// and grow() opens pages with mprotect. So a native load or store needs no
// check: an out-of-bounds one faults in the guard region and the JIT's
// fault handler turns the fault into the trap (jit_support.h). The
// executor tiers, the embedder's spans, bulk memory and atomics still check
// against the logical size (pages_), so growth semantics are exact.
//
// Where the guarded reservation cannot be had (an address-space limit),
// the memory reserves only max_pages, read-write, and guarded() is false:
// its instance then runs every body in the checking executor.
//
// Either reservation starts on a 2 MiB boundary, spans whole 2 MiB units,
// and is advised MADV_HUGEPAGE once at construction. The kernel then backs
// every aligned 2 MiB range that is wholly read-write with one transparent
// huge page on first touch, so a large memory takes a fault per 2 MiB
// instead of per 4 KiB and unmaps as fast. RSS rounds up by at most 2 MiB
// per partly touched huge page. On a host with THP `never` the advice does
// nothing: 4 KiB pages, identical results.
#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "runtime/value.h"
#include "wasm/types.h"

namespace mpiwasm::rt {

class LinearMemory {
 public:
  LinearMemory();
  LinearMemory(u32 min_pages, u32 max_pages, bool shared = false);
  ~LinearMemory();
  LinearMemory(const LinearMemory&) = delete;
  LinearMemory& operator=(const LinearMemory&) = delete;
  LinearMemory(LinearMemory&& o) noexcept;
  LinearMemory& operator=(LinearMemory&& o) noexcept;

  /// Host address of module offset 0 (the "base address" of paper Fig. 2).
  u8* base() { return base_; }
  const u8* base() const { return base_; }

  u64 byte_size() const {
    return u64(pages_.load(std::memory_order_acquire)) * wasm::kPageSize;
  }
  u32 pages() const { return pages_.load(std::memory_order_acquire); }
  u32 max_pages() const { return max_pages_; }
  /// Threads-proposal shared memory: growable concurrently, never moves.
  bool is_shared() const { return shared_; }

  /// Whether the reservation has its guard region (see the file comment).
  bool guarded() const { return guarded_; }

  /// memory.grow semantics: returns previous page count, or -1 on failure.
  /// Thread-safe: the reservation covers max_pages up front, so growth only
  /// opens pages and publishes a larger logical size — the base address
  /// never relocates. The new pages are accessible before the size is
  /// published.
  i32 grow(u32 delta_pages);

  /// Bounds check used by every guest memory access and by the embedder's
  /// address translation; traps on out-of-bounds (never UB).
  void check(u64 addr, u64 len) const {
    if (addr + len > byte_size()) {
      throw Trap(TrapKind::kMemoryOutOfBounds,
                 "access at " + std::to_string(addr) + "+" +
                     std::to_string(len) + " exceeds memory size " +
                     std::to_string(byte_size()));
    }
  }

  /// Checked span over guest memory [ptr, ptr+len).
  std::span<u8> span(u32 ptr, u64 len) {
    check(ptr, len);
    return {base_ + ptr, size_t(len)};
  }
  std::span<const u8> span(u32 ptr, u64 len) const {
    check(ptr, len);
    return {base_ + ptr, size_t(len)};
  }

  template <typename T>
  T load(u64 addr) const {
    check(addr, sizeof(T));
    T v;
    std::memcpy(&v, base_ + addr, sizeof(T));
    return v;
  }
  template <typename T>
  void store(u64 addr, T v) {
    check(addr, sizeof(T));
    std::memcpy(base_ + addr, &v, sizeof(T));
  }

  // --- 0xFE atomics (threads proposal) ------------------------------------
  // All accesses are seq-cst and trap (kUnalignedAtomic) when the effective
  // address is not a multiple of the access width. base_ is page-aligned,
  // so a naturally-aligned guest address is naturally aligned in the host.

  void check_atomic(u64 addr, u64 len) const {
    check(addr, len);
    if ((addr & (len - 1)) != 0)
      throw Trap(TrapKind::kUnalignedAtomic,
                 "atomic access at " + std::to_string(addr) +
                     " not aligned to " + std::to_string(len) + " bytes");
  }

  template <typename T>
  T atomic_load(u64 addr) const {
    check_atomic(addr, sizeof(T));
    return std::atomic_ref<T>(*reinterpret_cast<T*>(base_ + addr))
        .load(std::memory_order_seq_cst);
  }
  template <typename T>
  void atomic_store(u64 addr, T v) {
    check_atomic(addr, sizeof(T));
    std::atomic_ref<T>(*reinterpret_cast<T*>(base_ + addr))
        .store(v, std::memory_order_seq_cst);
  }
  template <typename T>
  T atomic_rmw_add(u64 addr, T v) {
    check_atomic(addr, sizeof(T));
    return std::atomic_ref<T>(*reinterpret_cast<T*>(base_ + addr))
        .fetch_add(v, std::memory_order_seq_cst);
  }
  template <typename T>
  T atomic_rmw_sub(u64 addr, T v) {
    check_atomic(addr, sizeof(T));
    return std::atomic_ref<T>(*reinterpret_cast<T*>(base_ + addr))
        .fetch_sub(v, std::memory_order_seq_cst);
  }
  template <typename T>
  T atomic_rmw_and(u64 addr, T v) {
    check_atomic(addr, sizeof(T));
    return std::atomic_ref<T>(*reinterpret_cast<T*>(base_ + addr))
        .fetch_and(v, std::memory_order_seq_cst);
  }
  template <typename T>
  T atomic_rmw_or(u64 addr, T v) {
    check_atomic(addr, sizeof(T));
    return std::atomic_ref<T>(*reinterpret_cast<T*>(base_ + addr))
        .fetch_or(v, std::memory_order_seq_cst);
  }
  template <typename T>
  T atomic_rmw_xor(u64 addr, T v) {
    check_atomic(addr, sizeof(T));
    return std::atomic_ref<T>(*reinterpret_cast<T*>(base_ + addr))
        .fetch_xor(v, std::memory_order_seq_cst);
  }
  template <typename T>
  T atomic_rmw_xchg(u64 addr, T v) {
    check_atomic(addr, sizeof(T));
    return std::atomic_ref<T>(*reinterpret_cast<T*>(base_ + addr))
        .exchange(v, std::memory_order_seq_cst);
  }
  template <typename T>
  T atomic_rmw_cmpxchg(u64 addr, T expected, T replacement) {
    check_atomic(addr, sizeof(T));
    std::atomic_ref<T>(*reinterpret_cast<T*>(base_ + addr))
        .compare_exchange_strong(expected, replacement,
                                 std::memory_order_seq_cst);
    return expected;  // holds the old value on success and failure alike
  }

  // Futex-style wait/notify over a per-address parking table. wait returns
  // 0 (woken by notify), 1 (value != expected), or 2 (timed out);
  // timeout_ns < 0 waits forever. notify returns the number of waiters
  // granted a wake token.
  u32 atomic_notify(u64 addr, u32 count);
  u32 atomic_wait32(u64 addr, u32 expected, i64 timeout_ns);
  u32 atomic_wait64(u64 addr, u64 expected, i64 timeout_ns);

 private:
  struct MemSync;  // grow mutex + parking table (memory.cc)

  void release();

  u8* base_ = nullptr;
  u64 reserved_bytes_ = 0;
  std::atomic<u32> pages_{0};
  u32 max_pages_ = 0;
  bool shared_ = false;
  bool guarded_ = false;
  std::unique_ptr<MemSync> sync_;
};

}  // namespace mpiwasm::rt
