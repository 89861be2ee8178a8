#include "support/parallel.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace mpiwasm {

u32 affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return u32(std::max(1, CPU_COUNT(&set)));
}

void parallel_for(u32 n, u64 chunk_cost, const std::function<u64(u32)>& cost,
                  const std::function<void(u32)>& fn) {
  // Exclusive end index of each chunk. A tail lighter than `chunk_cost`
  // joins the last chunk, so every chunk carries at least a full share.
  std::vector<u32> ends;
  u64 acc = 0;
  for (u32 i = 0; i < n; ++i) {
    acc += cost(i);
    if (acc >= chunk_cost) {
      ends.push_back(i + 1);
      acc = 0;
    }
  }
  if (ends.size() < 2) {
    for (u32 i = 0; i < n; ++i) fn(i);
    return;
  }
  ends.back() = n;
  const u32 chunks = u32(ends.size());

  std::atomic<u32> next{0};
  std::mutex failure_mu;
  u32 failed_index = n;  // guarded by failure_mu
  std::exception_ptr failure;
  auto work = [&] {
    for (u32 c; (c = next.fetch_add(1, std::memory_order_relaxed)) < chunks;) {
      for (u32 i = c == 0 ? 0 : ends[c - 1]; i < ends[c]; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(failure_mu);
          if (i < failed_index) {
            failed_index = i;
            failure = std::current_exception();
          }
          break;  // the rest of this chunk has higher indices
        }
      }
    }
  };

  const u32 helpers = std::min(chunks, affinity_cpus()) - 1;
  std::vector<std::thread> threads;
  threads.reserve(helpers);
  try {
    for (u32 t = 0; t < helpers; ++t) threads.emplace_back(work);
  } catch (const std::system_error&) {
    // Out of threads: the ones already started and the caller finish all
    // chunks between them.
  }
  work();
  for (std::thread& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace mpiwasm
