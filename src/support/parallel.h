// A fork-join loop over independent work items (a module's function bodies).
//
// Items are grouped into chunks of consecutive indices whose costs add up to
// at least `chunk_cost`; the calling thread and a few helper threads take
// chunks off one atomic counter until none are left. Helpers are started
// per call and joined before it returns: there is no pool and no global
// state. Work too small to fill two chunks runs on the calling thread
// alone, so small modules never start a thread.
#pragma once

#include <functional>

#include "support/common.h"

namespace mpiwasm {

/// CPUs this process may run on (cgroup/taskset pinning shows up here,
/// unlike in std::thread::hardware_concurrency); at least 1.
u32 affinity_cpus();

/// Calls `fn(i)` exactly once for every i in [0, n), on the calling thread
/// plus min(chunks, CPUs in the affinity mask) - 1 helper threads.
/// `cost(i)` weighs item i (same unit as `chunk_cost`). Returns after every
/// call has finished; everything the calls wrote is then visible to the
/// caller. If calls throw, the exception of the lowest failing index is
/// rethrown — the same one a serial loop would have raised first.
void parallel_for(u32 n, u64 chunk_cost, const std::function<u64(u32)>& cost,
                  const std::function<void(u32)>& fn);

}  // namespace mpiwasm
