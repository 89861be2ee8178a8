// Timing utilities: monotonic stopwatch and a calibrated spin-wait used by
// the simmpi interconnect cost model (docs/ARCHITECTURE.md, "src/simmpi").
// We spin instead of sleeping because sleep granularity on a shared box is
// far coarser than the sub-microsecond latencies being modeled.
#pragma once

#include <chrono>

#include "support/common.h"

namespace mpiwasm {

/// Monotonic nanosecond timestamp.
u64 now_ns();

/// Monotonic second-resolution double, used to back MPI_Wtime.
f64 now_seconds();

class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  void reset() { start_ = now_ns(); }
  u64 elapsed_ns() const { return now_ns() - start_; }
  f64 elapsed_us() const { return f64(elapsed_ns()) / 1e3; }
  f64 elapsed_ms() const { return f64(elapsed_ns()) / 1e6; }
  f64 elapsed_s() const { return f64(elapsed_ns()) / 1e9; }

 private:
  u64 start_;
};

/// Busy-waits for approximately `ns` nanoseconds. Yields periodically for
/// long waits so rank threads make progress on few-core hosts.
void spin_for_ns(u64 ns);

}  // namespace mpiwasm
