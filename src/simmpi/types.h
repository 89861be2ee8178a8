// simmpi core types: datatypes, reduction ops, status, error handling, and
// the interconnect cost model.
//
// simmpi is the repository's "host MPI library" substitute
// (docs/ARCHITECTURE.md, "src/simmpi"): an in-process, rank-per-thread
// MPI-2.2 subset with eager/rendezvous point-to-point protocols, tag/source matching, collectives, communicator
// management, and a configurable interconnect cost model standing in for
// OmniPath / Graviton interconnects. Both the native benchmark twins and
// the MPIWasm embedder call into this same library, which is exactly the
// comparison the paper makes (native MPI app vs Wasm app over one MPI).
#pragma once

#include <chrono>
#include <stdexcept>
#include <string>

#include "support/common.h"

namespace mpiwasm::simmpi {

/// MPI basic datatypes (the set exercised by the paper's Figure 6 plus the
/// ones the benchmark kernels need).
enum class Datatype : i32 {
  kByte = 0,
  kChar = 1,
  kInt = 2,
  kFloat = 3,
  kDouble = 4,
  kLong = 5,
  kUnsigned = 6,
  kLongLong = 7,
};
constexpr i32 kNumDatatypes = 8;

size_t datatype_size(Datatype t);
const char* datatype_name(Datatype t);

enum class ReduceOp : i32 {
  kSum = 0,
  kProd = 1,
  kMax = 2,
  kMin = 3,
  kLand = 4,
  kLor = 5,
  kBand = 6,
  kBor = 7,
};
constexpr i32 kNumReduceOps = 8;

constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;
/// Reserved tag for alltoallv's p2p traffic (the other collectives use the
/// schedule tags below); user tags must be >= 0.
constexpr int kCollectiveTag = -42;

/// Reserved tag space for collective schedules (coll_sched.h): each
/// schedule owns a stride of kIcollRounds tags derived from its
/// per-communicator sequence number, so concurrently outstanding schedules
/// on one communicator never match each other's traffic. Blocking and
/// nonblocking calls share the sequence, so tags wrap after
/// kIcollSeqWindow collective calls on a communicator while a nonblocking
/// one is still outstanding — far beyond anything a real program does.
constexpr int kIcollTagBase = -1024;
/// Tag rounds per schedule. Ring and pairwise steps share one round, so no
/// builder needs more than 2 * log2(n) + 2 (Rabenseifner): 64 covers every
/// int-sized communicator.
constexpr int kIcollRounds = 64;
constexpr int kIcollSeqWindow = 1 << 20;
static_assert(i64(kIcollTagBase) - i64(kIcollSeqWindow) * kIcollRounds >
                  i64(INT32_MIN),
              "schedule tags must fit an int");

/// Deadlock watchdog: a blocking MPI wait stuck this long aborts the run
/// with a diagnostic instead of hanging CI forever. WaitPolicy (world.h)
/// runs it for every blocking wait.
constexpr std::chrono::seconds kDeadlockTimeout{120};

struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  size_t bytes = 0;  // received payload size
  int count(Datatype t) const { return int(bytes / datatype_size(t)); }
};

/// MPI usage / internal errors (invalid handles, truncation, deadlock).
class MpiError : public std::runtime_error {
 public:
  explicit MpiError(const std::string& what) : std::runtime_error(what) {}
};

/// Raised on MPI_Abort; unwinds the calling rank thread.
class MpiAbort : public std::exception {
 public:
  explicit MpiAbort(int code) : code_(code) {}
  int code() const { return code_; }
  const char* what() const noexcept override { return "MPI_Abort"; }

 private:
  int code_ = 1;
};

/// MPI_IN_PLACE sentinel: passed as sendbuf (or scatter's recvbuf) to
/// request in-place collective semantics. A pointer constant, like the
/// real MPI's ((void*)1)-style definition.
inline const void* const kInPlace = reinterpret_cast<const void*>(~uintptr_t(0));
inline bool is_in_place(const void* p) { return p == kInPlace; }

/// Collective algorithm identifiers. Each collective supports a subset
/// (see coll_algos.h); kAuto defers to the size x comm-size selection
/// table. kLinear is always the reference algorithm the differential
/// tests compare against.
enum class CollAlgo : i32 {
  kAuto = 0,
  kLinear,             // naive rooted fan-in/fan-out over p2p
  kBinomial,           // binomial tree
  kDissemination,      // dissemination barrier
  kRing,               // ring exchange
  kRecursiveDoubling,  // hypercube exchange
  kRabenseifner,       // reduce-scatter + allgather allreduce
  kPairwise,           // rotated pairwise exchange
  kShm,                // direct reads of peers' buffers via CollectiveContext
};

/// Per-world collective tuning: a forced algorithm per collective (kAuto
/// = size-adaptive selection) plus the shared-memory path's switch. Populated
/// from MPIWASM_COLL_* environment variables by from_env() so ablations
/// need no recompilation.
struct CollTuning {
  CollAlgo barrier = CollAlgo::kAuto;
  CollAlgo bcast = CollAlgo::kAuto;
  CollAlgo reduce = CollAlgo::kAuto;
  CollAlgo allreduce = CollAlgo::kAuto;
  CollAlgo gather = CollAlgo::kAuto;
  CollAlgo scatter = CollAlgo::kAuto;
  CollAlgo allgather = CollAlgo::kAuto;
  CollAlgo alltoall = CollAlgo::kAuto;
  CollAlgo reduce_scatter = CollAlgo::kAuto;
  CollAlgo scan = CollAlgo::kAuto;
  CollAlgo exscan = CollAlgo::kAuto;
  /// Master switch for the shared-memory path (kShm). When off,
  /// communicators get no CollectiveContext and every collective runs over
  /// p2p.
  bool enable_shm = true;

  /// Applies MPIWASM_COLL_<NAME>=<algo> and MPIWASM_COLL_SHM=0|1 on top of
  /// `base` (defaults when omitted).
  static CollTuning from_env(CollTuning base);
  static CollTuning from_env() { return from_env(CollTuning{}); }
};

/// Interconnect cost model: deterministic spin-based per-message costs so
/// benchmark *shapes* are stable on shared CI hardware (docs/BENCHMARKS.md,
/// "Machine assumptions").
struct NetworkProfile {
  std::string name = "zero";
  u64 latency_ns = 0;          // per-message injection latency
  f64 bytes_per_ns = 0;        // bandwidth; 0 = infinite
  u64 serialize_ns_per_kib = 0;  // messaging-layer serialization overhead
  bool force_copy = false;       // models gRPC-style buffer handoff
  size_t eager_limit = 64 * 1024;
  /// Rendezvous pipeline segment size: large transfers are exposed to the
  /// receiver in chunks of this many bytes, each charged its own wire cost,
  /// so a receiver's progress engine drains the wire as data "arrives"
  /// instead of paying one big copy at the end. 0 = unsegmented (single
  /// all-at-once handoff). Overridable via MPIWASM_RNDV_CHUNK.
  size_t rendezvous_chunk = 64 * 1024;

  u64 message_cost_ns(size_t bytes) const {
    u64 cost = latency_ns;
    if (bytes_per_ns > 0) cost += u64(f64(bytes) / bytes_per_ns);
    if (serialize_ns_per_kib > 0)
      cost += serialize_ns_per_kib * (u64(bytes) / 1024 + 1);
    return cost;
  }

  /// No artificial costs; used by unit tests.
  static NetworkProfile zero();
  /// SuperMUC-NG-like: Intel OmniPath, 100 Gbit/s, ~1us MPI latency (§4.1).
  static NetworkProfile omnipath();
  /// AWS Graviton2 single node: shared-memory transport (§4.1).
  static NetworkProfile graviton2();
  /// Faasm-like distributed messaging: gRPC hops + serialization (§6).
  static NetworkProfile grpc_messaging();
};

}  // namespace mpiwasm::simmpi
