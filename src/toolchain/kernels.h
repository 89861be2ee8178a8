// The kernel toolchain: every benchmark from the paper's evaluation (§4.2)
// authored as a Wasm module against the ModuleBuilder — our WASI-SDK
// substitute (docs/ARCHITECTURE.md, "src/toolchain + bench"). Each builder
// returns validated .wasm bytes that import env.MPI_* (and WASI where
// needed) and report results through the bench.report host import.
#pragma once

#include <string>
#include <vector>

#include "support/common.h"

namespace mpiwasm::toolchain {

// ---------------------------------------------------------------------------
// Intel MPI Benchmarks (IMB) — Figures 3 and 4.
// ---------------------------------------------------------------------------

enum class ImbRoutine : i32 {
  kPingPong = 0,
  kSendRecv = 1,
  kBcast = 2,
  kAllReduce = 3,
  kAllGather = 4,
  kAlltoall = 5,
  kReduce = 6,
  kGather = 7,
  kScatter = 8,
  /// Barrier latency panel: message size is meaningless; sweeps run a
  /// single pseudo-size row (bytes = 1).
  kBarrier = 9,
};

const char* imb_routine_name(ImbRoutine r);

struct ImbParams {
  ImbRoutine routine = ImbRoutine::kPingPong;
  u32 min_bytes = 1;
  u32 max_bytes = 1 << 22;   // 4 MiB, like the paper's sweeps
  u32 base_iters = 1 << 20;  // per-size iterations ~= base_iters / bytes
  u32 max_iters = 400;
  u32 min_iters = 4;
  /// Report id passed back through bench.report as the first argument.
  i32 report_id = 0;
};

/// Per-size iteration count used by both the Wasm and native twins.
u32 imb_iters_for(const ImbParams& p, u32 bytes);

std::vector<u8> build_imb_module(const ImbParams& p);

// ---------------------------------------------------------------------------
// HPCG — Table 1, Figure 4f, Figure 5c.
// ---------------------------------------------------------------------------

struct HpcgParams {
  u32 n_per_rank = 1 << 15;  // local 1-D subdomain size (even when use_simd)
  u32 iterations = 25;       // fixed CG iterations (deterministic timing)
  /// -msimd128 analogue: f64x2 inner loops (dot products + vector updates).
  /// The native twin mirrors the SIMD dot's two-lane accumulation order, so
  /// wasm/native residuals stay bit-exact in both modes.
  bool use_simd = false;
  i32 report_id = 100;
};

/// Distributed conjugate gradient on the 1-D Laplacian [-1, 2, -1] with
/// halo exchange between neighbouring ranks and Allreduce dot products.
/// Reports (gflops, gbps, residual) through bench.report.
std::vector<u8> build_hpcg_module(const HpcgParams& p);

// ---------------------------------------------------------------------------
// NPB IS (integer sort) — Figure 5a.
// ---------------------------------------------------------------------------

struct IsParams {
  u32 keys_per_rank = 1 << 15;
  u32 key_log2_max = 19;  // keys in [0, 2^19)
  u32 repetitions = 10;
  i32 report_id = 200;
};

/// Bucketed parallel integer sort: local histogram, Alltoall of counts,
/// Alltoallv of keys, local counting sort, distributed verification.
/// Reports (mops_total, checksum_ok, reps).
std::vector<u8> build_is_module(const IsParams& p);

// ---------------------------------------------------------------------------
// NPB DT (data traffic) — Figure 5a.
// ---------------------------------------------------------------------------

enum class DtTopology : i32 { kBlackHole = 0, kWhiteHole = 1, kShuffle = 2 };
const char* dt_topology_name(DtTopology t);

struct DtParams {
  DtTopology topology = DtTopology::kBlackHole;
  u32 doubles_per_msg = 1 << 15;  // payload per edge
  u32 repetitions = 20;
  bool use_simd = false;          // -msimd128 analogue (§4.3/§4.5)
  i32 report_id = 300;
};

/// Sends f64 payloads through the topology; every receiver runs the
/// element-wise combine kernel (vectorizable; the SIMD build uses f64x2).
/// Reports (mbytes_per_s, checksum, reps).
std::vector<u8> build_dt_module(const DtParams& p);

// ---------------------------------------------------------------------------
// IOR — Figure 5b.
// ---------------------------------------------------------------------------

struct IorParams {
  u32 block_bytes = 1 << 20;
  u32 blocks = 8;
  u32 repetitions = 3;
  i32 report_id = 400;
};

/// POSIX-backend IOR equivalent through WASI: each rank writes/reads its
/// own file under the first preopen. Reports write and read MiB/s.
std::vector<u8> build_ior_module(const IorParams& p);

// ---------------------------------------------------------------------------
// Datatype-translation probe — Figure 6.
// ---------------------------------------------------------------------------

struct DatatypePingPongParams {
  u32 max_bytes = 1 << 22;
  u32 iters_per_size = 16;
  i32 report_id = 500;
};

/// PingPong iterating over MPI_BYTE/CHAR/INT/FLOAT/DOUBLE/LONG so the
/// embedder's instrumented Send path sees every datatype at every size
/// (paper §4.6).
std::vector<u8> build_datatype_pingpong_module(const DatatypePingPongParams& p);

// ---------------------------------------------------------------------------
// Compute/communication overlap probe — bench_icoll.
// ---------------------------------------------------------------------------

struct OverlapParams {
  u32 n_per_rank = 1 << 14;  // local 1-D heat-diffusion cells
  u32 iterations = 40;
  /// false = blocking Allreduce before the sweep (the baseline the overlap
  /// efficiency is measured against).
  bool nonblocking = true;
  i32 report_id = 600;
};

/// Heat-diffusion (1-D Jacobi) with neighbour halo exchange and a global
/// residual reduction per iteration. The nonblocking variant initiates
/// MPI_Iallreduce on the previous sweep's residual, runs the stencil sweep,
/// then completes the request with MPI_Wait — folding the whole sweep into
/// the collective's wait window. Reports (seconds, residual, iterations)
/// through bench.report.
std::vector<u8> build_overlap_module(const OverlapParams& p);

// ---------------------------------------------------------------------------
// Vectorizable micro kernels — bench_simd / §4.5's -msimd128 effect.
// ---------------------------------------------------------------------------

/// The kernel set whose inner loops vectorize trivially (ROADMAP item
/// "Wasm SIMD (v128)"): each builds as a scalar module and a v128 twin so
/// bench_simd and the differential tests can compare them directly.
enum class MicroKernel : i32 {
  kReduceF64 = 0,   // sum x[i]              (f64; SIMD reassociates)
  kReduceI32 = 1,   // wrapping sum x[i]     (i32; exact in any order)
  kDaxpy = 2,       // y[i] = a*x[i] + y[i]  (f64; element-wise, bit-exact)
  kStencil3 = 3,    // 3-point stencil       (f64; element-wise, bit-exact)
  kDotF64 = 4,      // sum x[i]*y[i]         (f64; SIMD reassociates)
  kSaxpyF32 = 5,    // y[i] = a*x[i] + y[i]  (f32; element-wise, bit-exact)
};

const char* micro_kernel_name(MicroKernel k);

/// True for kernels whose SIMD build reassociates a floating-point
/// reduction: their scalar/SIMD checksums agree only to a ULP bound, not
/// bit-exactly (element-wise kernels and integer reductions are exact).
bool micro_kernel_reassociates(MicroKernel k);

struct MicroKernelParams {
  MicroKernel kernel = MicroKernel::kDaxpy;
  u32 n = 1 << 14;        // elements; must be a multiple of 4 and >= 8
  bool use_simd = false;  // emit the v128 inner loop instead of the scalar one
};

/// Builds a pure-engine module (no MPI/WASI imports) exporting
///   init()            — fills the input arrays deterministically
///   run(reps) -> f64  — executes the kernel `reps` times and returns the
///                       checksum (a scalar pass shared verbatim by both
///                       builds, so element-wise kernels compare bit-exactly)
std::vector<u8> build_micro_kernel_module(const MicroKernelParams& p);

/// Host-side twin of the *scalar* build's checksum (same operation order).
f64 micro_kernel_reference(const MicroKernelParams& p, u32 reps);

// ---------------------------------------------------------------------------
// Threaded kernels — wasi-threads + 0xFE atomics (bench_threads).
// ---------------------------------------------------------------------------

struct ThreadedKernelParams {
  /// Only the element-wise f64 kernels (kDaxpy, kStencil3) have threaded
  /// twins: their results are bit-exact for any partition of the index
  /// space, so the threaded build's checksum equals micro_kernel_reference.
  MicroKernel kernel = MicroKernel::kDaxpy;
  u32 n = 1 << 14;   // elements; multiple of 16 and >= 64
  u32 nthreads = 4;  // worker threads spawned by init(); 1..64
};

/// Shared-memory module (threads proposal) exporting
///   init() -> i32     — fills inputs and spawns `nthreads` workers via the
///                       "wasi" "thread-spawn" import; 0 on success
///   run(reps) -> f64  — per rep, drives the worker pool through one epoch
///                       barrier over the element-wise kernel; returns the
///                       same sequential scalar checksum as the
///                       single-threaded build (bit-exact)
///   shutdown()        — raises the stop flag and wakes the workers so the
///                       host's join completes
/// All coordination is 0xFE atomics: seq-cst RMWs on the epoch/done words
/// plus memory.atomic.wait32 / notify instead of host-visible locks.
std::vector<u8> build_threaded_micro_kernel_module(
    const ThreadedKernelParams& p);

/// Dot products in the threaded CG reduce into this many fixed partial
/// blocks, combined sequentially by the main thread — so the residual is
/// bit-identical for every nthreads in 1..kCgDotBlocks.
constexpr u32 kCgDotBlocks = 16;

struct ThreadedCgParams {
  u32 n = 1 << 12;   // elements; multiple of kCgDotBlocks
  u32 nthreads = 4;  // 1..kCgDotBlocks
};

/// Threaded conjugate gradient on the 1-D Laplacian [-1, 2, -1]: the
/// shared-memory analogue of build_hpcg_module's per-rank solve (pure
/// engine, no MPI). Exports init() -> i32, run(iters) -> f64 (the final
/// residual), and shutdown(). Worker threads own fixed element blocks;
/// scalars (alpha/beta) are computed and broadcast by the main thread.
std::vector<u8> build_threaded_cg_module(const ThreadedCgParams& p);

/// Host-side twin of the threaded CG with the identical operation order
/// (block-partial dots combined sequentially): residuals match bit-exactly
/// for every thread count.
f64 threaded_cg_reference(const ThreadedCgParams& p, u32 iterations);

/// Guest-concurrency probe for the engine differential suite: calls
/// MPI_Init_thread (expects MPI_THREAD_MULTIPLE), spawns two guest threads
/// that hammer a shared counter with atomic RMWs and park/wake through
/// wait32/notify, checks wait return codes (ok / not-equal / timed-out) and
/// a cmpxchg round-trip, then exits 0 iff every check passed.
std::vector<u8> build_threads_check_module();

// ---------------------------------------------------------------------------
// Micro kernels (tests, quickstart, Table 1 single-core runs).
// ---------------------------------------------------------------------------

/// Prints "hello from rank R of N" via fd_write and exits 0.
std::vector<u8> build_hello_module();
/// Compile-time workload: `copies` structurally distinct compute functions
/// (Table 1's compile-duration column needs an application-sized module;
/// the real HPCG application compiles to ~722 KiB of Wasm, our CG kernel
/// to ~1 KiB).
std::vector<u8> build_compile_stress_module(u32 copies);
/// Computes a fixed arithmetic workload; returns via proc_exit code.
std::vector<u8> build_compute_module(u32 inner_iters);
/// Allreduce correctness probe: exit code 0 iff sum over ranks matches.
std::vector<u8> build_allreduce_check_module();
/// Nonblocking-collective probe: Iallreduce + Ibarrier drained via
/// MPI_Waitany/MPI_Testall, then an Ibcast completed with MPI_Wait.
/// Exit code 0 iff every result and request-state check passes.
std::vector<u8> build_icoll_check_module();
/// Segmented-rendezvous probe: one 2 MiB Iallreduce completed with
/// MPI_Wait, so every schedule exchange crosses the eager limit and the
/// pipelined-rendezvous path runs (the `--trace` demo workload for
/// `rndv.segment` / `sched.step` events). Exit code 0 iff the reduction
/// is correct at both buffer ends.
std::vector<u8> build_icoll_pipeline_module();
/// MPI_Alloc_mem/Free_mem round-trip probe (exercises exported malloc).
std::vector<u8> build_alloc_mem_module();

}  // namespace mpiwasm::toolchain
