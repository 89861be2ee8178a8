// Small self-contained kernels: smoke-test modules for the embedder, the
// quickstart example, and the Figure-6 datatype-translation probe.
#include "toolchain/kernels.h"

#include "embedder/abi.h"
#include "toolchain/mpi_imports.h"
#include "wasm/decoder.h"
#include "wasm/validator.h"

namespace mpiwasm::toolchain {

using wasm::FuncType;
using wasm::ModuleBuilder;
using wasm::Op;
using wasm::ValType;
namespace abi = embed::abi;

namespace {
constexpr ValType I32 = ValType::kI32;
constexpr u32 kRankPtr = 1024;
constexpr u32 kSizePtr = 1032;

std::vector<u8> finish(ModuleBuilder& b, const char* what) {
  std::vector<u8> bytes = b.build();
  auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
  MW_CHECK(decoded.ok(), std::string(what) + " failed to decode: " + decoded.error);
  auto vr = wasm::validate_module(*decoded.module);
  MW_CHECK(vr.ok, std::string(what) + " failed to validate: " + vr.error);
  return bytes;
}

}  // namespace

std::vector<u8> build_hello_module() {
  ModuleBuilder b;
  MpiImports mpi = declare_mpi_imports(b, {});
  u32 fd_write = b.import_func("wasi_snapshot_preview1", "fd_write",
                               FuncType{{I32, I32, I32, I32}, {I32}});
  b.add_memory(1);
  b.export_memory();
  const u32 kMsg = 4096;
  const u32 kIov = 4080;
  const u32 kNPtr = 4072;
  b.add_data_string(kMsg, "hello from rank X of Y\n");

  auto& f = b.begin_func({{}, {}}, "_start");
  f.i32_const(0);
  f.i32_const(0);
  f.call(mpi.init);
  f.op(Op::kDrop);
  // Patch rank/size digits (single-digit worlds; fine for a demo).
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(i32(kRankPtr));
  f.call(mpi.comm_rank);
  f.op(Op::kDrop);
  f.i32_const(i32(kMsg + 16));
  f.i32_const('0');
  f.i32_const(i32(kRankPtr));
  f.mem_op(Op::kI32Load);
  f.op(Op::kI32Add);
  f.mem_op(Op::kI32Store8);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(i32(kSizePtr));
  f.call(mpi.comm_size);
  f.op(Op::kDrop);
  f.i32_const(i32(kMsg + 21));
  f.i32_const('0');
  f.i32_const(i32(kSizePtr));
  f.mem_op(Op::kI32Load);
  f.op(Op::kI32Add);
  f.mem_op(Op::kI32Store8);
  // fd_write(stdout, iov, 1, &nwritten)
  f.i32_const(i32(kIov));
  f.i32_const(i32(kMsg));
  f.mem_op(Op::kI32Store);
  f.i32_const(i32(kIov + 4));
  f.i32_const(23);
  f.mem_op(Op::kI32Store);
  f.i32_const(1);
  f.i32_const(i32(kIov));
  f.i32_const(1);
  f.i32_const(i32(kNPtr));
  f.call(fd_write);
  f.op(Op::kDrop);
  f.call(mpi.finalize);
  f.op(Op::kDrop);
  f.end();
  return finish(b, "hello module");
}

std::vector<u8> build_compile_stress_module(u32 copies) {
  ModuleBuilder b;
  b.add_memory(4);
  b.export_memory();
  for (u32 c = 0; c < copies; ++c) {
    // Each clone mixes loops, memory traffic, float math, and branches so
    // every optimizer pass has real work to do.
    auto& f = b.begin_func({{I32}, {ValType::kF64}},
                           c == 0 ? "run" : "");
    u32 i = f.add_local(I32);
    u32 acc = f.add_local(ValType::kF64);
    f.for_loop_i32(i, 0, 0, 1, [&] {
      f.local_get(i);
      f.i32_const(i32(c * 7 + 3));
      f.op(Op::kI32Mul);
      f.i32_const(0xFFF8);
      f.op(Op::kI32And);
      f.local_get(i);
      f.op(Op::kF64ConvertI32S);
      f.f64_const(1.0 + c * 0.01);
      f.op(Op::kF64Mul);
      f.mem_op(Op::kF64Store);
      f.local_get(acc);
      f.local_get(i);
      f.i32_const(3);
      f.op(Op::kI32And);
      f.op(Op::kI32Eqz);
      f.if_(ValType::kF64);
      f.local_get(i);
      f.op(Op::kF64ConvertI32S);
      f.f64_const(0.5);
      f.op(Op::kF64Mul);
      f.else_();
      f.local_get(i);
      f.op(Op::kF64ConvertI32S);
      f.f64_const(2.0);
      f.op(Op::kF64Add);
      f.end();
      f.op(Op::kF64Add);
      f.local_set(acc);
    });
    f.local_get(acc);
    f.end();
  }
  return finish(b, "compile stress module");
}

std::vector<u8> build_compute_module(u32 inner_iters) {
  ModuleBuilder b;
  u32 proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit",
                                FuncType{{I32}, {}});
  b.add_memory(1);
  b.export_memory();
  auto& f = b.begin_func({{}, {}}, "_start");
  u32 i = f.add_local(I32);
  u32 lim = f.add_local(I32);
  u32 acc = f.add_local(I32);
  f.i32_const(i32(inner_iters));
  f.local_set(lim);
  f.for_loop_i32(i, 0, lim, 1, [&] {
    // acc = (acc * 31 + i) ^ (acc >> 3)
    f.local_get(acc);
    f.i32_const(31);
    f.op(Op::kI32Mul);
    f.local_get(i);
    f.op(Op::kI32Add);
    f.local_get(acc);
    f.i32_const(3);
    f.op(Op::kI32ShrU);
    f.op(Op::kI32Xor);
    f.local_set(acc);
  });
  f.local_get(acc);
  f.i32_const(0x7F);
  f.op(Op::kI32And);
  f.call(proc_exit);
  f.end();
  return finish(b, "compute module");
}

/// Host-side twin of build_compute_module, for exit-code assertions.
i32 compute_module_expected(u32 inner_iters) {
  // u32 arithmetic wraps exactly as the module's i32.mul and i32.add do.
  u32 acc = 0;
  for (u32 i = 0; i < inner_iters; ++i) acc = (acc * 31 + i) ^ (acc >> 3);
  return i32(acc & 0x7F);
}

std::vector<u8> build_allreduce_check_module() {
  ModuleBuilder b;
  MpiImportSet set;
  set.collectives = true;
  MpiImports mpi = declare_mpi_imports(b, set);
  u32 proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit",
                                FuncType{{I32}, {}});
  b.add_memory(1);
  b.export_memory();
  const u32 kIn = 2048, kOut = 2056;

  auto& f = b.begin_func({{}, {}}, "_start");
  u32 rank = f.add_local(I32);
  u32 size = f.add_local(I32);
  f.i32_const(0);
  f.i32_const(0);
  f.call(mpi.init);
  f.op(Op::kDrop);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(i32(kRankPtr));
  f.call(mpi.comm_rank);
  f.op(Op::kDrop);
  f.i32_const(i32(kRankPtr));
  f.mem_op(Op::kI32Load);
  f.local_set(rank);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(i32(kSizePtr));
  f.call(mpi.comm_size);
  f.op(Op::kDrop);
  f.i32_const(i32(kSizePtr));
  f.mem_op(Op::kI32Load);
  f.local_set(size);
  // in = rank + 1 ; allreduce SUM
  f.i32_const(i32(kIn));
  f.local_get(rank);
  f.i32_const(1);
  f.op(Op::kI32Add);
  f.mem_op(Op::kI32Store);
  f.i32_const(i32(kIn));
  f.i32_const(i32(kOut));
  f.i32_const(1);
  f.i32_const(abi::MPI_INT);
  f.i32_const(abi::MPI_SUM);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.call(mpi.allreduce);
  f.op(Op::kDrop);
  f.call(mpi.finalize);
  f.op(Op::kDrop);
  // exit(sum == n(n+1)/2 ? 0 : 1)
  f.i32_const(i32(kOut));
  f.mem_op(Op::kI32Load);
  f.local_get(size);
  f.local_get(size);
  f.i32_const(1);
  f.op(Op::kI32Add);
  f.op(Op::kI32Mul);
  f.i32_const(2);
  f.op(Op::kI32DivS);
  f.op(Op::kI32Eq);
  f.if_(I32);
  f.i32_const(0);
  f.else_();
  f.i32_const(1);
  f.end();
  f.call(proc_exit);
  f.end();
  return finish(b, "allreduce check module");
}

std::vector<u8> build_alloc_mem_module() {
  ModuleBuilder b;
  MpiImportSet set;
  set.mem_mgmt = true;
  MpiImports mpi = declare_mpi_imports(b, set);
  u32 proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit",
                                FuncType{{I32}, {}});
  b.add_memory(4);
  b.export_memory();
  add_bump_allocator(b, 1 << 16);
  const u32 kPtrPtr = 2048;

  auto& f = b.begin_func({{}, {}}, "_start");
  u32 p = f.add_local(I32);
  f.i32_const(0);
  f.i32_const(0);
  f.call(mpi.init);
  f.op(Op::kDrop);
  // MPI_Alloc_mem(1024, info=0, &p) -> must yield a valid module pointer.
  f.i32_const(1024);
  f.i32_const(0);
  f.i32_const(i32(kPtrPtr));
  f.call(mpi.alloc_mem);
  f.if_(I32);  // nonzero return = failure
  f.i32_const(2);
  f.else_();
  f.i32_const(0);
  f.end();
  f.op(Op::kDrop);
  f.i32_const(i32(kPtrPtr));
  f.mem_op(Op::kI32Load);
  f.local_set(p);
  // Write/read through the allocated block.
  f.local_get(p);
  f.i32_const(i32(0xABCD1234u));
  f.mem_op(Op::kI32Store);
  f.local_get(p);
  f.i32_const(512);
  f.op(Op::kI32Add);
  f.i32_const(i32(0x5A5A5A5Au));
  f.mem_op(Op::kI32Store);
  f.local_get(p);
  f.call(mpi.free_mem);
  f.op(Op::kDrop);
  f.call(mpi.finalize);
  f.op(Op::kDrop);
  // exit(readback ok && p != 0 && p aligned ? 0 : 1)
  f.local_get(p);
  f.op(Op::kI32Eqz);
  f.if_();
  f.i32_const(1);
  f.call(proc_exit);
  f.end();
  f.local_get(p);
  f.mem_op(Op::kI32Load);
  f.i32_const(i32(0xABCD1234u));
  f.op(Op::kI32Ne);
  f.if_();
  f.i32_const(1);
  f.call(proc_exit);
  f.end();
  f.i32_const(0);
  f.call(proc_exit);
  f.end();
  return finish(b, "alloc_mem module");
}

std::vector<u8> build_datatype_pingpong_module(const DatatypePingPongParams& p) {
  ModuleBuilder b;
  MpiImportSet set;
  set.p2p = true;
  set.collectives = true;
  MpiImports mpi = declare_mpi_imports(b, set);
  u32 report = declare_report_import(b);
  const u32 kBufA = 1 << 16;
  const u32 buf_b = kBufA + p.max_bytes + 4096;
  const u32 heap = buf_b + p.max_bytes + 4096;
  b.add_memory((heap >> 16) + 2);
  b.export_memory();
  add_bump_allocator(b, heap);

  struct Dt {
    i32 handle;
    u32 elem;
  };
  const Dt dts[] = {{abi::MPI_BYTE, 1},  {abi::MPI_CHAR, 1},
                    {abi::MPI_INT, 4},   {abi::MPI_FLOAT, 4},
                    {abi::MPI_DOUBLE, 8}, {abi::MPI_LONG, 8}};

  auto& f = b.begin_func({{}, {}}, "_start");
  u32 rank = f.add_local(I32);
  u32 i = f.add_local(I32);
  u32 iters = f.add_local(I32);

  f.i32_const(0);
  f.i32_const(0);
  f.call(mpi.init);
  f.op(Op::kDrop);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(i32(kRankPtr));
  f.call(mpi.comm_rank);
  f.op(Op::kDrop);
  f.i32_const(i32(kRankPtr));
  f.mem_op(Op::kI32Load);
  f.local_set(rank);

  // Sweep: message sizes x datatypes (paper Figure 6's x-axis/series).
  for (u32 bytes = 8; bytes <= p.max_bytes; bytes *= 8) {
    for (const Dt& dt : dts) {
      const i32 count = i32(bytes / dt.elem);
      f.i32_const(abi::MPI_COMM_WORLD);
      f.call(mpi.barrier);
      f.op(Op::kDrop);
      f.i32_const(i32(p.iters_per_size));
      f.local_set(iters);
      f.for_loop_i32(i, 0, iters, 1, [&] {
        f.local_get(rank);
        f.op(Op::kI32Eqz);
        f.if_();
        {
          f.i32_const(i32(kBufA));
          f.i32_const(count);
          f.i32_const(dt.handle);
          f.i32_const(1);
          f.i32_const(0);
          f.i32_const(abi::MPI_COMM_WORLD);
          f.call(mpi.send);
          f.op(Op::kDrop);
          f.i32_const(i32(buf_b));
          f.i32_const(count);
          f.i32_const(dt.handle);
          f.i32_const(1);
          f.i32_const(0);
          f.i32_const(abi::MPI_COMM_WORLD);
          f.i32_const(abi::MPI_STATUS_IGNORE);
          f.call(mpi.recv);
          f.op(Op::kDrop);
        }
        f.else_();
        {
          f.local_get(rank);
          f.i32_const(1);
          f.op(Op::kI32Eq);
          f.if_();
          f.i32_const(i32(buf_b));
          f.i32_const(count);
          f.i32_const(dt.handle);
          f.i32_const(0);
          f.i32_const(0);
          f.i32_const(abi::MPI_COMM_WORLD);
          f.i32_const(abi::MPI_STATUS_IGNORE);
          f.call(mpi.recv);
          f.op(Op::kDrop);
          f.i32_const(i32(kBufA));
          f.i32_const(count);
          f.i32_const(dt.handle);
          f.i32_const(0);
          f.i32_const(0);
          f.i32_const(abi::MPI_COMM_WORLD);
          f.call(mpi.send);
          f.op(Op::kDrop);
          f.end();
        }
        f.end();
      });
      // Report completion of this (datatype, size) cell.
      f.local_get(rank);
      f.op(Op::kI32Eqz);
      f.if_();
      f.i32_const(p.report_id);
      f.f64_const(f64(bytes));
      f.f64_const(f64(dt.handle));
      f.f64_const(f64(p.iters_per_size));
      f.call(report);
      f.end();
    }
  }

  f.call(mpi.finalize);
  f.op(Op::kDrop);
  f.end();
  return finish(b, "datatype pingpong module");
}

// ---------------------------------------------------------------------------
// Vectorizable micro kernels (bench_simd): each kernel is authored twice —
// a scalar inner loop and a v128 twin — over identical memory layouts and
// an identical (scalar) checksum pass, so element-wise kernels compare
// bit-exactly across the two builds and reductions compare to a ULP bound.
// ---------------------------------------------------------------------------

const char* micro_kernel_name(MicroKernel k) {
  switch (k) {
    case MicroKernel::kReduceF64: return "reduce_f64";
    case MicroKernel::kReduceI32: return "reduce_i32";
    case MicroKernel::kDaxpy: return "daxpy_f64";
    case MicroKernel::kStencil3: return "stencil3_f64";
    case MicroKernel::kDotF64: return "dot_f64";
    case MicroKernel::kSaxpyF32: return "saxpy_f32";
  }
  return "?";
}

bool micro_kernel_reassociates(MicroKernel k) {
  return k == MicroKernel::kReduceF64 || k == MicroKernel::kDotF64;
}

namespace {

constexpr u32 kMkX0 = 1 << 16;  // first input array

struct MkLayout {
  u32 elem;  // element size in bytes
  u32 x0, y0, out0;
  u32 pages;
};

MkLayout mk_layout(const MicroKernelParams& p) {
  MkLayout l;
  l.elem = (p.kernel == MicroKernel::kReduceI32 ||
            p.kernel == MicroKernel::kSaxpyF32)
               ? 4
               : 8;
  l.x0 = kMkX0;
  l.y0 = l.x0 + ((p.n * l.elem + 15) & ~15u);
  l.out0 = l.y0 + ((p.n * l.elem + 15) & ~15u);
  l.pages = (l.out0 + p.n * l.elem) / wasm::kPageSize + 2;
  return l;
}

using wasm::FunctionBuilder;

/// addr = base + i  (i is a byte-offset local; lowering fuses the constant
/// into a single add-immediate).
void mk_addr(FunctionBuilder& f, u32 base, u32 i_local) {
  f.i32_const(i32(base));
  f.local_get(i_local);
  f.op(Op::kI32Add);
}

}  // namespace

std::vector<u8> build_micro_kernel_module(const MicroKernelParams& p) {
  MW_CHECK(p.n >= 8 && p.n % 4 == 0,
           "micro kernel size must be a multiple of 4 and >= 8");
  const MkLayout l = mk_layout(p);
  const u32 n = p.n;
  using VT = ValType;

  ModuleBuilder b;
  b.add_memory(l.pages);
  b.export_memory();

  // --- init(): deterministic input patterns -------------------------------
  {
    auto& f = b.begin_func({{}, {}}, "init");
    u32 i = f.add_local(VT::kI32);
    u32 lim = f.add_local(VT::kI32);
    f.i32_const(i32(n));
    f.local_set(lim);
    f.for_loop_i32(i, 0, lim, 1, [&] {
      switch (p.kernel) {
        case MicroKernel::kReduceI32: {
          // x[i] = i*1664525 + 1013904223 (wrapping LCG step)
          f.local_get(i);
          f.i32_const(2);
          f.op(Op::kI32Shl);
          f.i32_const(i32(l.x0));
          f.op(Op::kI32Add);
          f.local_get(i);
          f.i32_const(1664525);
          f.op(Op::kI32Mul);
          f.i32_const(1013904223);
          f.op(Op::kI32Add);
          f.mem_op(Op::kI32Store);
          break;
        }
        case MicroKernel::kSaxpyF32: {
          // x[i] = f32(i % 97)*0.5 + 1 ; y[i] = f32(i % 89)*0.25 + 2
          for (int arr = 0; arr < 2; ++arr) {
            f.local_get(i);
            f.i32_const(2);
            f.op(Op::kI32Shl);
            f.i32_const(i32(arr == 0 ? l.x0 : l.y0));
            f.op(Op::kI32Add);
            f.local_get(i);
            f.i32_const(arr == 0 ? 97 : 89);
            f.op(Op::kI32RemS);
            f.op(Op::kF32ConvertI32S);
            f.f32_const(arr == 0 ? 0.5f : 0.25f);
            f.op(Op::kF32Mul);
            f.f32_const(arr == 0 ? 1.0f : 2.0f);
            f.op(Op::kF32Add);
            f.mem_op(Op::kF32Store);
          }
          break;
        }
        default: {
          // f64 kernels: x[i] = f64(i % 97)*0.5 + 1 ; y[i] = f64(i % 89)*0.25 + 2
          for (int arr = 0; arr < 2; ++arr) {
            f.local_get(i);
            f.i32_const(3);
            f.op(Op::kI32Shl);
            f.i32_const(i32(arr == 0 ? l.x0 : l.y0));
            f.op(Op::kI32Add);
            f.local_get(i);
            f.i32_const(arr == 0 ? 97 : 89);
            f.op(Op::kI32RemS);
            f.op(Op::kF64ConvertI32S);
            f.f64_const(arr == 0 ? 0.5 : 0.25);
            f.op(Op::kF64Mul);
            f.f64_const(arr == 0 ? 1.0 : 2.0);
            f.op(Op::kF64Add);
            f.mem_op(Op::kF64Store);
          }
          break;
        }
      }
    });
    f.end();
  }

  // --- run(reps) -> f64 checksum ------------------------------------------
  auto& f = b.begin_func({{VT::kI32}, {VT::kF64}}, "run");
  const u32 reps = 0;  // param
  const u32 i = f.add_local(VT::kI32);
  const u32 lim = f.add_local(VT::kI32);
  const u32 rep = f.add_local(VT::kI32);
  const u32 cks = f.add_local(VT::kF64);
  const u32 acc = f.add_local(VT::kF64);
  const u32 acci = f.add_local(VT::kI32);
  const u32 av = p.use_simd ? f.add_local(VT::kV128) : 0;

  // Scalar checksum pass shared verbatim by both builds: element-wise
  // kernels therefore compare bit-exactly scalar-vs-SIMD.
  auto emit_scalar_sum = [&](u32 base, bool is_f32) {
    f.f64_const(0.0);
    f.local_set(acc);
    f.i32_const(i32(n * l.elem));
    f.local_set(lim);
    f.for_loop_i32(i, 0, lim, i32(l.elem), [&] {
      f.local_get(acc);
      mk_addr(f, base, i);
      if (is_f32) {
        f.mem_op(Op::kF32Load);
        f.op(Op::kF64PromoteF32);
      } else {
        f.mem_op(Op::kF64Load);
      }
      f.op(Op::kF64Add);
      f.local_set(acc);
    });
  };

  f.for_loop_i32(rep, 0, reps, 1, [&] {
    switch (p.kernel) {
      case MicroKernel::kReduceF64: {
        if (p.use_simd) {
          f.f64_const(0.0);
          f.op(Op::kF64x2Splat);
          f.local_set(av);
          f.i32_const(i32(n * 8));
          f.local_set(lim);
          f.for_loop_i32(i, 0, lim, 16, [&] {
            f.local_get(av);
            mk_addr(f, l.x0, i);
            f.mem_op(Op::kV128Load);
            f.op(Op::kF64x2Add);
            f.local_set(av);
          });
          f.local_get(cks);
          f.local_get(av);
          f.lane_op(Op::kF64x2ExtractLane, 0);
          f.local_get(av);
          f.lane_op(Op::kF64x2ExtractLane, 1);
          f.op(Op::kF64Add);
          f.op(Op::kF64Add);
          f.local_set(cks);
        } else {
          f.f64_const(0.0);
          f.local_set(acc);
          f.i32_const(i32(n * 8));
          f.local_set(lim);
          f.for_loop_i32(i, 0, lim, 8, [&] {
            f.local_get(acc);
            mk_addr(f, l.x0, i);
            f.mem_op(Op::kF64Load);
            f.op(Op::kF64Add);
            f.local_set(acc);
          });
          f.local_get(cks);
          f.local_get(acc);
          f.op(Op::kF64Add);
          f.local_set(cks);
        }
        break;
      }
      case MicroKernel::kReduceI32: {
        if (p.use_simd) {
          f.i32_const(0);
          f.op(Op::kI32x4Splat);
          f.local_set(av);
          f.i32_const(i32(n * 4));
          f.local_set(lim);
          f.for_loop_i32(i, 0, lim, 16, [&] {
            f.local_get(av);
            mk_addr(f, l.x0, i);
            f.mem_op(Op::kV128Load);
            f.op(Op::kI32x4Add);
            f.local_set(av);
          });
          f.i32_const(0);
          f.local_set(acci);
          for (u8 lane = 0; lane < 4; ++lane) {
            f.local_get(acci);
            f.local_get(av);
            f.lane_op(Op::kI32x4ExtractLane, lane);
            f.op(Op::kI32Add);
            f.local_set(acci);
          }
        } else {
          f.i32_const(0);
          f.local_set(acci);
          f.i32_const(i32(n * 4));
          f.local_set(lim);
          f.for_loop_i32(i, 0, lim, 4, [&] {
            f.local_get(acci);
            mk_addr(f, l.x0, i);
            f.mem_op(Op::kI32Load);
            f.op(Op::kI32Add);
            f.local_set(acci);
          });
        }
        f.local_get(cks);
        f.local_get(acci);
        f.op(Op::kF64ConvertI32S);
        f.op(Op::kF64Add);
        f.local_set(cks);
        break;
      }
      case MicroKernel::kDaxpy: {
        f.i32_const(i32(n * 8));
        f.local_set(lim);
        if (p.use_simd) {
          f.f64_const(2.5);
          f.op(Op::kF64x2Splat);
          f.local_set(av);
          f.for_loop_i32(i, 0, lim, 16, [&] {
            mk_addr(f, l.y0, i);      // store address
            f.local_get(av);
            mk_addr(f, l.x0, i);
            f.mem_op(Op::kV128Load);
            f.op(Op::kF64x2Mul);
            mk_addr(f, l.y0, i);
            f.mem_op(Op::kV128Load);
            f.op(Op::kF64x2Add);
            f.mem_op(Op::kV128Store);
          });
        } else {
          f.for_loop_i32(i, 0, lim, 8, [&] {
            mk_addr(f, l.y0, i);
            f.f64_const(2.5);
            mk_addr(f, l.x0, i);
            f.mem_op(Op::kF64Load);
            f.op(Op::kF64Mul);
            mk_addr(f, l.y0, i);
            f.mem_op(Op::kF64Load);
            f.op(Op::kF64Add);
            f.mem_op(Op::kF64Store);
          });
        }
        break;
      }
      case MicroKernel::kStencil3: {
        // out[i] = 0.25*x[i-1] + 0.5*x[i] + 0.25*x[i+1], i in [1, n-1).
        // n % 4 == 0 makes the interior even-sized, so the SIMD pairs tile
        // it exactly and both builds touch the same elements.
        f.i32_const(i32((n - 1) * 8));
        f.local_set(lim);
        if (p.use_simd) {
          f.for_loop_i32(i, 8, lim, 16, [&] {
            mk_addr(f, l.out0, i);
            mk_addr(f, l.x0 - 8, i);   // x[i-1]
            f.mem_op(Op::kV128Load);
            f.f64_const(0.25);
            f.op(Op::kF64x2Splat);
            f.op(Op::kF64x2Mul);
            mk_addr(f, l.x0, i);       // x[i]
            f.mem_op(Op::kV128Load);
            f.f64_const(0.5);
            f.op(Op::kF64x2Splat);
            f.op(Op::kF64x2Mul);
            f.op(Op::kF64x2Add);
            mk_addr(f, l.x0 + 8, i);   // x[i+1]
            f.mem_op(Op::kV128Load);
            f.f64_const(0.25);
            f.op(Op::kF64x2Splat);
            f.op(Op::kF64x2Mul);
            f.op(Op::kF64x2Add);
            f.mem_op(Op::kV128Store);
          });
        } else {
          f.for_loop_i32(i, 8, lim, 8, [&] {
            mk_addr(f, l.out0, i);
            mk_addr(f, l.x0 - 8, i);
            f.mem_op(Op::kF64Load);
            f.f64_const(0.25);
            f.op(Op::kF64Mul);
            mk_addr(f, l.x0, i);
            f.mem_op(Op::kF64Load);
            f.f64_const(0.5);
            f.op(Op::kF64Mul);
            f.op(Op::kF64Add);
            mk_addr(f, l.x0 + 8, i);
            f.mem_op(Op::kF64Load);
            f.f64_const(0.25);
            f.op(Op::kF64Mul);
            f.op(Op::kF64Add);
            f.mem_op(Op::kF64Store);
          });
        }
        break;
      }
      case MicroKernel::kDotF64: {
        f.i32_const(i32(n * 8));
        f.local_set(lim);
        if (p.use_simd) {
          f.f64_const(0.0);
          f.op(Op::kF64x2Splat);
          f.local_set(av);
          f.for_loop_i32(i, 0, lim, 16, [&] {
            f.local_get(av);
            mk_addr(f, l.x0, i);
            f.mem_op(Op::kV128Load);
            mk_addr(f, l.y0, i);
            f.mem_op(Op::kV128Load);
            f.op(Op::kF64x2Mul);
            f.op(Op::kF64x2Add);
            f.local_set(av);
          });
          f.local_get(cks);
          f.local_get(av);
          f.lane_op(Op::kF64x2ExtractLane, 0);
          f.local_get(av);
          f.lane_op(Op::kF64x2ExtractLane, 1);
          f.op(Op::kF64Add);
          f.op(Op::kF64Add);
          f.local_set(cks);
        } else {
          f.f64_const(0.0);
          f.local_set(acc);
          f.for_loop_i32(i, 0, lim, 8, [&] {
            f.local_get(acc);
            mk_addr(f, l.x0, i);
            f.mem_op(Op::kF64Load);
            mk_addr(f, l.y0, i);
            f.mem_op(Op::kF64Load);
            f.op(Op::kF64Mul);
            f.op(Op::kF64Add);
            f.local_set(acc);
          });
          f.local_get(cks);
          f.local_get(acc);
          f.op(Op::kF64Add);
          f.local_set(cks);
        }
        break;
      }
      case MicroKernel::kSaxpyF32: {
        f.i32_const(i32(n * 4));
        f.local_set(lim);
        if (p.use_simd) {
          f.f32_const(2.5f);
          f.op(Op::kF32x4Splat);
          f.local_set(av);
          f.for_loop_i32(i, 0, lim, 16, [&] {
            mk_addr(f, l.y0, i);
            f.local_get(av);
            mk_addr(f, l.x0, i);
            f.mem_op(Op::kV128Load);
            f.op(Op::kF32x4Mul);
            mk_addr(f, l.y0, i);
            f.mem_op(Op::kV128Load);
            f.op(Op::kF32x4Add);
            f.mem_op(Op::kV128Store);
          });
        } else {
          f.for_loop_i32(i, 0, lim, 4, [&] {
            mk_addr(f, l.y0, i);
            f.f32_const(2.5f);
            mk_addr(f, l.x0, i);
            f.mem_op(Op::kF32Load);
            f.op(Op::kF32Mul);
            mk_addr(f, l.y0, i);
            f.mem_op(Op::kF32Load);
            f.op(Op::kF32Add);
            f.mem_op(Op::kF32Store);
          });
        }
        break;
      }
    }
  });

  // Checksum for the element-wise kernels: a scalar pass over the output.
  switch (p.kernel) {
    case MicroKernel::kDaxpy:
      emit_scalar_sum(l.y0, false);
      f.local_get(acc);
      f.local_set(cks);
      break;
    case MicroKernel::kStencil3:
      emit_scalar_sum(l.out0, false);
      f.local_get(acc);
      f.local_set(cks);
      break;
    case MicroKernel::kSaxpyF32:
      emit_scalar_sum(l.y0, true);
      f.local_get(acc);
      f.local_set(cks);
      break;
    default:
      break;  // reductions accumulated into cks per rep already
  }
  f.local_get(cks);
  f.end();
  return finish(b, "micro kernel module");
}

f64 micro_kernel_reference(const MicroKernelParams& p, u32 reps) {
  const u32 n = p.n;
  f64 cks = 0;
  switch (p.kernel) {
    case MicroKernel::kReduceF64: {
      for (u32 r = 0; r < reps; ++r) {
        f64 acc = 0;
        for (u32 k = 0; k < n; ++k) acc += f64(i32(k % 97)) * 0.5 + 1.0;
        cks += acc;
      }
      return cks;
    }
    case MicroKernel::kReduceI32: {
      for (u32 r = 0; r < reps; ++r) {
        i32 acc = 0;
        for (u32 k = 0; k < n; ++k)
          acc = i32(u32(acc) + (u32(k) * 1664525u + 1013904223u));
        cks += f64(acc);
      }
      return cks;
    }
    case MicroKernel::kDaxpy: {
      std::vector<f64> x(n), y(n);
      for (u32 k = 0; k < n; ++k) {
        x[k] = f64(i32(k % 97)) * 0.5 + 1.0;
        y[k] = f64(i32(k % 89)) * 0.25 + 2.0;
      }
      for (u32 r = 0; r < reps; ++r)
        for (u32 k = 0; k < n; ++k) y[k] = 2.5 * x[k] + y[k];
      for (u32 k = 0; k < n; ++k) cks += y[k];
      return cks;
    }
    case MicroKernel::kStencil3: {
      std::vector<f64> x(n), out(n, 0.0);
      for (u32 k = 0; k < n; ++k) x[k] = f64(i32(k % 97)) * 0.5 + 1.0;
      for (u32 k = 1; k + 1 < n; ++k)
        out[k] = 0.25 * x[k - 1] + 0.5 * x[k] + 0.25 * x[k + 1];
      for (u32 k = 0; k < n; ++k) cks += out[k];
      return cks;
    }
    case MicroKernel::kDotF64: {
      std::vector<f64> x(n), y(n);
      for (u32 k = 0; k < n; ++k) {
        x[k] = f64(i32(k % 97)) * 0.5 + 1.0;
        y[k] = f64(i32(k % 89)) * 0.25 + 2.0;
      }
      for (u32 r = 0; r < reps; ++r) {
        f64 acc = 0;
        for (u32 k = 0; k < n; ++k) acc += x[k] * y[k];
        cks += acc;
      }
      return cks;
    }
    case MicroKernel::kSaxpyF32: {
      std::vector<f32> x(n), y(n);
      for (u32 k = 0; k < n; ++k) {
        x[k] = f32(i32(k % 97)) * 0.5f + 1.0f;
        y[k] = f32(i32(k % 89)) * 0.25f + 2.0f;
      }
      for (u32 r = 0; r < reps; ++r)
        for (u32 k = 0; k < n; ++k) y[k] = 2.5f * x[k] + y[k];
      for (u32 k = 0; k < n; ++k) cks += f64(y[k]);
      return cks;
    }
  }
  return cks;
}

std::vector<u8> build_icoll_check_module() {
  ModuleBuilder b;
  MpiImportSet set;
  set.nonblocking = true;  // Waitany/Testall (+ Wait)
  set.icoll = true;
  MpiImports mpi = declare_mpi_imports(b, set);
  u32 proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit",
                                FuncType{{I32}, {}});
  b.add_memory(1);
  b.export_memory();
  const u32 kIn = 2048, kOut = 2056;    // Iallreduce operands
  const u32 kReqs = 2080;               // 2 request handles
  const u32 kIndex = 2096, kFlag = 2100;
  const u32 kBval = 2104;               // Ibcast payload

  auto& f = b.begin_func({{}, {}}, "_start");
  u32 rank = f.add_local(I32);
  u32 size = f.add_local(I32);
  u32 ok = f.add_local(I32);
  f.i32_const(0);
  f.i32_const(0);
  f.call(mpi.init);
  f.op(Op::kDrop);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(i32(kRankPtr));
  f.call(mpi.comm_rank);
  f.op(Op::kDrop);
  f.i32_const(i32(kRankPtr));
  f.mem_op(Op::kI32Load);
  f.local_set(rank);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(i32(kSizePtr));
  f.call(mpi.comm_size);
  f.op(Op::kDrop);
  f.i32_const(i32(kSizePtr));
  f.mem_op(Op::kI32Load);
  f.local_set(size);
  f.i32_const(1);
  f.local_set(ok);

  // in = rank + 1; Iallreduce SUM -> reqs[0]; Ibarrier -> reqs[1].
  f.i32_const(i32(kIn));
  f.local_get(rank);
  f.i32_const(1);
  f.op(Op::kI32Add);
  f.mem_op(Op::kI32Store);
  f.i32_const(i32(kIn));
  f.i32_const(i32(kOut));
  f.i32_const(1);
  f.i32_const(abi::MPI_INT);
  f.i32_const(abi::MPI_SUM);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(i32(kReqs));
  f.call(mpi.iallreduce);
  f.op(Op::kDrop);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(i32(kReqs + 4));
  f.call(mpi.ibarrier);
  f.op(Op::kDrop);

  // Two Waitany calls drain both; a third must yield MPI_UNDEFINED.
  for (int call = 0; call < 3; ++call) {
    f.i32_const(2);
    f.i32_const(i32(kReqs));
    f.i32_const(i32(kIndex));
    f.i32_const(abi::MPI_STATUS_IGNORE);
    f.call(mpi.waitany);
    f.op(Op::kDrop);
  }
  f.i32_const(i32(kIndex));
  f.mem_op(Op::kI32Load);
  f.i32_const(abi::MPI_UNDEFINED);
  f.op(Op::kI32Ne);
  f.if_();
  f.i32_const(0);
  f.local_set(ok);
  f.end();

  // Testall over the drained (null) handles must set flag = 1.
  f.i32_const(2);
  f.i32_const(i32(kReqs));
  f.i32_const(i32(kFlag));
  f.i32_const(abi::MPI_STATUS_IGNORE);
  f.call(mpi.testall);
  f.op(Op::kDrop);
  f.i32_const(i32(kFlag));
  f.mem_op(Op::kI32Load);
  f.op(Op::kI32Eqz);
  f.if_();
  f.i32_const(0);
  f.local_set(ok);
  f.end();

  // sum == n (n + 1) / 2?
  f.i32_const(i32(kOut));
  f.mem_op(Op::kI32Load);
  f.local_get(size);
  f.local_get(size);
  f.i32_const(1);
  f.op(Op::kI32Add);
  f.op(Op::kI32Mul);
  f.i32_const(2);
  f.op(Op::kI32DivS);
  f.op(Op::kI32Ne);
  f.if_();
  f.i32_const(0);
  f.local_set(ok);
  f.end();

  // Ibcast(123) from root 0, completed with MPI_Wait.
  f.i32_const(i32(kBval));
  f.local_get(rank);
  f.op(Op::kI32Eqz);
  f.if_(I32);
  f.i32_const(123);
  f.else_();
  f.i32_const(0);
  f.end();
  f.mem_op(Op::kI32Store);
  f.i32_const(i32(kBval));
  f.i32_const(1);
  f.i32_const(abi::MPI_INT);
  f.i32_const(0);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(i32(kReqs));
  f.call(mpi.ibcast);
  f.op(Op::kDrop);
  f.i32_const(i32(kReqs));
  f.i32_const(abi::MPI_STATUS_IGNORE);
  f.call(mpi.wait);
  f.op(Op::kDrop);
  f.i32_const(i32(kBval));
  f.mem_op(Op::kI32Load);
  f.i32_const(123);
  f.op(Op::kI32Ne);
  f.if_();
  f.i32_const(0);
  f.local_set(ok);
  f.end();

  // MPI_Wtick must be positive and below one second.
  f.call(mpi.wtick);
  f.f64_const(0.0);
  f.op(Op::kF64Le);
  f.if_();
  f.i32_const(0);
  f.local_set(ok);
  f.end();
  f.call(mpi.wtick);
  f.f64_const(1.0);
  f.op(Op::kF64Ge);
  f.if_();
  f.i32_const(0);
  f.local_set(ok);
  f.end();

  f.call(mpi.finalize);
  f.op(Op::kDrop);
  f.local_get(ok);
  f.op(Op::kI32Eqz);  // exit(ok ? 0 : 1)
  f.call(proc_exit);
  f.end();
  return finish(b, "icoll check module");
}

std::vector<u8> build_icoll_pipeline_module() {
  ModuleBuilder b;
  MpiImportSet set;
  set.nonblocking = true;  // Wait
  set.icoll = true;
  MpiImports mpi = declare_mpi_imports(b, set);
  u32 proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit",
                                FuncType{{I32}, {}});
  // 2 MiB operands: every schedule exchange sits far above the 64 KiB
  // eager limit, so the rendezvous pipeline segments it whichever
  // algorithm selection wins.
  constexpr u32 kCount = 524288;  // i32 elements -> 2 MiB per buffer
  constexpr u32 kIn = 65536;
  constexpr u32 kOut = kIn + kCount * 4;
  constexpr u32 kReq = 2048;
  b.add_memory((kOut + kCount * 4) / 65536 + 1);
  b.export_memory();

  auto& f = b.begin_func({{}, {}}, "_start");
  u32 size = f.add_local(I32);
  u32 i = f.add_local(I32);
  u32 limit = f.add_local(I32);
  u32 ok = f.add_local(I32);
  f.i32_const(0);
  f.i32_const(0);
  f.call(mpi.init);
  f.op(Op::kDrop);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(i32(kSizePtr));
  f.call(mpi.comm_size);
  f.op(Op::kDrop);
  f.i32_const(i32(kSizePtr));
  f.mem_op(Op::kI32Load);
  f.local_set(size);
  f.i32_const(1);
  f.local_set(ok);

  // in[i] = 1 for all i; SUM allreduce -> out[i] == size everywhere.
  f.i32_const(i32(kCount));
  f.local_set(limit);
  f.for_loop_i32(i, 0, limit, 1, [&] {
    f.i32_const(i32(kIn));
    f.local_get(i);
    f.i32_const(4);
    f.op(Op::kI32Mul);
    f.op(Op::kI32Add);
    f.i32_const(1);
    f.mem_op(Op::kI32Store);
  });

  f.i32_const(i32(kIn));
  f.i32_const(i32(kOut));
  f.i32_const(i32(kCount));
  f.i32_const(abi::MPI_INT);
  f.i32_const(abi::MPI_SUM);
  f.i32_const(abi::MPI_COMM_WORLD);
  f.i32_const(i32(kReq));
  f.call(mpi.iallreduce);
  f.op(Op::kDrop);
  f.i32_const(i32(kReq));
  f.i32_const(abi::MPI_STATUS_IGNORE);
  f.call(mpi.wait);
  f.op(Op::kDrop);

  // First and last element both reduced to the world size.
  for (u32 at : {kOut, kOut + (kCount - 1) * 4}) {
    f.i32_const(i32(at));
    f.mem_op(Op::kI32Load);
    f.local_get(size);
    f.op(Op::kI32Ne);
    f.if_();
    f.i32_const(0);
    f.local_set(ok);
    f.end();
  }

  f.call(mpi.finalize);
  f.op(Op::kDrop);
  f.local_get(ok);
  f.op(Op::kI32Eqz);  // exit(ok ? 0 : 1)
  f.call(proc_exit);
  f.end();
  return finish(b, "icoll pipeline module");
}

}  // namespace mpiwasm::toolchain
