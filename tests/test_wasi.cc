// WASI layer tests: argument/environ marshalling, fd I/O, and above all
// the §3.4 sandbox guarantees (virtual directory tree, read-only mounts,
// path-escape rejection, no host-path leakage).
#include "testlib.h"

#include <filesystem>
#include <fstream>

#include "wasi/wasi.h"

namespace mpiwasm::test {
namespace {

namespace fs = std::filesystem;
using wasi::Preopen;
using wasi::VirtualFs;

std::string make_temp_dir(const std::string& tag) {
  auto dir = fs::temp_directory_path() /
             ("mpiwasm-wasi-" + tag + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// --- VirtualFs sandbox unit tests ------------------------------------------

TEST(VirtualFs, ResolvesInsidePreopen) {
  auto dir = make_temp_dir("resolve");
  VirtualFs vfs({{dir, "data", false}});
  auto p = vfs.resolve(VirtualFs::kFirstPreopenFd, "a/b.txt");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, dir + "/a/b.txt");
  fs::remove_all(dir);
}

TEST(VirtualFs, RejectsAbsolutePaths) {
  auto dir = make_temp_dir("abs");
  VirtualFs vfs({{dir, "data", false}});
  EXPECT_FALSE(vfs.resolve(VirtualFs::kFirstPreopenFd, "/etc/passwd").has_value());
  fs::remove_all(dir);
}

TEST(VirtualFs, RejectsDotDotEscape) {
  auto dir = make_temp_dir("escape");
  VirtualFs vfs({{dir, "data", false}});
  EXPECT_FALSE(vfs.resolve(VirtualFs::kFirstPreopenFd, "../secret").has_value());
  EXPECT_FALSE(
      vfs.resolve(VirtualFs::kFirstPreopenFd, "a/../../secret").has_value());
  // Interior .. that stays inside the root is fine.
  auto ok = vfs.resolve(VirtualFs::kFirstPreopenFd, "a/../b.txt");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, dir + "/b.txt");
  fs::remove_all(dir);
}

TEST(VirtualFs, PreopenNameHidesHostPath) {
  auto dir = make_temp_dir("hide");
  VirtualFs vfs({{dir, "results", false}});
  auto name = vfs.preopen_name(VirtualFs::kFirstPreopenFd);
  ASSERT_TRUE(name.has_value());
  // The module sees "/results", never the host path (paper §3.4: the full
  // absolute path would leak e.g. a username).
  EXPECT_EQ(*name, "/results");
  EXPECT_EQ(name->find(dir), std::string::npos);
  fs::remove_all(dir);
}

TEST(VirtualFs, ReadOnlyMountRefusesWrites) {
  auto dir = make_temp_dir("ro");
  {
    std::ofstream f(dir + "/x.txt");
    f << "content";
  }
  VirtualFs vfs({{dir, "data", true}});
  wasi::OpenFlags wr;
  wr.write = true;
  wr.create = true;
  auto res = vfs.open(VirtualFs::kFirstPreopenFd, "new.txt", wr);
  EXPECT_EQ(res.err, wasi::kNotcapable);
  wasi::OpenFlags rd;
  rd.read = true;
  auto res2 = vfs.open(VirtualFs::kFirstPreopenFd, "x.txt", rd);
  EXPECT_EQ(res2.err, wasi::kSuccess);
  // Write through a read-mounted file fd must fail too.
  u8 b = 0;
  EXPECT_EQ(vfs.write(res2.fd, &b, 1).err, wasi::kNotcapable);
  vfs.close(res2.fd);
  fs::remove_all(dir);
}

TEST(VirtualFs, FileIoRoundTrip) {
  auto dir = make_temp_dir("io");
  VirtualFs vfs({{dir, "data", false}});
  wasi::OpenFlags wr;
  wr.write = true;
  wr.create = true;
  auto res = vfs.open(VirtualFs::kFirstPreopenFd, "f.bin", wr);
  ASSERT_EQ(res.err, wasi::kSuccess);
  std::vector<u8> payload{1, 2, 3, 4, 5};
  EXPECT_EQ(vfs.write(res.fd, payload.data(), payload.size()).bytes, 5u);
  EXPECT_EQ(vfs.close(res.fd), wasi::kSuccess);

  wasi::OpenFlags rd;
  rd.read = true;
  auto res2 = vfs.open(VirtualFs::kFirstPreopenFd, "f.bin", rd);
  ASSERT_EQ(res2.err, wasi::kSuccess);
  std::vector<u8> got(5);
  EXPECT_EQ(vfs.read(res2.fd, got.data(), 5).bytes, 5u);
  EXPECT_EQ(got, payload);
  // Seek back and re-read a suffix.
  auto sk = vfs.seek(res2.fd, 3, 0);
  EXPECT_EQ(sk.err, wasi::kSuccess);
  EXPECT_EQ(sk.pos, 3u);
  EXPECT_EQ(vfs.read(res2.fd, got.data(), 2).bytes, 2u);
  EXPECT_EQ(got[0], 4);
  vfs.close(res2.fd);
  fs::remove_all(dir);
}

TEST(VirtualFs, BadFdErrors) {
  VirtualFs vfs({});
  u8 b = 0;
  EXPECT_EQ(vfs.read(99, &b, 1).err, wasi::kBadf);
  EXPECT_EQ(vfs.write(99, &b, 1).err, wasi::kBadf);
  EXPECT_EQ(vfs.close(99), wasi::kBadf);
  EXPECT_EQ(vfs.seek(99, 0, 0).err, wasi::kBadf);
  wasi::OpenFlags rd;
  rd.read = true;
  EXPECT_EQ(vfs.open(7, "x", rd).err, wasi::kBadf);
}

// --- End-to-end WASI through the runtime ------------------------------------

struct WasiModuleRun {
  std::string stdout_text;
  i32 exit_code = 0;
};

WasiModuleRun run_wasi_module(const std::vector<u8>& bytes,
                              wasi::WasiConfig cfg, EngineTier tier,
                              std::vector<Value> args = {}) {
  WasiModuleRun out;
  cfg.stdout_sink = [&](std::string_view s) { out.stdout_text += s; };
  wasi::WasiEnv env(std::move(cfg));
  rt::ImportTable imports;
  env.register_imports(imports);
  auto inst = [&] {
    EngineConfig ec;
    ec.tier = tier;
    auto cm = rt::compile({bytes.data(), bytes.size()}, ec);
    return std::make_shared<rt::Instance>(cm, imports);
  }();
  try {
    inst->invoke("_start", args);
  } catch (const rt::ProcExit& e) {
    out.exit_code = e.code();
  }
  return out;
}

TEST(WasiEndToEnd, FdWriteToStdout) {
  ModuleBuilder b;
  u32 fd_write = b.import_func(
      "wasi_snapshot_preview1", "fd_write",
      {{I32, I32, I32, I32}, {I32}});
  b.add_memory(1);
  b.export_memory();
  b.add_data_string(64, "wasm says hi\n");
  auto& f = b.begin_func({{}, {}}, "_start");
  f.i32_const(32);
  f.i32_const(64);
  f.mem_op(Op::kI32Store);
  f.i32_const(36);
  f.i32_const(13);
  f.mem_op(Op::kI32Store);
  f.i32_const(1);
  f.i32_const(32);
  f.i32_const(1);
  f.i32_const(48);
  f.call(fd_write);
  f.op(Op::kDrop);
  f.end();
  auto run = run_wasi_module(b.build(), {}, EngineTier::kOptimizing);
  EXPECT_EQ(run.stdout_text, "wasm says hi\n");
}

TEST(WasiEndToEnd, ArgsRoundTrip) {
  // Module reads argc via args_sizes_get and exits with it.
  ModuleBuilder b;
  u32 sizes = b.import_func("wasi_snapshot_preview1", "args_sizes_get",
                            {{I32, I32}, {I32}});
  u32 proc_exit =
      b.import_func("wasi_snapshot_preview1", "proc_exit", {{I32}, {}});
  b.add_memory(1);
  b.export_memory();
  auto& f = b.begin_func({{}, {}}, "_start");
  f.i32_const(16);
  f.i32_const(20);
  f.call(sizes);
  f.op(Op::kDrop);
  f.i32_const(16);
  f.mem_op(Op::kI32Load);
  f.call(proc_exit);
  f.end();
  wasi::WasiConfig cfg;
  cfg.args = {"prog", "alpha", "beta"};
  auto run = run_wasi_module(b.build(), cfg, EngineTier::kOptimizing);
  EXPECT_EQ(run.exit_code, 3);
}

TEST(WasiEndToEnd, ClockIsMonotonic) {
  ModuleBuilder b;
  u32 clock = b.import_func("wasi_snapshot_preview1", "clock_time_get",
                            {{I32, ValType::kI64, I32}, {I32}});
  b.add_memory(1);
  b.export_memory();
  auto& f = b.begin_func({{}, {I32}}, "probe");
  f.i32_const(1);  // monotonic
  f.i64_const(0);
  f.i32_const(16);
  f.call(clock);
  f.op(Op::kDrop);
  f.i32_const(16);
  f.mem_op(Op::kI64Load);
  f.i32_const(1);
  f.i64_const(0);
  f.i32_const(24);
  f.call(clock);
  f.op(Op::kDrop);
  f.i32_const(24);
  f.mem_op(Op::kI64Load);
  f.op(Op::kI64LeU);  // t0 <= t1
  f.end();
  auto bytes = b.build();
  wasi::WasiEnv env{wasi::WasiConfig{}};
  rt::ImportTable imports;
  env.register_imports(imports);
  EngineConfig ec;
  auto cm = rt::compile({bytes.data(), bytes.size()}, ec);
  rt::Instance inst(cm, imports);
  EXPECT_EQ(inst.invoke("probe").as_i32(), 1);
}

TEST(WasiEndToEnd, RandomGetIsDeterministicWithSeed) {
  ModuleBuilder b;
  u32 rnd = b.import_func("wasi_snapshot_preview1", "random_get",
                          {{I32, I32}, {I32}});
  b.add_memory(1);
  b.export_memory();
  auto& f = b.begin_func({{}, {ValType::kI64}}, "draw");
  f.i32_const(16);
  f.i32_const(8);
  f.call(rnd);
  f.op(Op::kDrop);
  f.i32_const(16);
  f.mem_op(Op::kI64Load);
  f.end();
  auto bytes = b.build();

  auto draw = [&](u64 seed) {
    wasi::WasiConfig cfg;
    cfg.random_seed = seed;
    wasi::WasiEnv env(std::move(cfg));
    rt::ImportTable imports;
    env.register_imports(imports);
    EngineConfig ec;
    auto cm = rt::compile({bytes.data(), bytes.size()}, ec);
    rt::Instance inst(cm, imports);
    return inst.invoke("draw").as_i64();
  };
  EXPECT_EQ(draw(42), draw(42));
  EXPECT_NE(draw(42), draw(43));
}

TEST(WasiEndToEnd, ProcExitCodePropagates) {
  ModuleBuilder b;
  u32 proc_exit =
      b.import_func("wasi_snapshot_preview1", "proc_exit", {{I32}, {}});
  auto& f = b.begin_func({{}, {}}, "_start");
  f.i32_const(42);
  f.call(proc_exit);
  f.end();
  auto run = run_wasi_module(b.build(), {}, EngineTier::kInterp);
  EXPECT_EQ(run.exit_code, 42);
}

}  // namespace
}  // namespace mpiwasm::test
