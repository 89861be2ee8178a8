// FileSystemCache tests: serialization round-trip, hit/miss behaviour,
// hash-keyed invalidation, corrupt-entry recovery (paper §3.3 semantics),
// concurrent writers, the lazy warm start (a mapped entry whose functions
// materialize on first call, with only the module shell validated), the
// lazy cold start (functions built from the module bytes on first call),
// and the parallel compile of a cache miss, whose output the cache stores.
#include "testlib.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <thread>

#include "runtime/cache.h"
#include "runtime/jit_x64.h"
#include "runtime/lowering.h"
#include "runtime/optimizer.h"
#include "toolchain/kernels.h"

namespace mpiwasm::test {
namespace {

namespace fs = std::filesystem;
using rt::FileSystemCache;

std::string fresh_cache_dir() {
  static int counter = 0;
  auto dir = fs::temp_directory_path() /
             ("mpiwasm-test-cache-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter++));
  fs::create_directories(dir);
  return dir.string();
}

// Whole-module entry files (format v8 on): magic, version and a u32 function
// count, then one (offset u32, length u32) slot per function, then the
// records.
constexpr size_t kEntryHeader = 12;
size_t offset_at(u32 i) { return kEntryHeader + 8 * size_t(i); }
size_t length_at(u32 i) { return offset_at(i) + 4; }

u32 get_u32(const std::vector<u8>& b, size_t at) {
  u32 v;
  std::memcpy(&v, b.data() + at, 4);
  return v;
}

void put_u32(std::vector<u8>& b, size_t at, u32 v) {
  std::memcpy(b.data() + at, &v, 4);
}

/// The one .rcache file in `dir` (empty path when there is none).
fs::path only_entry(const std::string& dir) {
  fs::path entry;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".rcache") entry = e.path();
  return entry;
}

std::vector<u8> read_file_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file_bytes(const fs::path& p, const std::vector<u8>& b) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()), std::streamsize(b.size()));
}

/// The tier tag an entry is keyed by: its name is "<hash hex>-<tag>.rcache".
std::string entry_tag(const fs::path& p) {
  return p.stem().string().substr(2 * 32 + 1);
}

const EngineTier kCompiledTiers[] = {EngineTier::kOptimizing,
                                     EngineTier::kJit};

/// Every function of compiled-tier module `cm`, built if no call has built
/// it, as the RModule the cache serializes.
rt::RModule compiled_regcode(const rt::CompiledModule& cm) {
  rt::RModule rm;
  for (u32 i = 0; i < cm.module.bodies.size(); ++i)
    rm.funcs.push_back(rt::compiled_body(cm, i));
  return rm;
}

std::vector<u8> make_module(i32 magic) {
  return build_single_func({{}, {I32}}, [&](auto& f) {
    f.i32_const(magic);
    f.end();
  }, 0);
}

TEST(Cache, SerializationRoundTrip) {
  auto bytes = make_module(1234);
  EngineConfig cfg;
  cfg.tier = EngineTier::kOptimizing;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  const rt::RModule compiled = compiled_regcode(*cm);
  auto blob = rt::serialize_regcode(compiled);
  auto rm = rt::deserialize_regcode({blob.data(), blob.size()});
  ASSERT_TRUE(rm.has_value());
  ASSERT_EQ(rm->funcs.size(), compiled.funcs.size());
  for (size_t i = 0; i < rm->funcs.size(); ++i) {
    const auto& a = rm->funcs[i];
    const auto& b = compiled.funcs[i];
    ASSERT_EQ(a.code.size(), b.code.size());
    for (size_t j = 0; j < a.code.size(); ++j) {
      EXPECT_EQ(u16(a.code[j].op), u16(b.code[j].op));
      EXPECT_EQ(a.code[j].imm, b.code[j].imm);
    }
  }
}

TEST(Cache, DeserializeRejectsGarbage) {
  std::vector<u8> garbage{1, 2, 3, 4, 5};
  EXPECT_FALSE(rt::deserialize_regcode({garbage.data(), garbage.size()}).has_value());
  std::vector<u8> empty;
  EXPECT_FALSE(rt::deserialize_regcode({empty.data(), empty.size()}).has_value());
}

TEST(Cache, EmptyModuleRoundTrips) {
  rt::RModule rm;  // module with zero defined functions
  auto blob = rt::serialize_regcode(rm);
  auto back = rt::deserialize_regcode({blob.data(), blob.size()});
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->funcs.empty());
}

TEST(Cache, EmptyPoolsRoundTrip) {
  // A function with code but empty v128/br pools keeps its exact shape.
  rt::RFunc f;
  f.num_params = 1;
  f.num_locals = 2;
  f.num_regs = 5;
  f.has_result = true;
  f.code.push_back({rt::ROp::kConst, 0, 0, 0, 0, 7});
  f.code.push_back({rt::ROp::kReturn, 0, 0, 0, 0, 0});
  ASSERT_TRUE(f.v128_pool.empty());
  ASSERT_TRUE(f.br_pool.empty());
  auto blob = rt::serialize_rfunc(f);
  auto back = rt::deserialize_rfunc({blob.data(), blob.size()});
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_params, f.num_params);
  EXPECT_EQ(back->num_locals, f.num_locals);
  EXPECT_EQ(back->num_regs, f.num_regs);
  EXPECT_EQ(back->has_result, f.has_result);
  ASSERT_EQ(back->code.size(), f.code.size());
  for (size_t i = 0; i < f.code.size(); ++i) {
    EXPECT_EQ(u16(back->code[i].op), u16(f.code[i].op));
    EXPECT_EQ(back->code[i].imm, f.code[i].imm);
  }
  EXPECT_TRUE(back->v128_pool.empty());
  EXPECT_TRUE(back->br_pool.empty());
}

TEST(Cache, TruncatedBlobIsRejected) {
  // A whole-module entry of several functions: header, offset table, then
  // one record per function (a per-function entry minus its 8-byte header)
  // back to back. Every case runs through the eager decoder and through
  // the mapped warm start.
  auto dir = fresh_cache_dir();
  auto bytes = toolchain::build_compile_stress_module(4);
  EngineConfig cfg;
  cfg.tier = EngineTier::kOptimizing;
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
  ASSERT_FALSE(cold->loaded_from_cache);
  const rt::RModule cold_rm = compiled_regcode(*cold);
  const auto& funcs = cold_rm.funcs;
  const u32 n = u32(funcs.size());
  ASSERT_EQ(n, 4u);
  const fs::path entry = only_entry(dir);
  const std::vector<u8> good = read_file_bytes(entry);
  ASSERT_EQ(good, rt::serialize_regcode(cold_rm));
  ASSERT_TRUE(rt::deserialize_regcode({good.data(), good.size()}));
  ASSERT_EQ(get_u32(good, 8), n);
  const size_t table_end = offset_at(n);
  // End offset of each record.
  std::vector<size_t> ends;
  size_t at = table_end;
  for (u32 i = 0; i < n; ++i) {
    ASSERT_EQ(get_u32(good, offset_at(i)), at);
    ASSERT_EQ(get_u32(good, length_at(i)),
              rt::serialize_rfunc(funcs[i]).size() - 8);
    ends.push_back(at += get_u32(good, length_at(i)));
  }
  ASSERT_EQ(ends.back(), good.size());

  // Moves record 1's end by `delta` bytes (drops its last byte, or appends
  // a zero byte) and shifts the table behind it, so only the record is
  // wrong.
  auto resize_record_1 = [&](std::vector<u8>& b, int delta) {
    if (delta < 0) b.erase(b.begin() + ptrdiff_t(ends[1]) - 1);
    else b.insert(b.begin() + ptrdiff_t(ends[1]), u8(0));
    put_u32(b, length_at(1), get_u32(b, length_at(1)) + u32(delta));
    for (u32 j = 2; j < n; ++j)
      put_u32(b, offset_at(j), get_u32(b, offset_at(j)) + u32(delta));
  };

  struct Case {
    std::string what;
    std::function<void(std::vector<u8>&)> mutate;
  };
  std::vector<Case> cases = {
      {"empty", [](auto& b) { b.clear(); }},
      {"cut inside the magic", [](auto& b) { b.resize(3); }},
      {"cut inside the version", [](auto& b) { b.resize(7); }},
      {"header without a count", [](auto& b) { b.resize(8); }},
      {"count with no table behind it",
       [](auto& b) { b.resize(kEntryHeader); }},
      {"table cut mid-way", [&](auto& b) { b.resize(offset_at(n / 2) + 3); }},
      {"table with no records behind it",
       [&](auto& b) { b.resize(table_end); }},
      {"cut inside the first record",
       [&](auto& b) { b.resize(table_end + 3); }},
      {"cut in half", [](auto& b) { b.resize(b.size() / 2); }},
      {"last byte missing", [](auto& b) { b.resize(b.size() - 1); }},
      // The entry must parse exactly.
      {"trailing junk", [](auto& b) { b.push_back(0); }},
      {"count one higher than the records",
       [&](auto& b) { put_u32(b, 8, n + 1); }},
      {"count one lower than the records",
       [&](auto& b) { put_u32(b, 8, n - 1); }},
      {"table claims more functions than fit",
       [](auto& b) { put_u32(b, 8, 0x10000000); }},
      {"a length one short",
       [](auto& b) { put_u32(b, length_at(1), get_u32(b, length_at(1)) - 1); }},
      {"a length one long",
       [](auto& b) { put_u32(b, length_at(1), get_u32(b, length_at(1)) + 1); }},
      {"a zero-length record",
       [&](auto& b) {
         // Drop record 1 and keep the rest of the table consistent.
         const u32 len = get_u32(b, length_at(1));
         b.erase(b.begin() + ptrdiff_t(ends[0]),
                 b.begin() + ptrdiff_t(ends[1]));
         put_u32(b, length_at(1), 0);
         for (u32 j = 2; j < n; ++j)
           put_u32(b, offset_at(j), get_u32(b, offset_at(j)) - len);
       }},
      {"overlapping offsets",
       [](auto& b) { put_u32(b, offset_at(2), get_u32(b, offset_at(1))); }},
      {"out-of-order offsets",
       [](auto& b) {
         std::swap_ranges(b.begin() + ptrdiff_t(offset_at(1)),
                          b.begin() + ptrdiff_t(offset_at(2)),
                          b.begin() + ptrdiff_t(offset_at(2)));
       }},
      // Sound tables around one bad record: caught when it materializes.
      {"a record one byte short", [&](auto& b) { resize_record_1(b, -1); }},
      {"a record one byte long", [&](auto& b) { resize_record_1(b, +1); }},
  };
  // A cut at a record boundary leaves whole records, but fewer than the
  // count.
  for (size_t i = 0; i + 1 < ends.size(); ++i)
    cases.push_back({"cut after record " + std::to_string(i),
                     [end = ends[i]](auto& b) { b.resize(end); }});

  const Value args[] = {Value::from_i32(100)};
  rt::Instance cold_inst(cold, rt::ImportTable{});
  FileSystemCache cache(dir);
  const std::string tag = entry_tag(entry);
  u32 sound_tables = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    std::vector<u8> blob = good;
    c.mutate(blob);
    EXPECT_FALSE(rt::deserialize_regcode({blob.data(), blob.size()}));
    write_file_bytes(entry, blob);
    if (!cache.map(cold->hash, tag, n)) {
      EXPECT_FALSE(fs::exists(entry)) << "a rejected entry is removed";
      continue;
    }
    ++sound_tables;
    auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
    ASSERT_TRUE(warm->loaded_from_cache);
    rt::Instance warm_inst(warm, rt::ImportTable{});
    for (u32 i = 0; i < n; ++i)
      EXPECT_EQ(warm_inst.invoke_index(i, args).as_f64(),
                cold_inst.invoke_index(i, args).as_f64())
          << "func " << i;
    EXPECT_EQ(rt::tierup_snapshot(*warm).cache_record_fallbacks, 1u);
    EXPECT_FALSE(fs::exists(entry)) << "an entry with a bad record is removed";
  }
  EXPECT_EQ(sound_tables, 2u);
  fs::remove_all(dir);
}

TEST(Cache, RecordHeaderThatDisagreesWithItsTypeIsRecompiled) {
  // The executors size, zero and fill a frame from a record's num_params,
  // num_locals, num_regs and has_result; num_params 127 on an (i32) -> i32
  // function used to underflow the zeroing length on the first call. Such
  // a record compiles from the module bytes instead. (Operand indices in
  // the RegCode itself are not checked against num_regs: that is a larger
  // job than these header fields.)
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    f.local_get(0);
    f.i32_const(3);
    f.op(Op::kI32Mul);
    f.end();
  });
  struct Case {
    const char* what;
    std::function<void(rt::RFunc&)> mutate;
  };
  const Case cases[] = {
      {"num_params 127", [](auto& f) { f.num_params = 127; }},
      {"num_params 0", [](auto& f) { f.num_params = 0; }},
      {"num_params 2", [](auto& f) { f.num_params = 2; }},
      {"no result", [](auto& f) { f.has_result = false; }},
      {"num_locals below num_params", [](auto& f) { f.num_locals = 0; }},
      {"num_regs below num_locals",
       [](auto& f) { f.num_regs = f.num_locals - 1; }},
  };
  for (EngineTier tier : kCompiledTiers) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(rt::tier_name(tier)) + ": " + c.what);
      auto dir = fresh_cache_dir();
      EngineConfig cfg;
      cfg.tier = tier;
      cfg.enable_cache = true;
      cfg.cache_dir = dir;
      auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
      ASSERT_FALSE(cold->loaded_from_cache);
      const fs::path entry = only_entry(dir);
      const std::vector<u8> good = read_file_bytes(entry);
      auto rm = rt::deserialize_regcode({good.data(), good.size()});
      ASSERT_TRUE(rm.has_value());
      c.mutate(rm->funcs[0]);
      write_file_bytes(entry, rt::serialize_regcode(*rm));

      auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
      EXPECT_TRUE(warm->loaded_from_cache);
      rt::Instance inst(warm, rt::ImportTable{});
      const Value args[] = {Value::from_i32(14)};
      EXPECT_EQ(inst.invoke("run", args).as_i32(), 42);
      EXPECT_EQ(rt::tierup_snapshot(*warm).cache_record_fallbacks, 1u);
      fs::remove_all(dir);
    }
  }
}

TEST(Cache, MalformedRecordBodyIsRecompiled) {
  // The executor and native code trust a body's control and pool
  // references: the goto loop has no pc bound, and pool and lane indices
  // are not checked per instruction. A record that breaks one of
  // rfunc_well_formed()'s rules is malformed, like an unknown opcode, and
  // compiles from the module bytes instead. So is a record whose
  // global.get/global.set, call or call_indirect immediate is out of range
  // for the module: those index the globals, the functions and the types
  // unchecked. Each case also drops the record's native blob, so that the
  // executor would run the body.
  ModuleBuilder b;
  b.add_memory(1);
  const u32 g = b.add_global(I32, /*mutable_=*/true);
  b.add_table(1);
  auto& id = b.begin_func({{I32}, {I32}});  // func 0, table[0]: identity
  id.local_get(0);
  id.end();
  b.add_elem(0, {0});
  auto& run = b.begin_func({{I32}, {I32}}, "run");  // func 1
  {
    run.local_get(0);  // x = call_indirect[0](call 0(global.get(g = x)))
    run.global_set(g);
    run.global_get(g);
    run.call(0);
    run.i32_const(0);
    run.call_indirect(b.add_type({{I32}, {I32}}));
    run.local_set(0);
    run.local_get(0);  // if (x > 100) x = 100  (a jump)
    run.i32_const(100);
    run.op(Op::kI32GtS);
    run.if_();
    run.i32_const(100);
    run.local_set(0);
    run.end();
    run.block();
    run.block();
    run.block();
    run.local_get(0);
    run.br_table({0, 1}, 2);
    run.end();
    // x == 0: lane 1 of shuffle(splat(x), pool vector)
    run.local_get(0);
    run.op(Op::kI32x4Splat);
    wasm::V128 v;
    for (u8 i = 0; i < 16; ++i) v.bytes[i] = u8(0x11 * (i + 1));
    run.v128_const(v);
    const u8 lanes[16] = {20, 21, 22, 23, 24, 25, 26, 27,
                          28, 29, 30, 31, 16, 17, 18, 19};
    run.i8x16_shuffle(lanes);
    run.lane_op(Op::kI32x4ExtractLane, 1);
    run.ret();
    run.end();
    run.i32_const(7);  // x == 1
    run.ret();
    run.end();
    run.i32_const(9);  // otherwise
    run.end();
  }
  const std::vector<u8> bytes = b.build();
  constexpr u32 kRun = 1;
  // Index of the first instruction of `f` that satisfies `pred`.
  auto find = [](const rt::RFunc& f, auto pred) {
    for (size_t i = 0; i < f.code.size(); ++i)
      if (pred(f.code[i].op)) return i;
    ADD_FAILURE() << "no such instruction in\n" << f.to_string();
    return size_t(0);
  };
  auto op_is = [](rt::ROp want) {
    return [want](rt::ROp op) { return op == want; };
  };
  struct Case {
    const char* what;
    std::function<void(rt::RFunc&)> mutate;
    bool module_level = false;  // still passes rfunc_well_formed()
  };
  const Case cases[] = {
      {"last op not a terminator",
       [](auto& f) { f.code.back().op = rt::ROp::kNop; }},
      {"branch past the end",
       [&](auto& f) { f.code[find(f, rt::rop_is_jump)].imm = f.code.size(); }},
      {"br_table list index out of range",
       [&](auto& f) {
         f.code[find(f, op_is(rt::ROp::kBrTable))].imm = f.br_pool.size();
       }},
      {"empty br_table list",
       [&](auto& f) {
         f.br_pool[f.code[find(f, op_is(rt::ROp::kBrTable))].imm].clear();
       }},
      {"br_table target past the end",
       [&](auto& f) {
         f.br_pool[f.code[find(f, op_is(rt::ROp::kBrTable))].imm].back() =
             u32(f.code.size());
       }},
      {"v128 const pool index out of range",
       [&](auto& f) {
         f.code[find(f, op_is(rt::ROp::kConstV128))].imm = f.v128_pool.size();
       }},
      {"shuffle pool index out of range",
       [&](auto& f) {
         const size_t i = find(f, op_is(rt::ROp::kI8x16Shuffle));
         f.code[i].imm = f.v128_pool.size();
       }},
      {"lane immediate out of range",
       [&](auto& f) {
         f.code[find(f, op_is(rt::ROp::kI32x4ExtractLane))].imm = 4;
       }},
      {"global.get index 2^20",
       [&](auto& f) { f.code[find(f, op_is(rt::ROp::kGlobalGet))].imm = 1 << 20; },
       true},
      {"global.set index past the globals",
       [&](auto& f) { f.code[find(f, op_is(rt::ROp::kGlobalSet))].imm = 1; },
       true},
      {"call index past the functions",
       [&](auto& f) { f.code[find(f, op_is(rt::ROp::kCall))].imm = 2; }, true},
      {"call_indirect type index past the types",
       [&](auto& f) {
         f.code[find(f, op_is(rt::ROp::kCallIndirect))].imm = 1;
       },
       true},
  };
  auto ref = instantiate(bytes, EngineTier::kInterp);
  const i32 inputs[] = {0, 1, 5, 200};
  for (EngineTier tier : kCompiledTiers) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(rt::tier_name(tier)) + ": " + c.what);
      auto dir = fresh_cache_dir();
      EngineConfig cfg;
      cfg.tier = tier;
      cfg.enable_cache = true;
      cfg.cache_dir = dir;
      auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
      ASSERT_FALSE(cold->loaded_from_cache);
      const fs::path entry = only_entry(dir);
      const std::vector<u8> good = read_file_bytes(entry);
      auto rm = rt::deserialize_regcode({good.data(), good.size()});
      ASSERT_TRUE(rm.has_value());
      rt::RFunc& f = rm->funcs[kRun];
      ASSERT_TRUE(rt::rfunc_well_formed(f));
      c.mutate(f);
      ASSERT_EQ(rt::rfunc_well_formed(f), c.module_level) << f.to_string();
      f.jit = nullptr;
      write_file_bytes(entry, rt::serialize_regcode(*rm));

      auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
      EXPECT_TRUE(warm->loaded_from_cache);
      rt::Instance inst(warm, rt::ImportTable{});
      for (i32 x : inputs) {
        const Value args[] = {Value::from_i32(x)};
        EXPECT_EQ(inst.invoke("run", args).as_i32(),
                  ref->invoke("run", args).as_i32())
            << "x=" << x;
      }
      EXPECT_EQ(rt::tierup_snapshot(*warm).cache_record_fallbacks, 1u);
      EXPECT_FALSE(fs::exists(entry)) << "the malformed entry is removed";
      fs::remove_all(dir);
    }
  }
}

TEST(Cache, HugeFunctionCountIsRejectedNotAllocated) {
  // A corrupt count must be a clean miss, not a multi-GB resize.
  rt::RModule empty_rm;
  auto blob = rt::serialize_regcode(empty_rm);
  ASSERT_EQ(blob.size(), kEntryHeader);
  put_u32(blob, 8, 0xFFFFFFFF);
  EXPECT_FALSE(rt::deserialize_regcode({blob.data(), blob.size()}).has_value());
}

TEST(Cache, ZeroByteEntryIsTreatedAsCorruptAndRemoved) {
  auto dir = fresh_cache_dir();
  auto bytes = make_module(21);
  EngineConfig cfg;
  cfg.tier = EngineTier::kOptimizing;
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  rt::compile({bytes.data(), bytes.size()}, cfg);

  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
  }
  auto again = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_FALSE(again->loaded_from_cache);
  size_t leftover = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".rcache" && fs::file_size(e.path()) == 0)
      ++leftover;
  EXPECT_EQ(leftover, 0u) << "zero-byte entries must be removed";
  fs::remove_all(dir);
}

TEST(Cache, WrongVersionIsRejected) {
  rt::RModule rm;
  auto blob = rt::serialize_regcode(rm);
  blob[4] ^= 0xFF;  // flip a version byte after the magic
  EXPECT_FALSE(rt::deserialize_regcode({blob.data(), blob.size()}).has_value());
}

TEST(Cache, StaleVersionEntriesAreRejectedCleanlyAndRecompiled) {
  // Every cache format bump renumbers the ROp space (v4: superinstructions;
  // v5: the full SIMD opcode space) or extends the record layout (v6: the
  // optional native-code section) or the entry layout (v8: the offset
  // table) or tightens the decoder (v9: signed LEB128 sign bits; a hit
  // skips body validation, so a v8 entry could serve bytes the decoder now
  // rejects) or both (v10: loop-versioning ops removed, and native blobs
  // carry their fault sites; v11: load+op, op+store and compare+select
  // forms removed). A pre-upgrade v3/v4/v5/v7/v8/v9/v10 entry must be
  // treated as a clean miss — no crash, no misdecoded code, just a silent
  // recompile that overwrites the stale entry.
  for (char stale_version :
       {char(3), char(4), char(5), char(7), char(8), char(9), char(10)}) {
    auto dir = fresh_cache_dir();
    auto bytes = make_module(77);
    EngineConfig cfg;
    cfg.tier = EngineTier::kOptimizing;
    cfg.enable_cache = true;
    cfg.cache_dir = dir;

    // Seed the cache, then rewrite the entry with the stale header.
    auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
    ASSERT_FALSE(cm->loaded_from_cache);
    fs::path entry;
    for (const auto& e : fs::directory_iterator(dir))
      if (e.path().extension() == ".rcache") entry = e.path();
    ASSERT_FALSE(entry.empty());
    {
      std::fstream io(entry, std::ios::binary | std::ios::in | std::ios::out);
      io.seekp(4);  // version field follows the 4-byte magic, little-endian
      const char ver[4] = {stale_version, 0, 0, 0};
      io.write(ver, 4);
    }

    auto cm2 = rt::compile({bytes.data(), bytes.size()}, cfg);
    EXPECT_FALSE(cm2->loaded_from_cache);  // stale entry rejected, recompiled
    EXPECT_EQ(rt::tierup_snapshot(*cm2).funcs_regcode, 1u);
    // The recompile stored a fresh current-version entry; a third compile
    // hits it.
    auto cm3 = rt::compile({bytes.data(), bytes.size()}, cfg);
    EXPECT_TRUE(cm3->loaded_from_cache);
    rt::ImportTable imports;
    rt::Instance inst(cm3, imports);
    EXPECT_EQ(inst.invoke("run").as_i32(), 77);
    fs::remove_all(dir);
  }
}

TEST(Cache, SecondCompileHitsCache) {
  auto dir = fresh_cache_dir();
  auto bytes = make_module(42);
  EngineConfig cfg;
  cfg.tier = EngineTier::kOptimizing;
  cfg.enable_cache = true;
  cfg.cache_dir = dir;

  auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_FALSE(cold->loaded_from_cache);
  auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_TRUE(warm->loaded_from_cache);

  // Cached module still executes correctly.
  rt::ImportTable imports;
  rt::Instance inst(warm, imports);
  EXPECT_EQ(inst.invoke("run").as_i32(), 42);
  fs::remove_all(dir);
}

TEST(Cache, DifferentModulesGetDifferentEntries) {
  auto dir = fresh_cache_dir();
  EngineConfig cfg;
  cfg.tier = EngineTier::kOptimizing;
  cfg.enable_cache = true;
  cfg.cache_dir = dir;

  auto a = make_module(1);
  auto b = make_module(2);
  auto ca = rt::compile({a.data(), a.size()}, cfg);
  auto cb = rt::compile({b.data(), b.size()}, cfg);
  EXPECT_FALSE(cb->loaded_from_cache) << "different bytes must not hit";
  EXPECT_NE(ca->hash.hex(), cb->hash.hex());
  fs::remove_all(dir);
}

TEST(Cache, TiersAreCachedSeparately) {
  auto dir = fresh_cache_dir();
  auto bytes = make_module(7);
  EngineConfig cfg;
  cfg.enable_cache = true;
  cfg.cache_dir = dir;

  cfg.tier = EngineTier::kOptimizing;
  rt::compile({bytes.data(), bytes.size()}, cfg);
  cfg.tier = EngineTier::kJit;
  auto jit = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_FALSE(jit->loaded_from_cache)
      << "optimizing cache entry must not satisfy jit tier";
  fs::remove_all(dir);
}

TEST(Cache, CorruptEntryIsIgnoredAndRemoved) {
  auto dir = fresh_cache_dir();
  auto bytes = make_module(9);
  EngineConfig cfg;
  cfg.tier = EngineTier::kOptimizing;
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  rt::compile({bytes.data(), bytes.size()}, cfg);

  // Corrupt every cache entry.
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << "corruption";
  }
  auto again = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_FALSE(again->loaded_from_cache);
  rt::ImportTable imports;
  rt::Instance inst(again, imports);
  EXPECT_EQ(inst.invoke("run").as_i32(), 9);
  fs::remove_all(dir);
}

TEST(Cache, ClearRemovesEntries) {
  auto dir = fresh_cache_dir();
  auto bytes = make_module(11);
  EngineConfig cfg;
  cfg.tier = EngineTier::kOptimizing;
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  rt::compile({bytes.data(), bytes.size()}, cfg);
  FileSystemCache cache(dir);
  cache.clear();
  auto again = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_FALSE(again->loaded_from_cache);
  fs::remove_all(dir);
}

TEST(Cache, InterpTierSkipsCache) {
  auto dir = fresh_cache_dir();
  auto bytes = make_module(5);
  EngineConfig cfg;
  cfg.tier = EngineTier::kInterp;
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_FALSE(cm->loaded_from_cache);
  // No .rcache files written for the interpreter tier.
  size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".rcache") ++entries;
  EXPECT_EQ(entries, 0u);
  fs::remove_all(dir);
}

TEST(CacheDir, TrustsOnlyADirectoryThisUserOwns) {
  struct stat st {};
  st.st_uid = 1000;
  st.st_mode = S_IFDIR | 0700;
  EXPECT_TRUE(rt::cache_dir_trusted(st, 1000));
  // Mode bits are not checked: umask 002 makes a group-writable directory.
  st.st_mode = S_IFDIR | 0775;
  EXPECT_TRUE(rt::cache_dir_trusted(st, 1000));
  st.st_mode = S_IFDIR | 0777;
  EXPECT_TRUE(rt::cache_dir_trusted(st, 1000));
  // Another user's directory, whatever its mode, is not trusted.
  EXPECT_FALSE(rt::cache_dir_trusted(st, 1001));
  st.st_mode = S_IFDIR | 0700;
  EXPECT_FALSE(rt::cache_dir_trusted(st, 0));
  // Neither is anything but a directory.
  st.st_mode = S_IFREG | 0700;
  EXPECT_FALSE(rt::cache_dir_trusted(st, 1000));
  st.st_mode = S_IFLNK | 0777;
  EXPECT_FALSE(rt::cache_dir_trusted(st, 1000));
}

TEST(CacheDir, AMissingDirectoryIsCreatedPrivate) {
  const fs::path dir = fs::path(fresh_cache_dir()) / "sub";
  FileSystemCache cache(dir.string());
  EXPECT_TRUE(cache.enabled());
  struct stat st {};
  ASSERT_EQ(::stat(dir.c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 0777, 0700u);
  EXPECT_EQ(st.st_uid, ::geteuid());
  EXPECT_EQ(rt::autotune_table_path(dir.string()),
            (dir / "coll-tune.table").string());
  fs::remove_all(dir.parent_path());
}

TEST(CacheDir, AnotherUsersDirectoryTurnsTheCacheOff) {
  // Only root can give a directory to another user.
  if (::geteuid() != 0) GTEST_SKIP() << "needs root to chown";
  const std::string dir = fresh_cache_dir();
  ASSERT_EQ(::chown(dir.c_str(), 4242, 4242), 0) << std::strerror(errno);
  ::chmod(dir.c_str(), 0777);
  FileSystemCache cache(dir);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(rt::autotune_table_path(dir), "");

  auto bytes = make_module(7);
  EngineConfig cfg;
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
  auto again = rt::compile({bytes.data(), bytes.size()}, cfg);
  EXPECT_FALSE(again->loaded_from_cache);
  EXPECT_TRUE(only_entry(dir).empty()) << "an entry was written";
  rt::ImportTable imports;
  rt::Instance inst(again, imports);
  EXPECT_EQ(inst.invoke("run").as_i32(), 7);
  fs::remove_all(dir);
}

TEST(Cache, ConcurrentWritersOfOneEntryLeaveOneLoadableEntry) {
  auto dir = fresh_cache_dir();
  // Large enough that a store takes a while, so writers overlap.
  auto bytes = toolchain::build_compile_stress_module(64);
  EngineConfig cfg;
  cfg.tier = EngineTier::kOptimizing;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  const rt::RModule rm = compiled_regcode(*cm);
  const std::string tag = "optimizing";
  FileSystemCache cache(dir);
  cache.store(cm->hash, tag, rm);
  // Once an entry exists a reader must always find a complete one: writers
  // publish by rename, never by rewriting the file in place.
  std::atomic<bool> writing{true};
  std::atomic<u32> misses{0};
  const u32 n = u32(rm.funcs.size());
  std::thread reader([&] {
    while (writing.load())
      if (!cache.map(cm->hash, tag, n)) misses.fetch_add(1);
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t)
    writers.emplace_back([&] {
      for (int k = 0; k < 200; ++k) cache.store(cm->hash, tag, rm);
    });
  for (auto& w : writers) w.join();
  writing.store(false);
  reader.join();
  EXPECT_EQ(misses.load(), 0u);
  size_t entries = 0, temps = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".rcache") ++entries;
    if (e.path().filename().string().find(".tmp") != std::string::npos)
      ++temps;
  }
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(temps, 0u) << "every writer renames or removes its temp file";
  auto mapped = cache.map(cm->hash, tag, n);
  ASSERT_NE(mapped, nullptr);
  for (u32 i = 0; i < n; ++i) {
    auto f = mapped->decode(i);
    ASSERT_TRUE(f.has_value()) << "func " << i;
    EXPECT_EQ(rt::serialize_rfunc(*f), rt::serialize_rfunc(rm.funcs[i]));
  }
  fs::remove_all(dir);
}

// A cache miss compiles every function up front, in parallel; a module of
// this size spans many compile chunks, so helper threads take part whenever
// the host has more than one CPU.
constexpr u32 kParallelFuncs = 1024;

const std::vector<u8>& parallel_stress_module() {
  static const std::vector<u8> bytes =
      toolchain::build_compile_stress_module(kParallelFuncs);
  return bytes;
}

EngineConfig stress_cache_config(const std::string& dir) {
  EngineConfig cfg;
  cfg.tier = EngineTier::kJit;
  cfg.enable_cache = true;
  cfg.cache_dir = dir;
  return cfg;
}

/// The stress module compiled at `tier` with the cache on in a fresh
/// directory: a miss, which builds every function before compile()
/// returns.
std::shared_ptr<const rt::CompiledModule> compile_stress(EngineTier tier) {
  const auto& bytes = parallel_stress_module();
  const std::string dir = fresh_cache_dir();
  EngineConfig cfg = stress_cache_config(dir);
  cfg.tier = tier;
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  fs::remove_all(dir);
  return cm;
}

TEST(ParallelCompile, EveryStaticTierCountsItsFunctions) {
  // kInterp counts every defined function as predecoded. At the compiled
  // tiers the census counts the functions built so far: none after a cold
  // compile with the cache off or a warm load, all after a miss, which
  // builds every function for the entry it stores.
  constexpr u32 kFuncs = 8;
  const std::vector<u8> bytes = toolchain::build_compile_stress_module(kFuncs);
  struct Row {
    EngineTier tier;
    bool cache, warm;
    u64 predecoded, regcode;
  };
  const Row rows[] = {{EngineTier::kInterp, false, false, kFuncs, 0},
                      {EngineTier::kOptimizing, false, false, 0, 0},
                      {EngineTier::kJit, false, false, 0, 0},
                      {EngineTier::kOptimizing, true, false, 0, kFuncs},
                      {EngineTier::kJit, true, false, 0, kFuncs},
                      {EngineTier::kOptimizing, true, true, 0, 0},
                      {EngineTier::kJit, true, true, 0, 0}};
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message()
                 << rt::tier_name(row.tier)
                 << (row.warm ? " warm" : row.cache ? " miss" : " cold"));
    auto dir = fresh_cache_dir();
    EngineConfig cfg;
    cfg.tier = row.tier;
    cfg.enable_cache = row.cache;
    cfg.cache_dir = dir;
    if (row.warm) (void)rt::compile({bytes.data(), bytes.size()}, cfg);
    auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
    ASSERT_EQ(cm->loaded_from_cache, row.warm);
    rt::TierUpSnapshot s = rt::tierup_snapshot(*cm);
    EXPECT_EQ(s.funcs_total, kFuncs);
    EXPECT_EQ(s.funcs_predecoded, row.predecoded);
    EXPECT_EQ(s.funcs_regcode, row.regcode);
    if (row.tier != EngineTier::kInterp) {
      materialize_all(*cm);
      s = rt::tierup_snapshot(*cm);
      EXPECT_EQ(s.funcs_total, kFuncs);
      EXPECT_EQ(s.funcs_regcode, kFuncs);
      EXPECT_EQ(s.lazy_compiled_funcs, kFuncs - row.regcode);
    }
    fs::remove_all(dir);
  }
}

TEST(ParallelCompile, EachFunctionMatchesTheSerialPipeline) {
  for (EngineTier tier : kCompiledTiers) {
    SCOPED_TRACE(rt::tier_name(tier));
    auto cm = compile_stress(tier);
    ASSERT_EQ(rt::tierup_snapshot(*cm).funcs_regcode, kParallelFuncs);
    for (u32 i = 0; i < kParallelFuncs; ++i) {
      rt::RFunc ref = rt::lower_function(cm->module, i);
      rt::optimize_function(ref);
      if (tier == EngineTier::kJit) ref.jit = rt::jit_compile_function(ref);
      // The serialized record covers every non-derived field, native blob
      // included.
      ASSERT_EQ(rt::serialize_rfunc(rt::compiled_body(*cm, i)),
                rt::serialize_rfunc(ref))
          << "func " << i;
    }
  }
}

TEST(ParallelCompile, JitCompilesEveryFunctionNatively) {
  auto cm = compile_stress(EngineTier::kJit);
  const rt::TierUpSnapshot s = rt::tierup_snapshot(*cm);
  EXPECT_EQ(s.jit_funcs, kParallelFuncs);
  EXPECT_EQ(s.jit_fallback_funcs, 0u);
}

TEST(ParallelCompile, RepeatedCompilesAreByteIdentical) {
  for (EngineTier tier : kCompiledTiers) {
    SCOPED_TRACE(rt::tier_name(tier));
    auto a = compile_stress(tier);
    auto b = compile_stress(tier);
    EXPECT_EQ(rt::serialize_regcode(compiled_regcode(*a)),
              rt::serialize_regcode(compiled_regcode(*b)));
    if (tier == EngineTier::kJit) {
      ASSERT_NE(a->jit_arena, nullptr);
      ASSERT_NE(b->jit_arena, nullptr);
      EXPECT_EQ(a->jit_arena->code_bytes(), b->jit_arena->code_bytes());
    }
  }
}

TEST(ParallelCompile, WarmLoadMatchesTheColdCompile) {
  // A warm load builds no function; materializing them all installs the
  // same code as the parallel cold compile that stored the entry.
  auto dir = fresh_cache_dir();
  const auto& bytes = parallel_stress_module();
  const EngineConfig cfg = stress_cache_config(dir);
  auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
  ASSERT_FALSE(cold->loaded_from_cache);
  auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
  ASSERT_TRUE(warm->loaded_from_cache);
  EXPECT_EQ(rt::tierup_snapshot(*warm).jit_funcs, 0u);
  for (u32 i = 0; i < kParallelFuncs; ++i)
    ASSERT_EQ(rt::serialize_rfunc(rt::compiled_body(*warm, i)),
              rt::serialize_rfunc(rt::compiled_body(*cold, i)))
        << "func " << i;
  const rt::TierUpSnapshot s = rt::tierup_snapshot(*warm);
  EXPECT_EQ(s.jit_funcs, kParallelFuncs);
  EXPECT_EQ(s.jit_fallback_funcs, 0u);
  EXPECT_EQ(s.cache_materialized_funcs, kParallelFuncs);
  EXPECT_EQ(s.cache_record_fallbacks, 0u);
  ASSERT_NE(cold->jit_arena, nullptr);
  ASSERT_NE(warm->jit_arena, nullptr);
  EXPECT_EQ(warm->jit_arena->code_bytes(), cold->jit_arena->code_bytes());
  const Value args[] = {Value::from_i32(1000)};
  rt::Instance cold_inst(cold, rt::ImportTable{});
  rt::Instance warm_inst(warm, rt::ImportTable{});
  EXPECT_EQ(warm_inst.invoke("run", args).as_f64(),
            cold_inst.invoke("run", args).as_f64());
  fs::remove_all(dir);
}

/// Four threads, each with its own instance of `lazy`, first-call the same
/// 64 functions at once. Each gets `eager`'s result, and each function is
/// built and installed exactly once.
void expect_concurrent_first_calls_build_once(
    const std::shared_ptr<const rt::CompiledModule>& eager,
    const std::shared_ptr<const rt::CompiledModule>& lazy) {
  constexpr u32 kFuncs = 64;
  constexpr int kThreads = 4;
  const Value args[] = {Value::from_i32(100)};
  std::vector<f64> expected(kFuncs);
  {
    rt::Instance inst(eager, rt::ImportTable{});
    for (u32 i = 0; i < kFuncs; ++i)
      expected[i] = inst.invoke_index(i, args).as_f64();
  }
  std::vector<std::vector<f64>> got(kThreads, std::vector<f64>(kFuncs));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      rt::Instance inst(lazy, rt::ImportTable{});
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (u32 i = 0; i < kFuncs; ++i)
        got[t][i] = inst.invoke_index(i, args).as_f64();
    });
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t)
    for (u32 i = 0; i < kFuncs; ++i)
      EXPECT_EQ(got[t][i], expected[i]) << "thread " << t << " func " << i;
  rt::TierUpSnapshot s = rt::tierup_snapshot(*lazy);
  EXPECT_EQ(s.lazy_compiled_funcs, kFuncs);
  EXPECT_EQ(s.funcs_regcode, kFuncs);
  EXPECT_EQ(s.jit_funcs, kFuncs);
  materialize_all(*lazy);
  s = rt::tierup_snapshot(*lazy);
  EXPECT_EQ(s.lazy_compiled_funcs, kParallelFuncs);
  EXPECT_EQ(s.jit_code_bytes, rt::tierup_snapshot(*eager).jit_code_bytes);
}

TEST(ParallelCompile, ConcurrentFirstCallsMaterializeEachFunctionOnce) {
  // The functions of a warm-loaded module are built from the mapped
  // entry's records.
  auto dir = fresh_cache_dir();
  const auto& bytes = parallel_stress_module();
  const EngineConfig cfg = stress_cache_config(dir);
  auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
  auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
  ASSERT_TRUE(warm->loaded_from_cache);
  expect_concurrent_first_calls_build_once(cold, warm);
  const rt::TierUpSnapshot s = rt::tierup_snapshot(*warm);
  EXPECT_EQ(s.cache_materialized_funcs, kParallelFuncs);
  EXPECT_EQ(s.cache_record_fallbacks, 0u);
  fs::remove_all(dir);
}

TEST(LazyCompile, ConcurrentFirstCallsMaterializeEachFunctionOnce) {
  // The functions of a cold module compiled with the cache off are built
  // from the module bytes.
  const auto& bytes = parallel_stress_module();
  EngineConfig cfg;
  cfg.tier = EngineTier::kJit;
  auto lazy = rt::compile({bytes.data(), bytes.size()}, cfg);
  ASSERT_EQ(rt::tierup_snapshot(*lazy).funcs_regcode, 0u);
  expect_concurrent_first_calls_build_once(compile_stress(EngineTier::kJit),
                                           lazy);
  EXPECT_EQ(rt::tierup_snapshot(*lazy).cache_materialized_funcs, 0u);
}

TEST(ParallelCompile, MutatedEntriesAreRejectedOrDecodeCleanly) {
  // Single-byte flips of the 1024-function entry, anywhere and in its
  // header and offset table in particular, are a clean miss or a clean
  // decode; every strict prefix of it is a miss. Flipped entries also go
  // through the mapped warm start: an entry that maps has every function
  // materialized (decoded or recompiled, and installed), but none is run,
  // since a flip that decodes may change what the code computes.
  auto dir = fresh_cache_dir();
  const auto& bytes = parallel_stress_module();
  const EngineConfig cfg = stress_cache_config(dir);
  auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
  const fs::path entry = only_entry(dir);
  std::vector<u8> blob = read_file_bytes(entry);
  ASSERT_EQ(blob, rt::serialize_regcode(compiled_regcode(*cold)));
  FileSystemCache cache(dir);
  const std::string tag = entry_tag(entry);
  std::mt19937_64 rng(19);
  // A flip inside a record leaves the header, the table and every other
  // record as in the cold entry, which decodes; so decoding the whole
  // flipped entry amounts to decoding that record alone, wrapped in the
  // per-function entry header (the same magic and version).
  ASSERT_TRUE(rt::deserialize_regcode({blob.data(), blob.size()}));
  const size_t records_at = offset_at(kParallelFuncs);
  std::vector<size_t> record_end(kParallelFuncs);
  for (u32 i = 0; i < kParallelFuncs; ++i)
    record_end[i] = get_u32(blob, offset_at(i)) + get_u32(blob, length_at(i));
  auto decode_flipped = [&](size_t at) {
    if (at < records_at) {
      (void)rt::deserialize_regcode({blob.data(), blob.size()});
      return;
    }
    const u32 i = u32(std::upper_bound(record_end.begin(), record_end.end(),
                                       at) -
                      record_end.begin());
    const size_t begin = get_u32(blob, offset_at(i));
    std::vector<u8> one(blob.begin(), blob.begin() + 8);
    one.insert(one.end(), blob.begin() + std::ptrdiff_t(begin),
               blob.begin() + std::ptrdiff_t(record_end[i]));
    (void)rt::deserialize_rfunc({one.data(), one.size()});
  };
  // Flips the byte at `at`; returns whether the flipped entry mapped.
  auto flip = [&](size_t at, bool through_map) {
    const u8 mask = u8(1 + rng() % 255);
    blob[at] ^= mask;
    decode_flipped(at);
    bool mapped = false;
    if (through_map) {
      write_file_bytes(entry, blob);
      mapped = cache.map(cold->hash, tag, kParallelFuncs) != nullptr;
      if (mapped) {
        auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
        EXPECT_TRUE(warm->loaded_from_cache);
        for (u32 i = 0; i < kParallelFuncs; ++i)
          (void)rt::compiled_body(*warm, i);
      }
    }
    blob[at] ^= mask;
    return mapped;
  };
  u32 mapped = 0;
  for (int k = 0; k < 2000; ++k)
    if (flip(rng() % blob.size(), k % 20 == 0)) ++mapped;
  EXPECT_GT(mapped, 0u) << "flips inside records map and materialize";
  u32 table_flips_mapped = 0;
  for (int k = 0; k < 200; ++k)
    if (flip(rng() % offset_at(kParallelFuncs), true)) ++table_flips_mapped;
  EXPECT_EQ(table_flips_mapped, 0u)
      << "every flip in the header or the table is rejected";
  u32 truncations_rejected = 0;
  for (int k = 0; k < 500; ++k)
    if (!rt::deserialize_regcode({blob.data(), rng() % blob.size()}))
      ++truncations_rejected;
  EXPECT_EQ(truncations_rejected, 500u) << "every truncation is rejected";
  fs::remove_all(dir);
}

TEST(ParallelCompile, EveryTierComputesTheSameResult) {
  const Value args[] = {Value::from_i32(1000)};
  std::optional<f64> expected;
  for (EngineTier tier : all_tiers()) {
    SCOPED_TRACE(rt::tier_name(tier));
    rt::Instance inst(compile_stress(tier), rt::ImportTable{});
    const f64 got = inst.invoke("run", args).as_f64();
    if (!expected) expected = got;
    EXPECT_EQ(got, *expected);
  }
}

// A warm start (a hit at a compiled tier) validates the module shell only;
// a cold compile, a miss and kInterp validate every body.

TEST(WarmStart, OnlyAHitSkipsBodyValidation) {
  constexpr u32 kFuncs = 8;
  const std::vector<u8> bytes = toolchain::build_compile_stress_module(kFuncs);
  struct Row {
    EngineTier tier;
    bool cache;
  };
  const Row rows[] = {{EngineTier::kInterp, false},
                      {EngineTier::kInterp, true},
                      {EngineTier::kOptimizing, false},
                      {EngineTier::kJit, false}};
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message() << rt::tier_name(row.tier)
                                      << (row.cache ? " cache" : ""));
    auto dir = fresh_cache_dir();
    EngineConfig cfg;
    cfg.tier = row.tier;
    cfg.enable_cache = row.cache;
    cfg.cache_dir = dir;
    for (int rep = 0; rep < 2; ++rep) {
      auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
      EXPECT_FALSE(cm->loaded_from_cache);
      EXPECT_EQ(cm->funcs_validated, kFuncs);
    }
    fs::remove_all(dir);
  }
  for (EngineTier tier : kCompiledTiers) {
    SCOPED_TRACE(rt::tier_name(tier));
    auto dir = fresh_cache_dir();
    EngineConfig cfg;
    cfg.tier = tier;
    cfg.enable_cache = true;
    cfg.cache_dir = dir;
    auto miss = rt::compile({bytes.data(), bytes.size()}, cfg);
    ASSERT_FALSE(miss->loaded_from_cache);
    EXPECT_EQ(miss->funcs_validated, kFuncs);
    auto hit = rt::compile({bytes.data(), bytes.size()}, cfg);
    ASSERT_TRUE(hit->loaded_from_cache);
    EXPECT_EQ(hit->funcs_validated, 0u);
    EXPECT_GE(hit->decode_ms, 0);
    EXPECT_GE(hit->validate_ms, 0);
    fs::remove_all(dir);
  }
}

TEST(WarmStart, EveryFunctionMatchesTheColdCompile) {
  // A 64-copy stress module, warm-started at each compiled tier with every
  // function called.
  constexpr u32 kFuncs = 64;
  const std::vector<u8> bytes = toolchain::build_compile_stress_module(kFuncs);
  const Value args[] = {Value::from_i32(300)};
  for (EngineTier tier : kCompiledTiers) {
    SCOPED_TRACE(rt::tier_name(tier));
    auto dir = fresh_cache_dir();
    EngineConfig cfg = stress_cache_config(dir);
    cfg.tier = tier;
    auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
    ASSERT_FALSE(cold->loaded_from_cache);
    auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
    ASSERT_TRUE(warm->loaded_from_cache);
    EXPECT_EQ(warm->funcs_validated, 0u);
    rt::Instance cold_inst(cold, rt::ImportTable{});
    rt::Instance warm_inst(warm, rt::ImportTable{});
    for (u32 i = 0; i < kFuncs; ++i)
      EXPECT_EQ(warm_inst.invoke_index(i, args).as_f64(),
                cold_inst.invoke_index(i, args).as_f64())
          << "func " << i;
    const rt::TierUpSnapshot s = rt::tierup_snapshot(*warm);
    EXPECT_EQ(s.cache_materialized_funcs, kFuncs);
    EXPECT_EQ(s.cache_record_fallbacks, 0u);
    fs::remove_all(dir);
  }
}

// `n` functions of ~250 body bytes each; the bodies at `bad_add` (i32 + i64)
// and `bad_underflow` (i32.add on an empty stack) are invalid.
std::vector<u8> build_many_funcs(u32 n, u32 bad_add, u32 bad_underflow) {
  ModuleBuilder b;
  for (u32 i = 0; i < n; ++i) {
    auto& f = b.begin_func({{I32, I64}, {I32}}, i == 0 ? "run" : "");
    for (int k = 0; k < 40; ++k) {
      f.i32_const(1 << 20);
      f.op(Op::kDrop);
    }
    if (i == bad_underflow) f.op(Op::kI32Add);
    f.local_get(0);
    if (i == bad_add) {
      f.local_get(1);
      f.op(Op::kI32Add);
    }
    f.end();
  }
  return b.build();
}

/// The CompileError message of compiling `bytes` under `cfg` ("" if none).
std::string compile_error(const std::vector<u8>& bytes, const EngineConfig& cfg) {
  try {
    (void)rt::compile({bytes.data(), bytes.size()}, cfg);
  } catch (const rt::CompileError& e) {
    return e.what();
  }
  return "";
}

TEST(WarmStart, AMissReportsTheColdValidationError) {
  // Big enough to validate in parallel chunks; the lower of func[3] and
  // func[900] is reported, as on a cold compile.
  const std::vector<u8> bytes = build_many_funcs(1024, 900, 3);
  EngineConfig cold;
  cold.tier = EngineTier::kJit;
  const std::string expected = compile_error(bytes, cold);
  EXPECT_EQ(expected.rfind("validation error: func[3]: ", 0), 0u) << expected;
  for (EngineTier tier : kCompiledTiers) {
    SCOPED_TRACE(rt::tier_name(tier));
    auto dir = fresh_cache_dir();
    EngineConfig cfg = stress_cache_config(dir);
    cfg.tier = tier;
    for (int rep = 0; rep < 3; ++rep)
      EXPECT_EQ(compile_error(bytes, cfg), expected);
    EXPECT_TRUE(only_entry(dir).empty()) << "nothing is stored";
    fs::remove_all(dir);
  }
}

TEST(WarmStart, ACorruptRecordIsRecompiledFromTheModule) {
  constexpr u32 kFuncs = 8;
  const std::vector<u8> bytes = toolchain::build_compile_stress_module(kFuncs);
  const Value args[] = {Value::from_i32(50)};
  for (EngineTier tier : kCompiledTiers) {
    SCOPED_TRACE(rt::tier_name(tier));
    auto dir = fresh_cache_dir();
    EngineConfig cfg = stress_cache_config(dir);
    cfg.tier = tier;
    auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
    const fs::path entry = only_entry(dir);
    const std::vector<u8> good = read_file_bytes(entry);
    auto rm = rt::deserialize_regcode({good.data(), good.size()});
    ASSERT_TRUE(rm.has_value());
    rm->funcs[5].num_params = 127;
    write_file_bytes(entry, rt::serialize_regcode(*rm));

    auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
    ASSERT_TRUE(warm->loaded_from_cache);
    EXPECT_EQ(warm->funcs_validated, 0u);
    rt::Instance cold_inst(cold, rt::ImportTable{});
    rt::Instance warm_inst(warm, rt::ImportTable{});
    for (u32 i = 0; i < kFuncs; ++i)
      EXPECT_EQ(warm_inst.invoke_index(i, args).as_f64(),
                cold_inst.invoke_index(i, args).as_f64())
          << "func " << i;
    EXPECT_EQ(rt::tierup_snapshot(*warm).cache_record_fallbacks, 1u);
    fs::remove_all(dir);
  }
}

TEST(WarmStart, AFallbackValidatesTheBodyItCompiles) {
  // An entry planted for a module whose func[2] is invalid: the shell
  // passes, so the load is a hit, and the functions with sound records
  // run. Func[2]'s record is corrupt, so it would be compiled from the
  // module bytes; its body is validated first and fails as on a cold
  // compile instead of reaching lowering.
  const std::vector<u8> valid = build_many_funcs(4, ~0u, ~0u);
  const std::vector<u8> invalid = build_many_funcs(4, 2, ~0u);
  for (EngineTier tier : kCompiledTiers) {
    SCOPED_TRACE(rt::tier_name(tier));
    auto dir = fresh_cache_dir();
    EngineConfig cfg = stress_cache_config(dir);
    cfg.tier = tier;
    (void)rt::compile({valid.data(), valid.size()}, cfg);
    const fs::path entry = only_entry(dir);
    const std::vector<u8> good = read_file_bytes(entry);
    auto rm = rt::deserialize_regcode({good.data(), good.size()});
    ASSERT_TRUE(rm.has_value());
    rm->funcs[2].num_params = 127;
    fs::remove(entry);
    write_file_bytes(fs::path(dir) / (sha256({invalid.data(), invalid.size()}).hex() +
                                      "-" + entry_tag(entry) + ".rcache"),
                     rt::serialize_regcode(*rm));

    auto warm = rt::compile({invalid.data(), invalid.size()}, cfg);
    ASSERT_TRUE(warm->loaded_from_cache);
    EXPECT_EQ(warm->funcs_validated, 0u);
    rt::Instance inst(warm, rt::ImportTable{});
    const Value args[] = {Value::from_i32(7), Value::from_i64(1)};
    EXPECT_EQ(inst.invoke("run", args).as_i32(), 7);
    try {
      (void)rt::compiled_body(*warm, 2);
      ADD_FAILURE() << "an invalid body was compiled";
    } catch (const rt::CompileError& e) {
      EXPECT_EQ(std::string(e.what()), compile_error(invalid, EngineConfig{}));
    }
    fs::remove_all(dir);
  }
}

// A cold compile at a compiled tier with the cache off validates every body
// and builds no function: each one is lowered, optimized and (at kJit)
// JITted on its first call.

TEST(LazyCompile, ColdCompileBuildsNoFunction) {
  constexpr u32 kFuncs = 8;
  const std::vector<u8> bytes = toolchain::build_compile_stress_module(kFuncs);
  for (EngineTier tier : kCompiledTiers) {
    SCOPED_TRACE(rt::tier_name(tier));
    EngineConfig cfg;
    cfg.tier = tier;
    auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
    EXPECT_FALSE(cm->loaded_from_cache);
    EXPECT_EQ(cm->funcs_validated, kFuncs);
    const rt::TierUpSnapshot s = rt::tierup_snapshot(*cm);
    EXPECT_EQ(s.funcs_total, kFuncs);
    EXPECT_EQ(s.funcs_regcode, 0u);
    EXPECT_EQ(s.lazy_compiled_funcs, 0u);
    EXPECT_EQ(s.jit_funcs + s.jit_fallback_funcs, 0u);
    EXPECT_EQ(cm->jit_arena, nullptr);
  }
}

TEST(LazyCompile, AnInvalidBodyThatIsNeverCalledStillFailsCompile) {
  // Func[2] is invalid and nothing calls it; compile() reports it with the
  // message kInterp, which validates and predecodes every body, reports.
  const std::vector<u8> bytes = build_many_funcs(4, 2, ~0u);
  EngineConfig interp;
  interp.tier = EngineTier::kInterp;
  const std::string expected = compile_error(bytes, interp);
  EXPECT_EQ(expected.rfind("validation error: func[2]: ", 0), 0u) << expected;
  for (EngineTier tier : kCompiledTiers) {
    SCOPED_TRACE(rt::tier_name(tier));
    EngineConfig cfg;
    cfg.tier = tier;
    EXPECT_EQ(compile_error(bytes, cfg), expected);
  }
}

TEST(LazyCompile, CallingAnExportBuildsExactlyItsCallGraph) {
  // run -> mid (call) -> leaf (call_indirect through table[0]); the other
  // two functions are never called and stay unbuilt.
  ModuleBuilder b;
  b.add_table(1);
  auto& unused_a = b.begin_func({{I32}, {I32}});  // func 0
  unused_a.local_get(0);
  unused_a.end();
  auto& leaf = b.begin_func({{I32}, {I32}});  // func 1, table[0]
  leaf.local_get(0);
  leaf.i32_const(3);
  leaf.op(Op::kI32Mul);
  leaf.end();
  b.add_elem(0, {1});
  auto& mid = b.begin_func({{I32}, {I32}});  // func 2
  mid.local_get(0);
  mid.i32_const(0);
  mid.call_indirect(b.add_type({{I32}, {I32}}));
  mid.i32_const(1);
  mid.op(Op::kI32Add);
  mid.end();
  auto& unused_b = b.begin_func({{I32}, {I32}});  // func 3
  unused_b.local_get(0);
  unused_b.end();
  auto& run = b.begin_func({{I32}, {I32}}, "run");  // func 4
  run.local_get(0);
  run.call(2);
  run.end();
  const std::vector<u8> bytes = b.build();
  for (EngineTier tier : kCompiledTiers) {
    SCOPED_TRACE(rt::tier_name(tier));
    EngineConfig cfg;
    cfg.tier = tier;
    auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
    rt::Instance inst(cm, rt::ImportTable{});
    const Value args[] = {Value::from_i32(5)};
    EXPECT_EQ(inst.invoke("run", args).as_i32(), 16);
    EXPECT_EQ(inst.invoke("run", args).as_i32(), 16);
    const rt::TierUpSnapshot s = rt::tierup_snapshot(*cm);
    EXPECT_EQ(s.funcs_regcode, 3u);
    EXPECT_EQ(s.lazy_compiled_funcs, 3u);
    EXPECT_EQ(s.jit_funcs, tier == EngineTier::kJit ? 3u : 0u);
    for (u32 i = 0; i < 5; ++i)
      EXPECT_EQ(cm->funcs.units[i].active.load() != nullptr,
                i == 1 || i == 2 || i == 4)
          << "func " << i;
  }
}

TEST(LazyCompile, ColdCacheOnCompileStoresACompleteEntry) {
  // With the cache on, a miss builds every function up front so that the
  // entry it stores holds them all; a warm load then serves each one from
  // its record.
  constexpr u32 kFuncs = 8;
  const std::vector<u8> bytes = toolchain::build_compile_stress_module(kFuncs);
  const Value args[] = {Value::from_i32(40)};
  for (EngineTier tier : kCompiledTiers) {
    SCOPED_TRACE(rt::tier_name(tier));
    auto dir = fresh_cache_dir();
    EngineConfig cfg = stress_cache_config(dir);
    cfg.tier = tier;
    auto cold = rt::compile({bytes.data(), bytes.size()}, cfg);
    ASSERT_FALSE(cold->loaded_from_cache);
    rt::TierUpSnapshot s = rt::tierup_snapshot(*cold);
    EXPECT_EQ(s.funcs_regcode, kFuncs);
    EXPECT_EQ(s.lazy_compiled_funcs, 0u);
    const std::vector<u8> stored = read_file_bytes(only_entry(dir));
    EXPECT_EQ(stored, rt::serialize_regcode(compiled_regcode(*cold)));

    auto warm = rt::compile({bytes.data(), bytes.size()}, cfg);
    ASSERT_TRUE(warm->loaded_from_cache);
    rt::Instance cold_inst(cold, rt::ImportTable{});
    rt::Instance warm_inst(warm, rt::ImportTable{});
    for (u32 i = 0; i < kFuncs; ++i)
      EXPECT_EQ(warm_inst.invoke_index(i, args).as_f64(),
                cold_inst.invoke_index(i, args).as_f64())
          << "func " << i;
    s = rt::tierup_snapshot(*warm);
    EXPECT_EQ(s.lazy_compiled_funcs, kFuncs);
    EXPECT_EQ(s.cache_materialized_funcs, kFuncs);
    EXPECT_EQ(s.cache_record_fallbacks, 0u);
    EXPECT_EQ(rt::tierup_snapshot(*cold).lazy_compiled_funcs, 0u);
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace mpiwasm::test
