#include "runtime/cache.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "support/byte_buffer.h"
#include "support/log.h"

namespace mpiwasm::rt {

namespace fs = std::filesystem;

namespace {
constexpr u32 kCacheMagic = 0x4357524D;  // "MRWC"
// v3: per-function records (shared by whole-module entries and the tiered
// engine's per-function entries).
// v4: the superinstruction opcode space (fused select/load-op/op-store/
// indexed forms, and the loop-versioning ops since removed).
// v5: the full SIMD opcode space (lane ops, comparisons, shifts, shuffle,
// bitselect, v128 fused/indexed forms), which renumbers ROp again.
// v6: an optional per-function native-code section (JitBlob: CPU feature
// word, codegen layout hash, machine code, helper relocations). The section
// is validated separately at load time — the *engine* rejects a blob whose
// features aren't a subset of the host's or whose layout hash disagrees
// with this build, recompiles it, and falls back to threaded RegCode when
// that fails too; the RegCode part of the entry stays usable either way.
// Any older entry would decode to the wrong opcodes, so the header check
// rejects it and the engine silently recompiles. RFunc::handlers and
// RFunc::jit_entry are derived state and are never serialized;
// prepare_rfunc() / JitArena::install() re-resolve them after every load.
// v7: the threads/atomics opcode space (0xFE atomic loads/stores/rmw/
// cmpxchg, wait/notify, fence), which renumbers ROp and extends the JIT
// helper table; serialized RegCode and native blobs from v6 would decode
// to the wrong opcodes.
// v8: whole-module entries gain a fixed-width function count and a table of
// (offset, length) per function, so a warm start maps the file and decodes
// each record on its function's first call. Per-function entries keep a
// single record after the header.
// v9: signed LEB128 reads reject a last byte that does not sign-extend.
// A hit skips body validation, so an entry must never serve bytes that the
// current decoder or validator rejects: any change that rejects bytes they
// used to accept bumps the version (see wasm/validator.h).
// v10: the loop-versioning ops are gone (ROp renumbered), and the native
// section carries each blob's fault-site count (JitBlob::fault_sites; the
// table is the tail of the code bytes): native loads and stores have no
// inline bounds check, so a blob without its table could not turn a
// guard-region fault into a trap.
// v11: the load+op, op+store and compare+select forms are gone (ROp
// renumbered); indexed addressing is the only memory fusion left.
constexpr u32 kCacheVersion = 11;
// Whole-module entries: magic, version, function count.
constexpr size_t kEntryHeaderBytes = 12;

void write_rfunc(ByteWriter& w, const RFunc& f) {
  w.write_leb_u32(f.num_params);
  w.write_leb_u32(f.num_locals);
  w.write_leb_u32(f.num_regs);
  w.write_u8(f.has_result ? 1 : 0);
  w.write_leb_u32(u32(f.code.size()));
  for (const RInstr& in : f.code) {
    w.write_u32_le(u32(in.op));
    w.write_u32_le(in.a);
    w.write_u32_le(in.b);
    w.write_u32_le(in.c);
    w.write_u32_le(in.d);
    w.write_u64_le(in.imm);
  }
  w.write_leb_u32(u32(f.v128_pool.size()));
  for (const auto& v : f.v128_pool) w.write_bytes({v.bytes, 16});
  w.write_leb_u32(u32(f.br_pool.size()));
  for (const auto& pool : f.br_pool) {
    w.write_leb_u32(u32(pool.size()));
    for (u32 t : pool) w.write_leb_u32(t);
  }
  // v6 native section (optional — absent for functions that were never
  // JIT-compiled or had an untemplatable op).
  if (f.jit != nullptr) {
    w.write_u8(1);
    w.write_u32_le(f.jit->cpu_features);
    w.write_u32_le(f.jit->fault_sites);
    w.write_u64_le(f.jit->layout_hash);
    w.write_leb_u32(u32(f.jit->code.size()));
    w.write_bytes({f.jit->code.data(), f.jit->code.size()});
    w.write_leb_u32(u32(f.jit->relocs.size()));
    for (const JitReloc& rel : f.jit->relocs) {
      w.write_u32_le(rel.offset);
      w.write_u32_le(rel.helper);
    }
  } else {
    w.write_u8(0);
  }
}

/// Reads one function record; false on a malformed record, including a
/// body that fails rfunc_well_formed() (the caller treats the whole entry as
/// corrupt).
bool read_rfunc(ByteReader& r, RFunc& f) {
  f.num_params = r.read_leb_u32();
  f.num_locals = r.read_leb_u32();
  f.num_regs = r.read_leb_u32();
  f.has_result = r.read_u8() != 0;
  u32 ninstr = r.read_leb_u32();
  if (u64(ninstr) * 28 > r.remaining()) return false;  // cheap size sanity
  f.code.resize(ninstr);
  for (RInstr& in : f.code) {
    u32 op = r.read_u32_le();
    if (op >= u32(ROp::kCount)) return false;
    in.op = ROp(op);
    in.a = r.read_u32_le();
    in.b = r.read_u32_le();
    in.c = r.read_u32_le();
    in.d = r.read_u32_le();
    in.imm = r.read_u64_le();
  }
  u32 nv = r.read_leb_u32();
  if (u64(nv) * 16 > r.remaining()) return false;
  f.v128_pool.resize(nv);
  for (auto& v : f.v128_pool) {
    auto b = r.read_bytes(16);
    std::memcpy(v.bytes, b.data(), 16);
  }
  u32 np = r.read_leb_u32();
  if (np > r.remaining()) return false;
  f.br_pool.resize(np);
  for (auto& pool : f.br_pool) {
    u32 n = r.read_leb_u32();
    if (n > r.remaining()) return false;
    pool.resize(n);
    for (u32& t : pool) t = r.read_leb_u32();
  }
  // The executor and the JIT trust a body's control and pool references.
  if (!rfunc_well_formed(f)) return false;
  u8 has_native = r.read_u8();
  if (has_native > 1) return false;
  if (has_native != 0) {
    auto blob = std::make_shared<JitBlob>();
    blob->cpu_features = r.read_u32_le();
    blob->fault_sites = r.read_u32_le();
    blob->layout_hash = r.read_u64_le();
    u32 code_size = r.read_leb_u32();
    if (code_size > r.remaining()) return false;
    auto code = r.read_bytes(code_size);
    blob->code.assign(code.begin(), code.end());
    u32 nrel = r.read_leb_u32();
    if (u64(nrel) * 8 > r.remaining()) return false;
    blob->relocs.resize(nrel);
    for (JitReloc& rel : blob->relocs) {
      rel.offset = r.read_u32_le();
      rel.helper = r.read_u32_le();
      // Reloc sanity: each patch site must lie inside the code bytes (the
      // helper ordinal is validated against the running build at install).
      if (u64(rel.offset) + 8 > blob->code.size()) return false;
    }
    // The fault handler binary-searches the table by pc and jumps to the
    // stub, so it must fit the code, ascend, and point before itself.
    if (u64(blob->fault_sites) * 8 > blob->code.size()) return false;
    const size_t table = blob->fault_table();
    for (u32 i = 0, prev_pc = 0; i < blob->fault_sites; ++i) {
      u32 site[2];  // pc, stub
      std::memcpy(site, blob->code.data() + table + size_t(i) * 8, 8);
      if ((i > 0 && site[0] <= prev_pc) || site[0] >= table ||
          site[1] == 0 || site[1] >= table)
        return false;
      prev_pc = site[0];
    }
    f.jit = std::move(blob);
  }
  return true;
}

bool read_header(ByteReader& r) {
  if (r.remaining() < 8) return false;
  if (r.read_u32_le() != kCacheMagic) return false;
  if (r.read_u32_le() != kCacheVersion) return false;
  return true;
}

u32 load_u32_le(const u8* p) {
  u32 v;
  std::memcpy(&v, p, 4);
  return v;
}

/// Checks a whole-module entry's header and offset table: the records must
/// be non-empty, contiguous from the end of the table, in order, and end
/// exactly at the end of `bytes`. Returns the function count, or nullopt.
/// Reads only the header and the table.
std::optional<u32> check_entry(std::span<const u8> bytes) {
  if (bytes.size() < kEntryHeaderBytes) return std::nullopt;
  const u8* p = bytes.data();
  if (load_u32_le(p) != kCacheMagic || load_u32_le(p + 4) != kCacheVersion)
    return std::nullopt;
  const u32 count = load_u32_le(p + 8);
  u64 next = kEntryHeaderBytes + u64(count) * 8;
  if (next > bytes.size()) return std::nullopt;
  for (u32 i = 0; i < count; ++i) {
    const u8* slot = p + kEntryHeaderBytes + size_t(i) * 8;
    const u32 length = load_u32_le(slot + 4);
    if (load_u32_le(slot) != next || length == 0) return std::nullopt;
    next += length;
  }
  if (next != bytes.size()) return std::nullopt;
  return count;
}

/// Record `i` of an entry that passed check_entry.
std::span<const u8> entry_record(std::span<const u8> bytes, u32 i) {
  const u8* slot = bytes.data() + kEntryHeaderBytes + size_t(i) * 8;
  return bytes.subspan(load_u32_le(slot), load_u32_le(slot + 4));
}

/// Decodes one record that must fill `rec` exactly.
std::optional<RFunc> decode_record(std::span<const u8> rec) {
  try {
    ByteReader r(rec);
    RFunc f;
    if (!read_rfunc(r, f) || !r.done()) return std::nullopt;
    return f;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

/// Atomically publishes `bytes` at `path`; concurrent writers race
/// benignly. Each writer fills its own temp file (pid + thread id), so two
/// writers of one entry never truncate each other's bytes, and only a
/// complete write is renamed into place.
///
/// Entries are only ever replaced by this rename, never rewritten in place:
/// a MappedEntry keeps reading the file it mapped, which must therefore
/// never shrink under it. A foreign process that truncates a mapped entry
/// in place crosses the same trust line as one that plants a native blob
/// in the cache directory.
void write_entry(const std::string& path, std::span<const u8> bytes) {
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << ::getpid() << "."
           << std::this_thread::get_id();
  const std::string tmp = tmp_name.str();
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    MW_WARN("cannot write cache entry " << tmp);
    return;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
  out.close();
  std::error_code ec;
  if (!out) {
    MW_WARN("failed writing cache entry " << tmp);
    fs::remove(tmp, ec);
    return;
  }
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
}

void remove_corrupt(const std::string& path) {
  MW_WARN("removing corrupt cache entry " << path);
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace

std::vector<u8> serialize_regcode(const RModule& rm) {
  // One pass: reserve the offset table, then patch each slot as its record
  // is written.
  const size_t n = rm.funcs.size();
  ByteWriter w;
  w.write_u32_le(kCacheMagic);
  w.write_u32_le(kCacheVersion);
  w.write_u32_le(u32(n));
  for (size_t i = 0; i < n; ++i) w.write_u64_le(0);
  for (size_t i = 0; i < n; ++i) {
    const size_t at = w.size();
    write_rfunc(w, rm.funcs[i]);
    w.patch_u32_le(kEntryHeaderBytes + i * 8, u32(at));
    w.patch_u32_le(kEntryHeaderBytes + i * 8 + 4, u32(w.size() - at));
  }
  return w.take();
}

std::optional<RModule> deserialize_regcode(std::span<const u8> bytes) {
  const std::optional<u32> count = check_entry(bytes);
  if (!count) return std::nullopt;
  RModule rm;
  rm.funcs.resize(*count);  // bounded: the table fits in `bytes`
  for (u32 i = 0; i < *count; ++i) {
    std::optional<RFunc> f = decode_record(entry_record(bytes, i));
    if (!f) return std::nullopt;
    rm.funcs[i] = std::move(*f);
  }
  return rm;
}

std::vector<u8> serialize_rfunc(const RFunc& f) {
  ByteWriter w;
  w.write_u32_le(kCacheMagic);
  w.write_u32_le(kCacheVersion);
  write_rfunc(w, f);
  return w.take();
}

std::optional<RFunc> deserialize_rfunc(std::span<const u8> bytes) {
  try {
    ByteReader r(bytes);
    if (!read_header(r)) return std::nullopt;
    RFunc f;
    if (!read_rfunc(r, f)) return std::nullopt;
    if (!r.done()) return std::nullopt;
    return f;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

bool cache_dir_trusted(const struct stat& st, uid_t euid) {
  return S_ISDIR(st.st_mode) && st.st_uid == euid;
}

namespace {

fs::path cache_dir_or_default(const std::string& dir) {
  return dir.empty() ? fs::temp_directory_path() / "mpiwasm-cache"
                     : fs::path(dir);
}

/// Creates `dir` (mode 0700) when it is missing and checks it with
/// cache_dir_trusted; a symlink must be owned by this user too. On failure
/// warns once per directory and returns false.
bool open_cache_dir(const fs::path& dir) {
  const fs::path leaf = dir.has_filename() ? dir : dir.parent_path();
  int made = ::mkdir(leaf.c_str(), 0700);
  if (made != 0 && errno == ENOENT && leaf.has_parent_path()) {
    std::error_code ec;  // missing parents get the default mode
    fs::create_directories(leaf.parent_path(), ec);
    made = ::mkdir(leaf.c_str(), 0700);
  }
  const uid_t euid = ::geteuid();
  struct stat st;
  std::string why;
  if (made != 0 && errno != EEXIST) {
    why = std::string("cannot create it: ") + std::strerror(errno);
  } else if (::lstat(leaf.c_str(), &st) != 0 ||
             (S_ISLNK(st.st_mode) && st.st_uid == euid &&
              ::stat(leaf.c_str(), &st) != 0)) {
    why = std::string("cannot stat it: ") + std::strerror(errno);
  } else if (cache_dir_trusted(st, euid)) {
    return true;
  } else {
    why = (S_ISDIR(st.st_mode) || S_ISLNK(st.st_mode) ? "owned by uid "
                                                       : "not a directory, uid ") +
          std::to_string(st.st_uid) + ", not " + std::to_string(euid);
  }
  static std::mutex warned_mu;
  static std::set<std::string> warned;  // guarded by warned_mu
  std::lock_guard<std::mutex> lock(warned_mu);
  if (warned.insert(leaf.string()).second)
    MW_WARN("cache dir " << leaf.string() << " not used (" << why
                         << "); running with the cache off");
  return false;
}

}  // namespace

FileSystemCache::FileSystemCache(std::string dir)
    : dir_(cache_dir_or_default(dir).string()),
      enabled_(open_cache_dir(dir_)) {}

std::string FileSystemCache::entry_path(const Sha256Digest& hash,
                                        const std::string& tier_tag) const {
  return dir_ + "/" + hash.hex() + "-" + tier_tag + ".rcache";
}

MappedEntry::MappedEntry(std::string path, const u8* base, size_t size,
                         u32 count)
    : path_(std::move(path)), base_(base), size_(size), count_(count) {}

MappedEntry::~MappedEntry() {
  ::munmap(const_cast<u8*>(base_), size_);
}

std::optional<RFunc> MappedEntry::decode(u32 i) const {
  MW_CHECK(i < count_, "cache record index out of range");
  return decode_record(entry_record({base_, size_}, i));
}

void MappedEntry::remove() {
  if (removed_) return;
  removed_ = true;
  remove_corrupt(path_);
}

std::unique_ptr<MappedEntry> FileSystemCache::map(
    const Sha256Digest& hash, const std::string& tier_tag,
    u32 num_funcs) const {
  if (!enabled_) return nullptr;
  const std::string path = entry_path(hash, tier_tag);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return nullptr;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return nullptr;
  }
  const size_t size = size_t(st.st_size);
  // An empty file has nothing to map and is corrupt.
  void* base = size == 0 ? nullptr
                         : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return nullptr;  // cannot map: a miss
  if (base != nullptr) {
    const u8* p = static_cast<const u8*>(base);
    const std::optional<u32> count = check_entry({p, size});
    if (count == num_funcs)
      return std::make_unique<MappedEntry>(path, p, size, num_funcs);
    ::munmap(base, size);
  }
  remove_corrupt(path);
  return nullptr;
}

void FileSystemCache::store(const Sha256Digest& hash,
                            const std::string& tier_tag,
                            const RModule& rm) const {
  if (!enabled_) return;
  write_entry(entry_path(hash, tier_tag), serialize_regcode(rm));
}

void FileSystemCache::clear() const {
  if (!enabled_) return;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".rcache") fs::remove(entry.path(), ec);
  }
}

}  // namespace mpiwasm::rt
