// FileSystemCache for compiled RegCode.
//
// Reproduces MPIWasm's compilation cache (paper §3.3): the module bytes are
// hashed (BLAKE-3 there, SHA-256 here), and the compiled artifact is stored
// in the local filesystem under that hash. Any change to the module yields
// a new hash and triggers recompilation; repeated executions of the same
// application skip compilation entirely.
//
// The unit of serialization is a *function record*. The compiled tiers
// store one whole-module entry (format v11; the layout dates from v8):
//
//   magic u32 | version u32 | count u32 | count x (offset u32, length u32)
//   | record 0 | record 1 | ...
//
// Offsets are from the start of the file; the records are non-empty, back
// to back in function order, and the last one ends at end-of-file. A warm
// start maps the entry read-only (MappedEntry), checks that table, and
// decodes nothing more: the engine decodes, prepares and installs each
// function's record on the function's first call.
//
// Entries are only ever replaced by rename, never rewritten in place, so a
// mapping stays a complete entry for as long as it lives.
#pragma once

#include <sys/stat.h>

#include <memory>
#include <optional>
#include <string>

#include "runtime/regcode.h"
#include "support/sha256.h"

namespace mpiwasm::rt {

/// A whole-module entry mapped read-only (PROT_READ, MAP_PRIVATE) whose
/// header and offset table have been checked against the file's size and
/// the module's function count. Records are decoded on demand.
class MappedEntry {
 public:
  MappedEntry(std::string path, const u8* base, size_t size, u32 count);
  ~MappedEntry();
  MappedEntry(const MappedEntry&) = delete;
  MappedEntry& operator=(const MappedEntry&) = delete;

  /// Decodes defined function `i`'s record; nullopt when it is malformed
  /// or does not fill its table slot exactly.
  std::optional<RFunc> decode(u32 i) const;
  /// Removes the entry file once (a record in it failed to decode); the
  /// mapping stays valid. Not thread-safe: callers serialize.
  void remove();

 private:
  std::string path_;
  const u8* base_;
  size_t size_;
  u32 count_;
  bool removed_ = false;
};

/// Whether a directory whose stat(2) is `st` may hold the cache of a
/// process whose effective uid is `euid`: it must be a directory that uid
/// owns. Anyone who can write the cache directory can plant native code
/// that map() runs, so a directory another user made (say a shared
/// "<tmp>/mpiwasm-cache") is not used. The mode bits are not checked: a
/// group-writable directory made under umask 002 stays usable.
bool cache_dir_trusted(const struct stat& st, uid_t euid);

class FileSystemCache {
 public:
  /// `dir` empty selects "<system temp>/mpiwasm-cache". A missing directory
  /// is created with mode 0700. When it cannot be created or fails
  /// cache_dir_trusted, the cache is off (a warning is logged once per
  /// directory): every lookup misses and every store is dropped.
  explicit FileSystemCache(std::string dir);

  const std::string& dir() const { return dir_; }
  bool enabled() const { return enabled_; }

  /// Maps the whole-module entry for (hash, tier_tag) when its header and
  /// offset table are sound and it holds `num_funcs` records; nullptr on a
  /// miss or on a corrupt/incompatible entry (which is removed).
  std::unique_ptr<MappedEntry> map(const Sha256Digest& hash,
                                   const std::string& tier_tag,
                                   u32 num_funcs) const;

  /// Stores `rm`; best-effort (failures are logged, not fatal).
  void store(const Sha256Digest& hash, const std::string& tier_tag,
             const RModule& rm) const;

  /// Removes every cache entry (used by tests and the cache ablation).
  void clear() const;

 private:
  std::string entry_path(const Sha256Digest& hash,
                         const std::string& tier_tag) const;
  std::string dir_;
  bool enabled_ = false;
};

/// Where the collective-autotuning table lives: next to the code cache, so
/// both kinds of learned state share one directory. `dir` empty selects the
/// same "<system temp>/mpiwasm-cache" default as FileSystemCache, and the
/// directory passes the same checks; when it fails them the result is
/// empty, and the table is neither loaded nor saved.
std::string autotune_table_path(const std::string& dir);

/// Serialization used by the cache (exposed for round-trip tests).
/// deserialize_regcode is the eager decoder of a whole-module entry: the
/// same header and table checks as FileSystemCache::map, then every record.
/// serialize_rfunc writes one record behind the magic and the version, the
/// form tests compare bodies in; deserialize_rfunc reads it back.
std::vector<u8> serialize_regcode(const RModule& rm);
std::optional<RModule> deserialize_regcode(std::span<const u8> bytes);
std::vector<u8> serialize_rfunc(const RFunc& f);
std::optional<RFunc> deserialize_rfunc(std::span<const u8> bytes);

}  // namespace mpiwasm::rt
