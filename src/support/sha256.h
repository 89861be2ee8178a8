// Minimal from-scratch SHA-256.
//
// MPIWasm keys its compiled-code FileSystemCache with a BLAKE-3 hash of the
// Wasm module bytes (paper §3.3). We substitute SHA-256: any collision-
// resistant content hash yields identical caching semantics
// (docs/ARCHITECTURE.md, "src/runtime").
#pragma once

#include <array>
#include <span>
#include <string>

#include "support/common.h"

namespace mpiwasm {

struct Sha256Digest {
  std::array<u8, 32> bytes{};
  bool operator==(const Sha256Digest&) const = default;
  /// Lowercase hex rendering, used as the cache file name.
  std::string hex() const;
};

/// One-shot SHA-256 of `data`. Uses the CPU's SHA extensions when it has
/// them (selected once, through cpuid); the digest is the same either way.
Sha256Digest sha256(std::span<const u8> data);

/// One-shot SHA-256 through the portable block function only: the fallback
/// on CPUs without SHA extensions, and the reference the tests compare the
/// selected path with.
Sha256Digest sha256_portable(std::span<const u8> data);

/// Incremental hasher for streaming inputs (cache serializer).
class Sha256 {
 public:
  Sha256();
  void update(std::span<const u8> data);
  Sha256Digest finish();

 private:
  friend Sha256Digest sha256_portable(std::span<const u8> data);
  /// Runs the compression function over `n` consecutive 64-byte blocks.
  using BlockFn = void (*)(u32* state, const u8* blocks, size_t n);
  explicit Sha256(BlockFn blocks);
  BlockFn blocks_;
  std::array<u32, 8> state_;
  std::array<u8, 64> buf_{};
  size_t buf_len_ = 0;
  u64 total_len_ = 0;
};

}  // namespace mpiwasm
