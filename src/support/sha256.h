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

/// One-shot SHA-256 of `data`.
Sha256Digest sha256(std::span<const u8> data);

/// Incremental hasher for streaming inputs (cache serializer).
class Sha256 {
 public:
  Sha256();
  void update(std::span<const u8> data);
  Sha256Digest finish();

 private:
  void process_block(const u8* block);
  std::array<u32, 8> state_;
  std::array<u8, 64> buf_{};
  size_t buf_len_ = 0;
  u64 total_len_ = 0;
};

}  // namespace mpiwasm
