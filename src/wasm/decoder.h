// WebAssembly binary format decoder (Wasm 1.0 + bulk-memory + SIMD subset).
//
// `decode_module` is the module-level entry point used by the embedder and
// tools; `InstrReader` is the shared instruction stream walker used by the
// validator, the compilers, and the WAT printer.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/byte_buffer.h"
#include "wasm/module.h"
#include "wasm/opcodes.h"

namespace mpiwasm::wasm {

struct DecodeResult {
  std::optional<Module> module;
  std::string error;
  bool ok() const { return module.has_value(); }
};

/// Decodes a full binary module. Never throws; malformed input yields an
/// error string (tested by the failure-injection suite).
DecodeResult decode_module(std::span<const u8> bytes);

/// One decoded instruction with its immediates. Callers keep one view and
/// let InstrReader::next refill it for every instruction (see there).
struct InstrView {
  Op op = Op::kNop;
  size_t pc = 0;       // byte offset of the opcode
  size_t next_pc = 0;  // byte offset just past the instruction

  i64 imm_i = 0;       // int consts / label / func / local / global / lane
  f32 imm_f32 = 0;
  f64 imm_f64 = 0;
  V128 imm_v128{};
  u32 mem_align = 0;
  u32 mem_offset = 0;
  u32 indirect_type_index = 0;
  u8 block_type = kBlockTypeEmpty;  // kBlockTypeEmpty or a ValType byte
  std::vector<u32> br_targets;      // br_table targets
  u32 br_default = 0;

  u32 idx() const { return u32(imm_i); }
};

/// Sequential decoder over a function body's instruction bytes.
/// Throws DecodeError on malformed input.
class InstrReader {
 public:
  explicit InstrReader(std::span<const u8> code) : r_(code) {}
  bool done() const { return r_.done(); }
  size_t pos() const { return r_.pos(); }
  /// Decodes the next instruction into `v`. Every scalar field is reset
  /// (an immediate the instruction lacks reads 0, `block_type` empty);
  /// `br_targets` is cleared but keeps its capacity; `imm_v128` is written
  /// only by v128.const and i8x16.shuffle and is stale after any other op.
  void next(InstrView& v);

 private:
  ByteReader r_;
};

}  // namespace mpiwasm::wasm
