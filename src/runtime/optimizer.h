// Optimizing pipeline (kOptimizing, and kJit beneath its native codegen):
// dataflow passes over freshly lowered RegCode.
//
// Passes, per function, iterated to a small fixpoint:
//   1. block-local copy propagation
//   2. block-local constant folding + immediate fusion (AddImm/ShlImm/...)
//      + mul-by-power-of-two strength reduction
//   3. compare-and-branch fusion (BrIfI32LtS etc.) and f32/f64 multiply-add
//   4. indexed-address fusion: base + (index << scale) + imm folded into
//      the load/store (one x86 addressing mode in native code)
//   5. liveness-based dead code elimination (global dataflow)
//   6. branch threading + Nop compaction with target remapping
//
// This is what buys the Optimizing tier its runtime edge in Table 1: the
// dispatch-loop executor's cost is proportional to executed instructions,
// and these passes remove 30-60% of them in hot loops. Bounds checks are
// not the optimizer's business: the executor checks every access, and
// native code leaves them to the linear memory's guard region (memory.h).
#pragma once

#include "runtime/regcode.h"

namespace mpiwasm::rt {

struct OptStats {
  u64 instrs_before = 0;
  u64 instrs_after = 0;
  u32 rounds = 0;
  u32 fused_indexed = 0;  // indexed loads/stores formed
};

/// Runs every pass, v128 constant folding and v128 indexed addressing
/// (kV128LoadIx/StoreIx) included, to a small fixpoint.
OptStats optimize_function(RFunc& f);

// ---- Dataflow primitives shared with the jit tier's register allocator ----

/// Register reads of an instruction into `out` (cleared first). Conservative:
/// numeric unops report their unused c field too.
void collect_reads(const RInstr& in, std::vector<u32>& out);
using ReadsFn = void (*)(const RInstr&, std::vector<u32>&);

/// Whether the instruction writes r[a].
bool writes_dest(const RInstr& in);

/// Basic blocks of a RegCode body.
struct Cfg {
  std::vector<size_t> leaders;               // sorted block start indices
  std::vector<size_t> block_of;              // instr -> block id
  std::vector<std::vector<u32>> successors;  // block id -> block ids

  size_t block_start(size_t b) const { return leaders[b]; }
  size_t block_end(size_t b, size_t n) const {
    return b + 1 < leaders.size() ? leaders[b + 1] : n;
  }
};

Cfg build_cfg(const RFunc& f);

/// Per-instruction live-out sets (reg live immediately after the instruction
/// executes, considering all CFG paths), as bitsets of `words` u64 each.
/// O(n_instr * n_regs) bits, which is fine at RegCode function sizes.
struct Liveness {
  u32 words = 0;
  std::vector<u64> out;  // instruction i's set: out[i * words, (i + 1) * words)
  const u64* live_out(size_t i) const { return out.data() + i * words; }
  bool live_after(size_t i, u32 reg) const {
    return (live_out(i)[reg / 64] >> (reg % 64)) & 1;
  }
};

/// Backward dataflow over `cfg` with `reads_of` as each instruction's use
/// set (the jit allocator passes its exact per-template reads).
Liveness compute_liveness(const RFunc& f, const Cfg& cfg,
                          ReadsFn reads_of = collect_reads);

}  // namespace mpiwasm::rt
