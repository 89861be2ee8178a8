#include "runtime/jit_x64.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <tuple>

#include "runtime/jit_support.h"
#include "runtime/optimizer.h"

namespace mpiwasm::rt {

namespace {

using wasm::V128;

// Register numbers (low 3 bits go in modrm/SIB; bit 3 goes in REX).
enum Gpr : u8 {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};
enum Xmm : u8 { X0 = 0, X1 = 1 };

// Condition-code low nibbles (0F 8x jcc rel32, 7x jcc rel8, 0F 9x setcc).
enum Cc : u8 {
  CC_B = 0x2, CC_AE = 0x3, CC_E = 0x4, CC_NE = 0x5, CC_BE = 0x6, CC_A = 0x7,
  CC_P = 0xA, CC_NP = 0xB, CC_L = 0xC, CC_GE = 0xD, CC_LE = 0xE, CC_G = 0xF,
};

// --- register allocation -------------------------------------------------------
//
// Each RegCode slot is split into webs (def-use live ranges: every def joined
// with the uses it reaches, across branch joins and loop back edges). A web
// gets one location for the whole function — a caller-saved register the
// templates never use as scratch, or its home slot — so no join needs
// reconciling. Linear scan over each web's live interval (the hull of the
// points where it is live, read or written) assigns registers, evicting the
// web with the least loop-depth-weighted use count when a file runs out.

// Operand kinds of a template with register forms: an integer (GPR), a
// scalar float or a vector (XMM), or an untyped whole-Slot copy that pins
// neither file.
enum Kind : u8 { kNo = 0, kInt, kFlt, kVec, kAny };

/// What a converted template reads and writes: the kind of the r[a] it
/// writes, then of the r[a], r[b], r[c], r[d] it reads (kNo: not read).
struct Sig {
  Kind dst = kNo;
  Kind a = kNo, b = kNo, c = kNo, d = kNo;
};

/// The signature of `op`'s template when it has register forms; nullopt
/// for ops that run their frame template under the fallback rule.
std::optional<Sig> reg_sig(ROp op) {
  using R = ROp;
  switch (op) {
    case R::kNop: case R::kBr: case R::kReturnVoid:
      return Sig{};
    case R::kMov: case R::kI32ReinterpretF32: case R::kI64ReinterpretF64:
    case R::kF32ReinterpretI32: case R::kF64ReinterpretI64:
      return Sig{kAny, kNo, kAny};
    case R::kConst:
      return Sig{kAny};
    case R::kConstV128:
      return Sig{kVec};
    case R::kSelect:
      return Sig{kAny, kAny, kAny, kInt};
    case R::kBrIf: case R::kBrIfNot: case R::kBrTable:
      return Sig{kNo, kInt};
    case R::kReturn:
      return Sig{kNo, kAny};

    case R::kI32Load: case R::kI64Load: case R::kI32Load8S: case R::kI32Load8U:
    case R::kI32Load16S: case R::kI32Load16U: case R::kI64Load8S:
    case R::kI64Load8U: case R::kI64Load16S: case R::kI64Load16U:
    case R::kI64Load32S: case R::kI64Load32U:
      return Sig{kInt, kNo, kInt};
    case R::kF32Load: case R::kF64Load:
      return Sig{kFlt, kNo, kInt};
    case R::kV128Load: case R::kV128Load32Splat: case R::kV128Load64Splat:
      return Sig{kVec, kNo, kInt};
    case R::kI32Store: case R::kI64Store: case R::kI32Store8:
    case R::kI32Store16: case R::kI64Store8: case R::kI64Store16:
    case R::kI64Store32:
      return Sig{kNo, kInt, kInt};
    case R::kF32Store: case R::kF64Store:
      return Sig{kNo, kInt, kFlt};
    case R::kV128Store:
      return Sig{kNo, kInt, kVec};

    case R::kI32Eqz: case R::kI64Eqz:
    case R::kI32WrapI64: case R::kI64ExtendI32S: case R::kI64ExtendI32U:
    case R::kI64Extend32S:
    case R::kI32AddImm: case R::kI64AddImm: case R::kI32ShlImm:
    case R::kI32ShrUImm: case R::kI32AndImm: case R::kI32MulImm:
      return Sig{kInt, kNo, kInt};
    case R::kI32Eq: case R::kI32Ne: case R::kI32LtS: case R::kI32LtU:
    case R::kI32GtS: case R::kI32GtU: case R::kI32LeS: case R::kI32LeU:
    case R::kI32GeS: case R::kI32GeU:
    case R::kI64Eq: case R::kI64Ne: case R::kI64LtS: case R::kI64LtU:
    case R::kI64GtS: case R::kI64GtU: case R::kI64LeS: case R::kI64LeU:
    case R::kI64GeS: case R::kI64GeU:
    case R::kI32Add: case R::kI32Sub: case R::kI32Mul: case R::kI32And:
    case R::kI32Or: case R::kI32Xor: case R::kI32Shl: case R::kI32ShrS:
    case R::kI32ShrU: case R::kI32Rotl: case R::kI32Rotr:
    case R::kI64Add: case R::kI64Sub: case R::kI64Mul: case R::kI64And:
    case R::kI64Or: case R::kI64Xor: case R::kI64Shl: case R::kI64ShrS:
    case R::kI64ShrU: case R::kI64Rotl: case R::kI64Rotr:
    case R::kI32DivS: case R::kI32DivU: case R::kI32RemS: case R::kI32RemU:
    case R::kI64DivS: case R::kI64DivU: case R::kI64RemS: case R::kI64RemU:
      return Sig{kInt, kNo, kInt, kInt};
    case R::kF32Eq: case R::kF32Ne: case R::kF32Lt: case R::kF32Gt:
    case R::kF32Le: case R::kF32Ge:
    case R::kF64Eq: case R::kF64Ne: case R::kF64Lt: case R::kF64Gt:
    case R::kF64Le: case R::kF64Ge:
      return Sig{kInt, kNo, kFlt, kFlt};
    case R::kF32Add: case R::kF32Sub: case R::kF32Mul: case R::kF32Div:
    case R::kF64Add: case R::kF64Sub: case R::kF64Mul: case R::kF64Div:
      return Sig{kFlt, kNo, kFlt, kFlt};
    case R::kF32Sqrt: case R::kF64Sqrt: case R::kF32DemoteF64:
    case R::kF64PromoteF32:
      return Sig{kFlt, kNo, kFlt};
    case R::kF32ConvertI32S: case R::kF32ConvertI32U: case R::kF32ConvertI64S:
    case R::kF64ConvertI32S: case R::kF64ConvertI32U: case R::kF64ConvertI64S:
      return Sig{kFlt, kNo, kInt};

    case R::kI8x16Splat: case R::kI16x8Splat: case R::kI32x4Splat:
    case R::kI64x2Splat:
      return Sig{kVec, kNo, kInt};
    case R::kF32x4Splat: case R::kF64x2Splat:
      return Sig{kVec, kNo, kFlt};
    case R::kI32x4ExtractLane: case R::kI64x2ExtractLane:
    case R::kV128AnyTrue: case R::kI8x16AllTrue: case R::kI16x8AllTrue:
    case R::kI32x4AllTrue: case R::kI64x2AllTrue:
      return Sig{kInt, kNo, kVec};
    case R::kF32x4ExtractLane: case R::kF64x2ExtractLane:
      return Sig{kFlt, kNo, kVec};
    case R::kV128Not: case R::kI8x16Abs: case R::kI16x8Abs: case R::kI32x4Abs:
    case R::kI8x16Neg: case R::kI16x8Neg: case R::kI32x4Neg: case R::kI64x2Neg:
    case R::kF32x4Abs: case R::kF32x4Neg: case R::kF32x4Sqrt:
    case R::kF64x2Abs: case R::kF64x2Neg: case R::kF64x2Sqrt:
      return Sig{kVec, kNo, kVec};
    case R::kI8x16Eq: case R::kI8x16Ne: case R::kI8x16LtS: case R::kI8x16GtS:
    case R::kI16x8Eq: case R::kI16x8Ne: case R::kI16x8LtS: case R::kI16x8GtS:
    case R::kI32x4Eq: case R::kI32x4Ne: case R::kI32x4LtS: case R::kI32x4GtS:
    case R::kF32x4Eq: case R::kF32x4Ne: case R::kF32x4Lt: case R::kF32x4Le:
    case R::kF32x4Gt: case R::kF32x4Ge:
    case R::kF64x2Eq: case R::kF64x2Ne: case R::kF64x2Lt: case R::kF64x2Le:
    case R::kF64x2Gt: case R::kF64x2Ge:
    case R::kV128And: case R::kV128AndNot: case R::kV128Or: case R::kV128Xor:
    case R::kI8x16Add: case R::kI8x16Sub: case R::kI16x8Add: case R::kI16x8Sub:
    case R::kI16x8Mul: case R::kI32x4Add: case R::kI32x4Sub: case R::kI32x4Mul:
    case R::kI32x4MinS: case R::kI32x4MinU: case R::kI32x4MaxS:
    case R::kI32x4MaxU: case R::kI64x2Add: case R::kI64x2Sub:
    case R::kF32x4Add: case R::kF32x4Sub: case R::kF32x4Mul: case R::kF32x4Div:
    case R::kF32x4Pmin: case R::kF32x4Pmax:
    case R::kF64x2Add: case R::kF64x2Sub: case R::kF64x2Mul: case R::kF64x2Div:
    case R::kF64x2Pmin: case R::kF64x2Pmax:
      return Sig{kVec, kNo, kVec, kVec};
    case R::kI32x4Shl: case R::kI32x4ShrS: case R::kI32x4ShrU:
    case R::kI64x2Shl: case R::kI64x2ShrU:
      return Sig{kVec, kNo, kVec, kInt};
    case R::kV128Bitselect:
      return Sig{kVec, kVec, kVec, kVec};

    case R::kBrIfI32Eq: case R::kBrIfI32Ne: case R::kBrIfI32LtS:
    case R::kBrIfI32LtU: case R::kBrIfI32GtS: case R::kBrIfI32GtU:
    case R::kBrIfI32LeS: case R::kBrIfI32LeU: case R::kBrIfI32GeS:
    case R::kBrIfI32GeU:
      return Sig{kNo, kInt, kInt};
    case R::kF64MulAdd: case R::kF32MulAdd:
      return Sig{kFlt, kNo, kFlt, kFlt, kFlt};
    case R::kI32LoadIx: case R::kI64LoadIx:
      return Sig{kInt, kNo, kInt, kInt};
    case R::kF32LoadIx: case R::kF64LoadIx:
      return Sig{kFlt, kNo, kInt, kInt};
    case R::kV128LoadIx:
      return Sig{kVec, kNo, kInt, kInt};
    case R::kI32StoreIx: case R::kI64StoreIx:
      return Sig{kNo, kInt, kInt, kInt};
    case R::kF32StoreIx: case R::kF64StoreIx:
      return Sig{kNo, kInt, kFlt, kInt};
    case R::kV128StoreIx:
      return Sig{kNo, kInt, kVec, kInt};

    // Inline atomics (the rest call helpers and run under the fallback rule).
    case R::kI32AtomicLoad: case R::kI64AtomicLoad: case R::kI32AtomicLoad8U:
    case R::kI32AtomicLoad16U: case R::kI64AtomicLoad8U:
    case R::kI64AtomicLoad16U: case R::kI64AtomicLoad32U:
      return Sig{kInt, kNo, kInt};
    case R::kI32AtomicStore: case R::kI64AtomicStore: case R::kI32AtomicStore8:
    case R::kI32AtomicStore16: case R::kI64AtomicStore8:
    case R::kI64AtomicStore16: case R::kI64AtomicStore32:
      return Sig{kNo, kInt, kInt};
    case R::kI32AtomicRmwAdd: case R::kI64AtomicRmwAdd:
    case R::kI32AtomicRmw8AddU: case R::kI32AtomicRmw16AddU:
    case R::kI64AtomicRmw8AddU: case R::kI64AtomicRmw16AddU:
    case R::kI64AtomicRmw32AddU:
    case R::kI32AtomicRmwSub: case R::kI64AtomicRmwSub:
    case R::kI32AtomicRmw8SubU: case R::kI32AtomicRmw16SubU:
    case R::kI64AtomicRmw8SubU: case R::kI64AtomicRmw16SubU:
    case R::kI64AtomicRmw32SubU:
    case R::kI32AtomicRmwXchg: case R::kI64AtomicRmwXchg:
    case R::kI32AtomicRmw8XchgU: case R::kI32AtomicRmw16XchgU:
    case R::kI64AtomicRmw8XchgU: case R::kI64AtomicRmw16XchgU:
    case R::kI64AtomicRmw32XchgU:
      return Sig{kInt, kNo, kInt, kInt};
    default:
      return std::nullopt;
  }
}

/// Register reads for liveness: exact for converted templates, the
/// optimizer's conservative set for the rest.
void jit_reads(const RInstr& in, std::vector<u32>& out) {
  const std::optional<Sig> s = reg_sig(in.op);
  if (!s) {
    collect_reads(in, out);
    return;
  }
  out.clear();
  if (s->a != kNo) out.push_back(in.a);
  if (s->b != kNo) out.push_back(in.b);
  if (s->c != kNo) out.push_back(in.c);
  if (s->d != kNo) out.push_back(in.d);
}

/// Ops whose destination is the r[a] they read: one web, updated in place.
bool select_shaped(ROp op) {
  return op == ROp::kSelect || op == ROp::kV128Bitselect;
}

/// Whether `in`'s register-form template writes a GPR destination with a
/// 32-bit operation, which clears bits 32-63. A shift by 0 is left out:
/// its template may shift the destination register in place, and the
/// architecture manuals do not say that a zero count writes it.
bool zext_def(const RInstr& in) {
  using R = ROp;
  switch (in.op) {
    case R::kConst:
      return in.imm <= 0xFFFFFFFFull;  // mov r32, imm32
    case R::kI32ShlImm: case R::kI32ShrUImm:
      return (in.imm & 31) != 0;
    case R::kI32AddImm: case R::kI32AndImm: case R::kI32MulImm:
    case R::kI32Load: case R::kI32Load8S: case R::kI32Load8U:
    case R::kI32Load16S: case R::kI32Load16U: case R::kI32LoadIx:
    case R::kI32Add: case R::kI32Sub: case R::kI32Mul: case R::kI32And:
    case R::kI32Or: case R::kI32Xor: case R::kI32Shl: case R::kI32ShrS:
    case R::kI32ShrU: case R::kI32Rotl: case R::kI32Rotr:
    case R::kI32DivS: case R::kI32DivU: case R::kI32RemS: case R::kI32RemU:
    case R::kI32WrapI64: case R::kI32Eqz: case R::kI64Eqz:
    case R::kI32Eq: case R::kI32Ne: case R::kI32LtS: case R::kI32LtU:
    case R::kI32GtS: case R::kI32GtU: case R::kI32LeS: case R::kI32LeU:
    case R::kI32GeS: case R::kI32GeU:
    case R::kI64Eq: case R::kI64Ne: case R::kI64LtS: case R::kI64LtU:
    case R::kI64GtS: case R::kI64GtU: case R::kI64LeS: case R::kI64LeU:
    case R::kI64GeS: case R::kI64GeU:
      return true;
    default:
      return false;
  }
}

/// Fallback templates that call a C++ helper on their normal path, which
/// clobbers every allocatable register (all are caller-saved). Trap-only
/// paths (integer div/rem by zero or overflow, out-of-bounds and unaligned
/// accesses) call their helper from a noreturn stub, so they need no saves.
bool calls_helper(ROp op, u32 feats) {
  using R = ROp;
  switch (op) {
    case R::kCall: case R::kCallIndirect: case R::kMemorySize:
    case R::kMemoryGrow: case R::kMemoryCopy: case R::kMemoryFill:
    case R::kF32Min: case R::kF32Max: case R::kF64Min: case R::kF64Max:
    case R::kI32TruncF32S: case R::kI32TruncF32U: case R::kI32TruncF64S:
    case R::kI32TruncF64U: case R::kI64TruncF32S: case R::kI64TruncF32U:
    case R::kI64TruncF64S: case R::kI64TruncF64U:
    case R::kF32ConvertI64U: case R::kF64ConvertI64U:
      return true;
    case R::kI32Clz: case R::kI64Clz:
      return !(feats & kJitFeatLzcnt);
    case R::kI32Ctz: case R::kI64Ctz:
      return !(feats & kJitFeatBmi1);
    case R::kI32Popcnt: case R::kI64Popcnt:
      return !(feats & kJitFeatPopcnt);
    case R::kF32Ceil: case R::kF32Floor: case R::kF32Trunc: case R::kF32Nearest:
    case R::kF64Ceil: case R::kF64Floor: case R::kF64Trunc: case R::kF64Nearest:
      return !(feats & kJitFeatSse41);
    // Atomics that run LinearMemory's members through a helper. Loads,
    // stores, xchg, add/sub and the fence are inline; their unaligned and
    // out-of-bounds paths are noreturn stubs.
    case R::kAtomicNotify: case R::kAtomicWait32: case R::kAtomicWait64:
      return true;
    default:
      return (op >= R::kI32AtomicRmwAnd && op <= R::kI64AtomicRmw32XorU) ||
             (op >= R::kI32AtomicRmwCmpxchg &&
              op <= R::kI64AtomicRmw32CmpxchgU);
  }
}

constexpr u8 kFrame = 0xFF;  // the operand lives in its home slot
constexpr u8 kNoLoc = 0xFE;  // the field is not an operand of the template
constexpr u8 kXmm = 0x10;    // location bit: XMM register (low nibble: number)
constexpr u32 kNoWeb = ~0u;

// Allocatable registers: caller-saved, and never template scratch (rax, rcx,
// rdx, xmm0, xmm1) or pinned (rbx, r12-r14). r15 is free and unused.
constexpr u8 kAllocGprs[] = {RSI, RDI, R8, R9, R10, R11};
constexpr u8 kAllocXmms = 14;  // xmm2..xmm15

/// Where every operand of every instruction lives, plus the moves the
/// fallback rule makes around templates without register forms.
struct RegAlloc {
  struct Locs {
    u8 a_in = kNoLoc, b = kNoLoc, c = kNoLoc, d = kNoLoc, a_out = kNoLoc;
    u8 zext = 0;  // bit k: operand k (a_in, b, c, d) is zero-extended
  };
  struct Move {
    u32 slot;
    u8 loc;
  };
  std::vector<Locs> at;  // per instruction (converted templates)
  // Fallback instruction i stores moves[save_at[i], restore_at[i]) to their
  // home slots before its frame template and reloads
  // moves[restore_at[i], save_at[i + 1]) after it.
  std::vector<u32> save_at, restore_at;
  std::vector<Move> moves;
  std::vector<Move> entry;  // register webs live on entry (params, locals)

  std::span<const Move> saves(size_t i) const {
    return {moves.data() + save_at[i], moves.data() + restore_at[i]};
  }
  std::span<const Move> restores(size_t i) const {
    return {moves.data() + restore_at[i], moves.data() + save_at[i + 1]};
  }
};

RegAlloc allocate_registers(const RFunc& f, u32 feats) {
  const size_t n = f.code.size();
  const u32 nregs = f.num_regs;
  const Cfg cfg = build_cfg(f);
  const Liveness lv = compute_liveness(f, cfg, jit_reads);
  const size_t nb = cfg.leaders.size();
  const u32 words = lv.words;
  auto each_live = [&](const u64* set, auto&& fn) {
    for (u32 k = 0; k < words; ++k)
      for (u64 m = set[k]; m != 0; m &= m - 1)
        fn(k * 64 + u32(__builtin_ctzll(m)));
  };

  // Loop depth: each back edge j -> t (t <= j) nests [t, j] one level deeper.
  std::vector<i32> depth(n + 1, 0);
  auto back_edge = [&](size_t j, u32 t) {
    if (t > j) return;
    ++depth[t];
    --depth[j + 1];
  };
  for (size_t j = 0; j < n; ++j) {
    const RInstr& in = f.code[j];
    if (in.op == ROp::kBrTable) {
      for (u32 t : f.br_pool[in.imm]) back_edge(j, t);
    } else if (rop_is_jump(in.op)) {
      back_edge(j, u32(in.imm));
    }
  }
  for (size_t j = 1; j <= n; ++j) depth[j] += depth[j - 1];

  // Union-find over value nodes: one per def, one per (block, live-in slot).
  struct Node {
    u32 parent;
    u32 first = ~0u, last = 0;  // live interval, in instruction order
    f64 weight = 0;             // loop-depth-weighted reads + writes
    u8 kinds = 0;               // 1 << Kind, over converted templates
    bool frame = false;         // live across a wasm call or memory.grow
    bool wide = false;          // may hold nonzero bits 32-63 (see Web)
  };
  std::vector<Node> nodes;
  nodes.reserve(2 * n + 8);
  auto make = [&]() {
    nodes.push_back(Node{u32(nodes.size())});
    return u32(nodes.size() - 1);
  };
  auto find = [&](u32 x) {
    while (nodes[x].parent != x) {
      nodes[x].parent = nodes[nodes[x].parent].parent;
      x = nodes[x].parent;
    }
    return x;
  };
  auto touch = [&](u32 x, u32 i) {
    nodes[x].first = std::min(nodes[x].first, i);
    nodes[x].last = std::max(nodes[x].last, i);
  };

  // Entry nodes: block b's live-in slots are entry_slot[entry_at[b] ...).
  std::vector<u32> reads;
  std::vector<u32> entry_at(nb + 1, 0), entry_slot, entry_node;
  std::vector<u64> live_in(words);
  for (size_t b = 0; b < nb; ++b) {
    entry_at[b] = u32(entry_slot.size());
    const size_t s = cfg.block_start(b);
    std::copy(lv.live_out(s), lv.live_out(s) + words, live_in.begin());
    if (writes_dest(f.code[s]))
      live_in[f.code[s].a / 64] &= ~(u64(1) << (f.code[s].a % 64));
    jit_reads(f.code[s], reads);
    for (u32 r : reads) live_in[r / 64] |= u64(1) << (r % 64);
    each_live(live_in.data(), [&](u32 r) {
      entry_slot.push_back(r);
      entry_node.push_back(make());
      nodes.back().wide = b == 0;  // a parameter or local from the caller
    });
  }
  entry_at[nb] = u32(entry_slot.size());

  // Operand nodes per instruction (a_in, b, c, d, a_out) and the fallback
  // moves, as (slot, node) pairs laid out like RegAlloc::moves.
  std::vector<std::array<u32, 5>> opnode(n, {kNoWeb, kNoWeb, kNoWeb, kNoWeb, kNoWeb});
  std::vector<u32> save_at(n + 1, 0), restore_at(n, 0);
  std::vector<std::pair<u32, u32>> moves, after;
  auto add_move = [](std::vector<std::pair<u32, u32>>& v, size_t from,
                     u32 r, u32 x) {
    for (size_t k = from; k < v.size(); ++k)
      if (v[k].first == r) return;
    v.push_back({r, x});
  };
  std::vector<u32> cur(nregs, kNoWeb);
  for (size_t b = 0; b < nb; ++b) {
    std::fill(cur.begin(), cur.end(), kNoWeb);
    for (u32 k = entry_at[b]; k < entry_at[b + 1]; ++k)
      cur[entry_slot[k]] = entry_node[k];
    for (size_t i = cfg.block_start(b); i < cfg.block_end(b, n); ++i) {
      const RInstr& in = f.code[i];
      const std::optional<Sig> sig = reg_sig(in.op);
      const f64 w = std::ldexp(1.0, 3 * std::min(depth[i], 8));
      save_at[i] = u32(moves.size());
      after.clear();
      jit_reads(in, reads);
      for (u32 r : reads) {
        if (cur[r] == kNoWeb) {
          cur[r] = make();
          nodes[cur[r]].wide = true;
        }
        touch(cur[r], u32(i));
        nodes[cur[r]].weight += w;
        if (!sig) add_move(moves, save_at[i], r, cur[r]);
      }
      if (sig) {
        const Kind kinds[4] = {sig->a, sig->b, sig->c, sig->d};
        const u32 slots[4] = {in.a, in.b, in.c, in.d};
        for (int k = 0; k < 4; ++k) {
          if (kinds[k] == kNo) continue;
          opnode[i][k] = cur[slots[k]];
          if (kinds[k] != kAny) nodes[cur[slots[k]]].kinds |= u8(1u << kinds[k]);
        }
      }
      const bool writes = writes_dest(in);
      MW_CHECK(!sig || writes == (sig->dst != kNo),
               "jit: template signature disagrees with writes_dest");
      if (writes) {
        const u32 x = select_shaped(in.op) ? cur[in.a] : make();
        touch(x, u32(i));
        nodes[x].weight += w;
        if (!sig || !zext_def(in)) nodes[x].wide = true;
        cur[in.a] = x;
        if (sig) {
          opnode[i][4] = x;
          if (sig->dst != kAny) nodes[x].kinds |= u8(1u << sig->dst);
        } else {
          after.push_back({in.a, x});
        }
      }
      const bool pins = in.op == ROp::kCall || in.op == ROp::kCallIndirect ||
                        in.op == ROp::kMemoryGrow;
      const bool clobbers = !sig && calls_helper(in.op, feats);
      each_live(lv.live_out(i), [&](u32 r) {
        if (cur[r] == kNoWeb) return;
        touch(cur[r], u32(i));
        if (writes && r == in.a) return;
        if (pins) {
          nodes[cur[r]].frame = true;
        } else if (clobbers) {
          add_move(moves, save_at[i], r, cur[r]);
          after.push_back({r, cur[r]});
        }
      });
      restore_at[i] = u32(moves.size());
      moves.insert(moves.end(), after.begin(), after.end());
    }
    for (u32 s : cfg.successors[b])
      for (u32 k = entry_at[s]; k < entry_at[s + 1]; ++k) {
        const u32 r = entry_slot[k];
        if (cur[r] == kNoWeb) continue;
        const u32 p = find(cur[r]), q = find(entry_node[k]);
        if (p != q) nodes[q].parent = p;
      }
  }
  save_at[n] = u32(moves.size());

  // Fold every node into its web (the union-find root). A web whose every
  // def is a zext_def template holds its value zero-extended in a GPR:
  // spills and fills move all 64 bits, so they keep bits 32-63 clear.
  // Parameters, moves, selects, reinterprets and fallback results (a call
  // result among them) may leave those bits set.
  struct Web {
    u32 first = ~0u, last = 0;
    f64 weight = 0;
    u8 kinds = 0;
    bool frame = false;
    bool wide = false;
    u8 loc = kFrame;
  };
  const u32 nn = u32(nodes.size());
  std::vector<u32> root(nn);
  std::vector<Web> web(nn);
  for (u32 x = 0; x < nn; ++x) {
    root[x] = find(x);
    Web& wb = web[root[x]];
    wb.first = std::min(wb.first, nodes[x].first);
    wb.last = std::max(wb.last, nodes[x].last);
    wb.weight += nodes[x].weight;
    wb.kinds |= nodes[x].kinds;
    wb.frame |= nodes[x].frame;
    wb.wide |= nodes[x].wide;
  }

  // Linear scan per register file. A web read as an integer somewhere and
  // as a float or vector elsewhere stays in its slot.
  constexpr u8 kIntBit = 1u << kInt;
  std::vector<u32> order;
  for (u32 x = 0; x < nn; ++x)
    if (root[x] == x && !web[x].frame && web[x].first != ~0u &&
        web[x].kinds != 0)
      order.push_back(x);
  std::sort(order.begin(), order.end(), [&](u32 p, u32 q) {
    return web[p].first != web[q].first ? web[p].first < web[q].first : p < q;
  });
  for (bool xmm : {false, true}) {
    std::vector<u8> free_regs;
    if (xmm) {
      for (u8 k = kAllocXmms; k-- > 0;) free_regs.push_back(u8(kXmm | (2 + k)));
    } else {
      for (size_t k = std::size(kAllocGprs); k-- > 0;)
        free_regs.push_back(kAllocGprs[k]);
    }
    std::vector<u32> active;
    for (u32 x : order) {
      const bool is_int = web[x].kinds == kIntBit;
      const bool is_fp = !(web[x].kinds & kIntBit);
      if (xmm ? !is_fp : !is_int) continue;
      for (size_t k = 0; k < active.size();) {
        if (web[active[k]].last < web[x].first) {
          free_regs.push_back(web[active[k]].loc);
          active[k] = active.back();
          active.pop_back();
        } else {
          ++k;
        }
      }
      if (!free_regs.empty()) {
        web[x].loc = free_regs.back();
        free_regs.pop_back();
        active.push_back(x);
        continue;
      }
      size_t victim = 0;
      for (size_t k = 1; k < active.size(); ++k)
        if (web[active[k]].weight < web[active[victim]].weight) victim = k;
      if (web[active[victim]].weight < web[x].weight) {
        web[x].loc = web[active[victim]].loc;
        web[active[victim]].loc = kFrame;
        active[victim] = x;
      }
    }
  }

  // Resolve nodes to locations; fallback moves keep only register webs.
  auto loc_of = [&](u32 x) { return x == kNoWeb ? kNoLoc : web[root[x]].loc; };
  RegAlloc ra;
  ra.at.resize(n);
  ra.save_at.resize(n + 1);
  ra.restore_at.resize(n);
  auto keep = [&](u32 from, u32 to) {
    for (u32 k = from; k < to; ++k)
      if (loc_of(moves[k].second) != kFrame)
        ra.moves.push_back({moves[k].first, loc_of(moves[k].second)});
  };
  for (size_t i = 0; i < n; ++i) {
    const std::array<u32, 5>& on = opnode[i];
    ra.at[i] = {loc_of(on[0]), loc_of(on[1]), loc_of(on[2]), loc_of(on[3]),
                loc_of(on[4])};
    for (int k = 0; k < 4; ++k)
      if (on[k] != kNoWeb && !web[root[on[k]]].wide)
        ra.at[i].zext |= u8(1u << k);
    ra.save_at[i] = u32(ra.moves.size());
    keep(save_at[i], restore_at[i]);
    ra.restore_at[i] = u32(ra.moves.size());
    keep(restore_at[i], save_at[i + 1]);
  }
  ra.save_at[n] = u32(ra.moves.size());
  if (nb > 0)
    for (u32 k = entry_at[0]; k < entry_at[1]; ++k)
      if (loc_of(entry_node[k]) != kFrame)
        ra.entry.push_back({entry_slot[k], loc_of(entry_node[k])});
  return ra;
}

/// One function's emission state. The templates use rax/rcx/rdx and
/// xmm0/xmm1 as scratch; every other operand comes from the location the
/// allocator gave its web (see jit_x64.h for the register convention and the
/// fallback rule).
struct Emitter {
  const RFunc& f;
  u32 feats;
  const RegAlloc& ra;
  size_t at = 0;            // index of the instruction being emitted
  bool frame_only = false;  // emitting a fallback (frame-only) template
  std::vector<u8> code;
  std::vector<JitReloc> relocs;
  std::vector<u32> ioff;  // native offset of each RegCode instruction

  struct BranchFix { u32 at; u32 target; };   // rel32 to instruction index
  struct PoolFix { u32 at; u32 index; };      // rip disp32 to pool entry
  struct TableFix { u32 at; u32 pool; };      // rip disp32 to a br table
  struct TrapSite {                           // rel32 to this site's stub
    u32 at;
    u32 len;  // access length (OOB and unaligned-atomic stubs)
    JitHelperId helper;
  };
  struct FaultSite {  // unchecked guest access at code[at]
    u32 at;
    u32 len;
    u8 idx;        // the access is [r13 + idx + disp]
    u32 disp;
    u32 stub = 0;  // its OOB stub, set by finish()
  };
  std::vector<BranchFix> branch_fixes;
  std::vector<PoolFix> pool_fixes;
  std::vector<TableFix> table_fixes;
  std::vector<TrapSite> trap_sites;
  std::vector<FaultSite> fault_sites;
  u32 fault_len = 0;  // width of the guest access the next op_mem makes
  u8 mem_idx = RAX;   // its address: [r13 + mem_idx + mem_disp]
  u32 mem_disp = 0;
  std::vector<V128> pool;  // f.v128_pool + emitter-generated masks

  Emitter(const RFunc& fn, u32 features, const RegAlloc& alloc)
      : f(fn), feats(features), ra(alloc), pool(fn.v128_pool) {}

  // --- raw byte emission ---------------------------------------------------

  void b1(u8 v) { code.push_back(v); }
  void bs(std::initializer_list<u8> vs) {
    for (u8 v : vs) code.push_back(v);
  }
  void i32le(u32 v) {
    for (int i = 0; i < 4; ++i) b1(u8(v >> (8 * i)));
  }
  void i64le(u64 v) {
    for (int i = 0; i < 8; ++i) b1(u8(v >> (8 * i)));
  }
  void patch32(u32 at, u32 v) {
    for (int i = 0; i < 4; ++i) code[at + i] = u8(v >> (8 * i));
  }

  // --- instruction encoding primitives --------------------------------------

  void rex_if(bool w, u8 reg, u8 rm) {
    u8 r = u8(0x40 | (w ? 8 : 0) | ((reg >> 3) << 2) | (rm >> 3));
    if (r != 0x40) b1(r);
  }

  /// modrm for [base + disp]; always mod=01/10 (disp present) so rbp/r13
  /// need no special case; rsp/r12 get the mandatory SIB.
  void modrm_mem(u8 reg, u8 base, i64 disp) {
    u8 rl = reg & 7, bl = base & 7;
    bool small = disp >= -128 && disp <= 127;
    b1(u8((small ? 0x40 : 0x80) | (rl << 3) | (bl == 4 ? 4 : bl)));
    if (bl == 4) b1(0x24);  // SIB: scale 1, no index, base rsp/r12
    if (small)
      b1(u8(i8(disp)));
    else
      i32le(u32(i32(disp)));
  }

  /// op reg, [base+disp] (or store form, same encoding with reversed opcode).
  void op_rm(u8 pfx, bool w, std::initializer_list<u8> ops, u8 reg, u8 base,
             i64 disp) {
    if (pfx) b1(pfx);
    rex_if(w, reg, base);
    for (u8 o : ops) b1(o);
    modrm_mem(reg, base, disp);
  }

  /// op reg, rm (register-direct form).
  void op_rr(u8 pfx, bool w, std::initializer_list<u8> ops, u8 reg, u8 rm) {
    if (pfx) b1(pfx);
    rex_if(w, reg, rm);
    for (u8 o : ops) b1(o);
    b1(u8(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }

  /// Records the instruction that starts here as the fault site of the
  /// pending guest access (see guest_access), if any.
  void fault_site_here() {
    if (fault_len != 0) {
      fault_sites.push_back({u32(code.size()), fault_len, mem_idx, mem_disp});
      fault_len = 0;
    }
  }

  /// modrm + SIB for [base + idx*2^scale + disp]. base&7 == 5 (rbp, r13)
  /// has no disp-less form, so it always gets a disp8; idx is never rsp.
  void modrm_sib(u8 reg, u8 base, u8 idx, u8 scale, i32 disp) {
    const u8 mod = disp == 0 && (base & 7) != 5 ? 0x00
                   : disp >= -128 && disp <= 127 ? 0x40 : 0x80;
    b1(u8(mod | ((reg & 7) << 3) | 4));
    b1(u8((scale << 6) | ((idx & 7) << 3) | (base & 7)));
    if (mod == 0x40)
      b1(u8(i8(disp)));
    else if (mod == 0x80)
      i32le(u32(disp));
  }

  /// op reg, [r13 + mem_idx + mem_disp] — the linear-memory access form.
  /// Always carries REX (REX.B for r13), so byte stores of sil/dil encode.
  void op_mem(u8 pfx, bool w, std::initializer_list<u8> ops, u8 reg) {
    fault_site_here();
    if (pfx) b1(pfx);
    b1(u8(0x41 | (w ? 8 : 0) | ((reg >> 3) << 2) | ((mem_idx >> 3) << 1)));
    for (u8 o : ops) b1(o);
    modrm_sib(reg, R13, mem_idx, 0, i32(mem_disp));
  }

  /// lea dst32, [base + idx*2^scale]: the sum wraps at 32 bits and
  /// zero-extends into dst, like the u32 arithmetic it stands for.
  void lea32(u8 dst, u8 base, u8 idx, u8 scale) {
    const u8 rex =
        u8(0x40 | ((dst >> 3) << 2) | ((idx >> 3) << 1) | (base >> 3));
    if (rex != 0x40) b1(rex);
    b1(0x8D);
    modrm_sib(dst, base, idx, scale, 0);
  }

  /// op reg, [rip + disp32]; returns the offset of the disp32 for fixups.
  u32 op_rip(u8 pfx, std::initializer_list<u8> ops, u8 reg) {
    if (pfx) b1(pfx);
    rex_if(false, reg, 0);
    for (u8 o : ops) b1(o);
    b1(u8(0x00 | ((reg & 7) << 3) | 5));  // mod=00 rm=101: rip-relative
    u32 at = u32(code.size());
    i32le(0);
    return at;
  }

  /// ALU group-1 (add=0 or=1 and=4 sub=5 xor=6 cmp=7) reg, imm.
  void alu_imm(bool w, u8 ext, u8 rm, i64 imm) {
    rex_if(w, 0, rm);
    if (imm >= -128 && imm <= 127) {
      b1(0x83);
      b1(u8(0xC0 | (ext << 3) | (rm & 7)));
      b1(u8(i8(imm)));
    } else {
      b1(0x81);
      b1(u8(0xC0 | (ext << 3) | (rm & 7)));
      i32le(u32(i32(imm)));
    }
  }

  /// Shift group-2 (rol=0 ror=1 shl=4 shr=5 sar=7) reg, imm8.
  void shift_imm(bool w, u8 ext, u8 rm, u8 imm) {
    rex_if(w, 0, rm);
    b1(0xC1);
    b1(u8(0xC0 | (ext << 3) | (rm & 7)));
    b1(imm);
  }

  void movabs(u8 reg, u64 v) {
    b1(u8(0x48 | (reg >> 3)));
    b1(u8(0xB8 | (reg & 7)));
    i64le(v);
  }

  /// reg = v, all 64 bits, in the shortest encoding.
  void mov_imm(u8 reg, u64 v) {
    if (v <= 0xFFFFFFFFull) {  // mov r32, imm32 zero-extends
      rex_if(false, 0, reg);
      b1(u8(0xB8 | (reg & 7)));
      i32le(u32(v));
    } else if (v == u64(i64(i32(u32(v))))) {  // mov r64, simm32
      rex_if(true, 0, reg);
      b1(0xC7);
      b1(u8(0xC0 | (reg & 7)));
      i32le(u32(v));
    } else {
      movabs(reg, v);
    }
  }

  // --- operand locations ----------------------------------------------------
  //
  // A converted template reads each RegCode operand from wherever the
  // allocator put its web: a register (mod=11 form) or its home slot
  // [rbx + 16*slot] (memory form), from the same opcode bytes. Fallback
  // templates run with frame_only set and see every operand in its slot.

  i64 slot(u32 r) const { return i64(r) * 16; }

  /// The operand field (0 a_in, 1 b, 2 c, 3 d) through which the current
  /// instruction reads slot r.
  int src_field(u32 r) const {
    const RInstr& in = f.code[at];
    const RegAlloc::Locs& l = ra.at[at];
    if (l.b != kNoLoc && r == in.b) return 1;
    if (l.c != kNoLoc && r == in.c) return 2;
    if (l.d != kNoLoc && r == in.d) return 3;
    MW_CHECK(l.a_in != kNoLoc && r == in.a,
             "jit: template reads a slot outside its signature");
    return 0;
  }
  u8 src_loc(u32 r) const {
    if (frame_only) return kFrame;
    const RegAlloc::Locs& l = ra.at[at];
    const u8 locs[4] = {l.a_in, l.b, l.c, l.d};
    return locs[src_field(r)];
  }
  u8 dst_loc(u32 r) const {
    if (frame_only) return kFrame;
    MW_CHECK(r == f.code[at].a && ra.at[at].a_out != kNoLoc,
             "jit: template writes a slot other than its destination");
    return ra.at[at].a_out;
  }

  /// op reg, <operand r>: the register form when r is register-resident.
  void op_src(u8 pfx, bool w, std::initializer_list<u8> ops, u8 reg, u32 r) {
    u8 l = src_loc(r);
    if (l == kFrame)
      op_rm(pfx, w, ops, reg, RBX, slot(r));
    else
      op_rr(pfx, w, ops, reg, l & 15);
  }

  // movd/movq between the register files (w: 64-bit).
  void movq_to_xmm(bool w, u8 x, u8 g) { op_rr(0x66, w, {0x0F, 0x6E}, x, g); }
  void movq_to_gpr(bool w, u8 g, u8 x) { op_rr(0x66, w, {0x0F, 0x7E}, x, g); }

  void ld_gpr(u8 reg, bool w, u32 r) {
    u8 l = src_loc(r);
    if (l == kFrame)
      op_rm(0, w, {0x8B}, reg, RBX, slot(r));
    else if (l & kXmm)
      movq_to_gpr(w, reg, l & 15);
    else if (l != reg)
      op_rr(0, w, {0x8B}, reg, l);
  }
  void st_gpr(u32 r, u8 reg, bool w) {
    u8 l = dst_loc(r);
    if (l == kFrame)
      op_rm(0, w, {0x89}, reg, RBX, slot(r));
    else if (l & kXmm)
      movq_to_xmm(w, l & 15, reg);
    else if (l != reg)
      op_rr(0, w, {0x89}, reg, l);
  }
  /// width 4/8 (movss/movsd) or 16 (movaps) in the frame; any register form
  /// moves the whole register.
  void ld_xmm(u8 x, u32 r, u32 width) {
    u8 l = src_loc(r);
    if (l == kFrame) {
      if (width == 16)
        op_rm(0, false, {0x0F, 0x28}, x, RBX, slot(r));
      else
        op_rm(width == 8 ? 0xF2 : 0xF3, false, {0x0F, 0x10}, x, RBX, slot(r));
    } else if (l & kXmm) {
      if ((l & 15) != x) op_rr(0, false, {0x0F, 0x28}, x, l & 15);
    } else {
      MW_CHECK(width != 16, "jit: vector operand in a GPR");
      movq_to_xmm(width == 8, x, l);
    }
  }
  void st_xmm(u32 r, u8 x, u32 width) {
    u8 l = dst_loc(r);
    if (l == kFrame) {
      if (width == 16)
        op_rm(0, false, {0x0F, 0x29}, x, RBX, slot(r));
      else
        op_rm(width == 8 ? 0xF2 : 0xF3, false, {0x0F, 0x11}, x, RBX, slot(r));
    } else if (l & kXmm) {
      if ((l & 15) != x) op_rr(0, false, {0x0F, 0x28}, l & 15, x);
    } else {
      MW_CHECK(width != 16, "jit: vector result in a GPR");
      movq_to_gpr(width == 8, l, x);
    }
  }

  void load32(u8 reg, u32 r) { ld_gpr(reg, false, r); }
  void load64(u8 reg, u32 r) { ld_gpr(reg, true, r); }
  void store32(u32 r, u8 reg) { st_gpr(r, reg, false); }
  void store64(u32 r, u8 reg) { st_gpr(r, reg, true); }
  void loadss(u8 x, u32 r) { ld_xmm(x, r, 4); }
  void loadsd(u8 x, u32 r) { ld_xmm(x, r, 8); }
  void storess(u32 r, u8 x) { st_xmm(r, x, 4); }
  void storesd(u32 r, u8 x) { st_xmm(r, x, 8); }
  void loadaps(u8 x, u32 r) { ld_xmm(x, r, 16); }
  void storeaps(u32 r, u8 x) { st_xmm(r, x, 16); }

  /// The register already holding r's value, or `scratch` loaded with it.
  u8 gpr_of(u32 r, u8 scratch, bool w) {
    u8 l = src_loc(r);
    if (l != kFrame && !(l & kXmm)) return l;
    ld_gpr(scratch, w, r);
    return scratch;
  }
  u8 xmm_of(u32 r, u8 scratch, u32 width) {
    u8 l = src_loc(r);
    if (l != kFrame && (l & kXmm)) return l & 15;
    ld_xmm(scratch, r, width);
    return scratch;
  }
  /// Where a template computes its result: straight into the destination's
  /// register when it has one of the right file that none of `later` (slots
  /// read after the first write) occupies, else `scratch`.
  u8 gpr_work(u8 scratch, std::initializer_list<u32> later = {}) {
    u8 d = dst_loc(f.code[at].a);
    if (d == kFrame || (d & kXmm)) return scratch;
    for (u32 r : later)
      if (src_loc(r) == d) return scratch;
    return d;
  }
  u8 xmm_work(u8 scratch, std::initializer_list<u32> later = {}) {
    u8 d = dst_loc(f.code[at].a);
    if (d == kFrame || !(d & kXmm)) return scratch;
    for (u32 r : later)
      if (src_loc(r) == d) return scratch;
    return d & 15;
  }

  /// cmp r[x], r[y]: a register operand is compared in place; rax holds x
  /// only when both live in the frame.
  void cmp_src(bool w, u32 x, u32 y) {
    const u8 lx = src_loc(x), ly = src_loc(y);
    if (lx != kFrame && !(lx & kXmm)) {
      op_src(0, w, {0x3B}, lx, y);  // cmp x, y
    } else if (lx == kFrame && ly != kFrame && !(ly & kXmm)) {
      op_rm(0, w, {0x39}, ly, RBX, slot(x));  // cmp [x], y
    } else {
      ld_gpr(RAX, w, x);
      op_src(0, w, {0x3B}, RAX, y);
    }
  }

  /// Writes register location `l` to its home slot (fallback save rule).
  void spill(u32 r, u8 l) {
    if (l & kXmm)
      op_rm(0, false, {0x0F, 0x29}, l & 15, RBX, slot(r));
    else
      op_rm(0, true, {0x89}, l, RBX, slot(r));
  }
  /// Reloads register location `l` from its home slot.
  void fill(u8 l, u32 r) {
    if (l & kXmm)
      op_rm(0, false, {0x0F, 0x28}, l & 15, RBX, slot(r));
    else
      op_rm(0, true, {0x8B}, l, RBX, slot(r));
  }

  /// r[a] = r[b] as a whole Slot (kMov, reinterprets, select arms).
  void slot_copy(u32 a, u32 b) {
    u8 s = src_loc(b), d = dst_loc(a);
    if (s == kFrame && d == kFrame) {
      if (a == b) return;
      op_rm(0, false, {0x0F, 0x28}, X0, RBX, slot(b));
      op_rm(0, false, {0x0F, 0x29}, X0, RBX, slot(a));
    } else if (s == kFrame) {
      fill(d, b);
    } else if (d == kFrame) {
      spill(a, s);
    } else if (s != d) {
      bool sx = s & kXmm, dx = d & kXmm;
      if (sx && dx)
        op_rr(0, false, {0x0F, 0x28}, d & 15, s & 15);  // movaps
      else if (!sx && !dx)
        op_rr(0, true, {0x8B}, d, s);  // mov
      else if (dx)
        movq_to_xmm(true, d & 15, s);
      else
        movq_to_gpr(true, d, s & 15);
    }
  }

  // --- local control-flow helpers --------------------------------------------

  u32 jcc8(u8 cc) {  // returns patch position of the rel8
    b1(u8(0x70 | cc));
    b1(0);
    return u32(code.size() - 1);
  }
  void label8(u32 at) { code[at] = u8(code.size() - (at + 1)); }

  void jcc32(u8 cc, u32 target) {
    bs({0x0F, u8(0x80 | cc)});
    branch_fixes.push_back({u32(code.size()), target});
    i32le(0);
  }
  void jmp32(u32 target) {
    b1(0xE9);
    branch_fixes.push_back({u32(code.size()), target});
    i32le(0);
  }

  /// jcc rel32 to an out-of-line stub that calls the trapping `helper` (see
  /// finish()); len is the access length for the OOB and unaligned stubs.
  void trap_jcc(u8 cc, JitHelperId helper, u32 len = 0) {
    bs({0x0F, u8(0x80 | cc)});
    trap_sites.push_back({u32(code.size()), len, helper});
    i32le(0);
  }

  // --- helper calls -----------------------------------------------------------

  /// movabs rax, &helper; call rax. The imm64 is recorded as a relocation;
  /// the current-process address is baked in so even an unpatched blob runs
  /// correctly in the emitting process.
  void call_helper(JitHelperId id) {
    bs({0x48, 0xB8});
    relocs.push_back({u32(code.size()), u32(id)});
    i64le(u64(reinterpret_cast<uintptr_t>(jit_helper_address(u32(id)))));
    bs({0xFF, 0xD0});
  }

  // --- effective addresses ------------------------------------------------------
  //
  // A guest access is [r13 + idx + disp]: idx holds a u32 zero-extended to
  // 64 bits and disp is the access's imm when it is below 2^31, so the
  // address stays below 2^32 + 2^31, inside the guard region (memory.h).
  // An imm of 2^31 or more, which no disp32 holds, is added to rax first.

  /// rax = u64(r[base_slot].u32) + imm as the next access's address, for
  /// the atomics (their alignment check tests al) and imms of 2^31 or more.
  /// rcx is clobbered for those.
  void lin_addr(u32 base_slot, u64 imm) {
    load32(RAX, base_slot);  // 32-bit mov zero-extends
    mem_idx = RAX;
    mem_disp = 0;
    add_imm_rax(imm);
  }

  void add_imm_rax(u64 imm) {
    if (imm == 0) return;
    if (imm <= 0x7FFFFFFFull) {
      alu_imm(true, 0, RAX, i64(imm));
    } else {
      movabs(RCX, imm);
      op_rr(0, true, {0x01}, RCX, RAX);  // add rax, rcx
    }
  }

  /// A GPR holding u64(r[r].u32): the operand's own register when the
  /// allocator holds it zero-extended (RegAlloc::Locs::zext), else eax
  /// loaded by a 32-bit move.
  u8 addr_reg(u32 r) {
    const u8 l = src_loc(r);
    if (l != kFrame && !(l & kXmm) && (ra.at[at].zext >> src_field(r) & 1))
      return l;
    load32(RAX, r);
    return RAX;
  }

  /// Makes the next op_mem an unchecked guest access of `len` bytes. It is
  /// recorded as a fault site with its index register and disp: an
  /// out-of-bounds address faults in the guard region, and the fault
  /// handler resumes at a stub that rebuilds the address in rax from them
  /// (see finish()).
  void guest_access(u32 len) { fault_len = len; }

  /// The next access is at u64(r[base_slot].u32) + imm.
  void guest_addr(u32 base_slot, u64 imm, u32 len) {
    if (imm <= 0x7FFFFFFFull) {
      mem_idx = addr_reg(base_slot);
      mem_disp = u32(imm);
    } else {
      lin_addr(base_slot, imm);
    }
    guest_access(len);
  }

  /// The next access is at u64(u32(r[base].u32 + (r[idx].u32 << shift))) +
  /// imm — the IXADDR macro. The 32-bit lea (shift <= 3) or add wraps and
  /// zero-extends into rax exactly like the macro.
  void ix_addr(u32 base_slot, u32 idx_slot, u32 shift, u64 imm) {
    shift &= 31;
    if (shift <= 3) {
      const u8 base = gpr_of(base_slot, RAX, false);
      lea32(RAX, base, gpr_of(idx_slot, base == RAX ? RCX : RAX, false),
            u8(shift));
    } else {
      load32(RAX, idx_slot);
      shift_imm(false, 4, RAX, u8(shift));
      op_src(0, false, {0x03}, RAX, base_slot);  // add eax, base
    }
    mem_idx = RAX;
    mem_disp = 0;
    if (imm <= 0x7FFFFFFFull)
      mem_disp = u32(imm);
    else
      add_imm_rax(imm);
  }

  /// Natural-alignment check for atomics: jnz to an out-of-line stub when
  /// the effective address in rax is not a multiple of len. The stub calls
  /// h_trap_unaligned_atomic(r14, rax, len), which runs check_atomic, so
  /// the trap and its message are the interpreter's.
  void align_check(u32 len) {
    if (len == 1) return;
    bs({0xA8, u8(len - 1)});  // test al, len-1
    trap_jcc(CC_NE, JitHelperId::kTrapUnalignedAtomic, len);
  }

  // --- constant pool ---------------------------------------------------------

  u32 pool_const(const V128& v) {
    for (u32 i = u32(f.v128_pool.size()); i < pool.size(); ++i)
      if (std::memcmp(pool[i].bytes, v.bytes, 16) == 0) return i;
    pool.push_back(v);
    return u32(pool.size() - 1);
  }
  u32 splat_mask32(u32 v) {
    V128 m;
    for (int i = 0; i < 4; ++i) std::memcpy(m.bytes + i * 4, &v, 4);
    return pool_const(m);
  }
  u32 splat_mask64(u64 v) {
    V128 m;
    for (int i = 0; i < 2; ++i) std::memcpy(m.bytes + i * 8, &v, 8);
    return pool_const(m);
  }

  void load_pool(u8 x, u32 index) {  // movups x, [rip + pool[index]]
    u32 at = op_rip(0, {0x0F, 0x10}, x);
    pool_fixes.push_back({at, index});
  }

  // --- prologue / epilogue -----------------------------------------------------

  void prologue() {
    bs({0x55});                    // push rbp
    bs({0x48, 0x89, 0xE5});        // mov rbp, rsp
    bs({0x53});                    // push rbx
    bs({0x41, 0x54});              // push r12
    bs({0x41, 0x55});              // push r13
    bs({0x41, 0x56});              // push r14 (rsp is now 16-aligned)
    op_rm(0, true, {0x8B}, R14, RDI, 0);   // inst
    op_rm(0, true, {0x8B}, RBX, RDI, 8);   // regs
    op_rm(0, true, {0x8B}, R12, RDI, 16);  // globals
    op_rm(0, true, {0x8B}, R13, RDI, 24);  // mem base
    for (const RegAlloc::Move& m : ra.entry) fill(m.loc, m.slot);
  }

  void epilogue() {
    bs({0x41, 0x5E});              // pop r14
    bs({0x41, 0x5D});              // pop r13
    bs({0x41, 0x5C});              // pop r12
    bs({0x5B});                    // pop rbx
    bs({0x5D});                    // pop rbp
    bs({0xC3});                    // ret
  }

  // --- finalization ------------------------------------------------------------

  /// Out-of-line stub: calls trapping `helper` on the Instance and the
  /// address in rax (or on the dividend in rax and the divisor in rcx). The
  /// helper raises the interpreter's trap and longjmps out: stubs are
  /// noreturn and need no register writeback.
  void trap_stub(JitHelperId helper, u32 len) {
    if (helper == JitHelperId::kTrapOob ||
        helper == JitHelperId::kTrapUnalignedAtomic) {
      op_rr(0, true, {0x89}, R14, RDI);  // mov rdi, r14
      op_rr(0, true, {0x89}, RAX, RSI);  // mov rsi, rax
      b1(0xBA);                          // mov edx, len
      i32le(len);
    } else {
      op_rr(0, true, {0x89}, RAX, RDI);  // mov rdi, rax
      op_rr(0, true, {0x89}, RCX, RSI);  // mov rsi, rcx (divisor)
    }
    call_helper(helper);
  }

  void finish() {
    // Fault sites share one OOB stub per access width, which passes rax to
    // the helper; they come first, so the body ends where the lowest stub
    // in the fault-site table starts. A site whose access is not
    // [r13 + rax] resumes at a stub of its own, shared by the sites with
    // the same (idx, disp, len), that rebuilds rax = zext(idx) + disp and
    // jumps to the shared one: a faulting access writes nothing, so idx
    // still holds the address's u32 part.
    u32 oob_stub[17] = {};  // by access width; code offset 0 is the prologue
    for (const FaultSite& fs : fault_sites) {
      if (oob_stub[fs.len] == 0) {
        oob_stub[fs.len] = u32(code.size());
        trap_stub(JitHelperId::kTrapOob, fs.len);
      }
    }
    std::map<std::tuple<u8, u32, u32>, u32> rebuild_stub;
    for (FaultSite& fs : fault_sites) {
      fs.stub = oob_stub[fs.len];
      if (fs.idx == RAX && fs.disp == 0) continue;
      auto [it, fresh] =
          rebuild_stub.try_emplace({fs.idx, fs.disp, fs.len}, u32(code.size()));
      if (fresh) {
        if (fs.idx != RAX) op_rr(0, false, {0x8B}, RAX, fs.idx);  // mov eax
        add_imm_rax(fs.disp);
        b1(0xE9);  // jmp rel32
        i32le(fs.stub - u32(code.size() + 4));
      }
      fs.stub = it->second;
    }
    // One stub per jcc site.
    for (const TrapSite& t : trap_sites) {
      patch32(t.at, u32(code.size()) - (t.at + 4));
      trap_stub(t.helper, t.len);
    }

    // 16-aligned constant pool.
    while (code.size() & 15) b1(0xCC);
    u32 pool_base = u32(code.size());
    for (const V128& v : pool)
      for (u8 byte : v.bytes) b1(byte);
    for (const PoolFix& p : pool_fixes)
      patch32(p.at, pool_base + p.index * 16 - (p.at + 4));

    // br_table jump tables: i32 offsets relative to each table's start.
    std::vector<u32> table_off(f.br_pool.size(), 0);
    for (size_t i = 0; i < f.br_pool.size(); ++i) {
      table_off[i] = u32(code.size());
      for (u32 t : f.br_pool[i]) i32le(u32(i32(ioff[t]) - i32(table_off[i])));
    }
    for (const TableFix& t : table_fixes)
      patch32(t.at, table_off[t.pool] - (t.at + 4));

    for (const BranchFix& br : branch_fixes)
      patch32(br.at, u32(i32(ioff[br.target]) - i32(br.at + 4)));

    // The fault-site table closes the blob (JitBlob::fault_sites).
    for (const FaultSite& fs : fault_sites) {
      i32le(fs.at);
      i32le(fs.stub);
    }
  }

  bool emit(size_t i);
  bool emit_instr(const RInstr& in);
  bool emit_simd_or_fused(const RInstr& in);
  bool emit_atomic(const RInstr& in);
};

/// Emits instruction i: its register-form template, or its frame template
/// under the fallback rule — register operands it reads (and, around a
/// helper call, every live register web) are stored to their home slots
/// first, and its register result (and those webs) are reloaded after.
bool Emitter::emit(size_t i) {
  at = i;
  const RInstr& in = f.code[i];
  if (reg_sig(in.op)) return emit_instr(in);
  for (const RegAlloc::Move& m : ra.saves(i)) spill(m.slot, m.loc);
  frame_only = true;
  const bool ok = emit_instr(in);
  frame_only = false;
  for (const RegAlloc::Move& m : ra.restores(i)) fill(m.loc, m.slot);
  return ok;
}

bool Emitter::emit_instr(const RInstr& in) {
  if (rop_is_atomic(in.op)) return emit_atomic(in);
  const u32 a = in.a, b = in.b, c = in.c;
  const u64 imm = in.imm;

  // setcc al; movzx eax, al; store32(a) — the tail of every scalar compare.
  auto setcc_store = [&](u8 cc) {
    bs({0x0F, u8(0x90 | cc), 0xC0});  // setcc al
    bs({0x0F, 0xB6, 0xC0});           // movzx eax, al
    store32(a, RAX);
  };
  // Integer compare: cmp r[b], r[c] then setcc.
  auto int_cmp = [&](bool w, u8 cc) {
    cmp_src(w, b, c);
    setcc_store(cc);
  };
  // Float eq/ne need the parity flag folded in (unordered => PF=1).
  auto f_eq_ne = [&](bool f64v, bool ne) {
    if (f64v)
      loadsd(X0, b);
    else
      loadss(X0, b);
    op_src(f64v ? 0x66 : 0, false, {0x0F, 0x2E}, X0, c);  // ucomis
    if (ne) {
      bs({0x0F, 0x9A, 0xC0});  // setp al
      bs({0x0F, 0x95, 0xC1});  // setne cl
      bs({0x08, 0xC8});        // or al, cl
    } else {
      bs({0x0F, 0x9B, 0xC0});  // setnp al
      bs({0x0F, 0x94, 0xC1});  // sete cl
      bs({0x20, 0xC8});        // and al, cl
    }
    bs({0x0F, 0xB6, 0xC0});  // movzx eax, al
    store32(a, RAX);
  };
  // Float ordered compare: ucomis x, [y]; seta/setae (unordered => false).
  auto f_ord = [&](bool f64v, u32 xs, u32 ys, u8 cc) {
    if (f64v)
      loadsd(X0, xs);
    else
      loadss(X0, xs);
    op_src(f64v ? 0x66 : 0, false, {0x0F, 0x2E}, X0, ys);
    setcc_store(cc);
  };
  // Integer binop: t = r[b]; op t, r[c]; r[a] = t.
  auto int_bin = [&](bool w, std::initializer_list<u8> ops) {
    const u8 t = gpr_work(RAX, {c});
    ld_gpr(t, w, b);
    op_src(0, w, ops, t, c);
    st_gpr(a, t, w);
  };
  // Variable shift/rotate through cl (hardware masking == wasm masking).
  auto int_shift = [&](bool w, u8 ext) {
    if (w)
      load64(RAX, b);
    else
      load32(RAX, b);
    load32(RCX, c);
    rex_if(w, 0, RAX);
    b1(0xD3);
    b1(u8(0xC0 | (ext << 3)));  // rm = rax
    if (w)
      store64(a, RAX);
    else
      store32(a, RAX);
  };
  // Hardware div/rem: dividend in rax, divisor in rcx. A zero divisor and
  // div_s(MIN, -1) jump to a stub calling the op's helper, which raises the
  // interpreter's trap; rem_s(x, -1) is 0 without dividing. No input reaches
  // a #DE fault.
  auto int_div = [&](bool w, bool sgn, bool rem, JitHelperId id) {
    ld_gpr(RAX, w, b);
    ld_gpr(RCX, w, c);
    op_rr(0, w, {0x85}, RCX, RCX);  // test rcx, rcx
    trap_jcc(CC_E, id);
    u32 skip = 0;
    if (sgn && rem) {
      op_rr(0, false, {0x31}, RDX, RDX);  // xor edx, edx
      alu_imm(w, 7, RCX, -1);             // cmp rcx, -1
      skip = jcc8(CC_E);
    } else if (sgn) {
      alu_imm(w, 7, RCX, -1);  // cmp rcx, -1
      const u32 ok = jcc8(CC_NE);
      if (w) {
        movabs(RDX, u64(1) << 63);
        op_rr(0, true, {0x39}, RDX, RAX);  // cmp rax, rdx
      } else {
        alu_imm(false, 7, RAX, i64(i32(0x80000000u)));  // cmp eax, MIN
      }
      trap_jcc(CC_E, id);
      label8(ok);
    }
    if (sgn) {
      if (w) b1(0x48);
      b1(0x99);                     // cdq / cqo
      op_rr(0, w, {0xF7}, 7, RCX);  // idiv rcx
    } else {
      op_rr(0, false, {0x31}, RDX, RDX);  // xor edx, edx
      op_rr(0, w, {0xF7}, 6, RCX);        // div rcx
    }
    if (sgn && rem) label8(skip);
    st_gpr(a, rem ? RDX : RAX, w);
  };
  // Bit-count: hardware op when the feature is present, else helper.
  auto bit_count = [&](bool w, u8 opc, u32 feat, JitHelperId id) {
    if (feats & feat) {
      op_src(0xF3, w, {0x0F, opc}, RAX, b);
      if (w)
        store64(a, RAX);
      else
        store32(a, RAX);
    } else {
      if (w)
        load64(RDI, b);
      else
        load32(RDI, b);
      call_helper(id);
      if (w)
        store64(a, RAX);
      else
        store32(a, RAX);
    }
  };
  // f32/f64 binop: x = r[b]; op x, r[c]; r[a] = x (pfx F3 = ss, F2 = sd).
  auto f_bin = [&](bool f64v, u8 opc) {
    const u8 x = xmm_work(X0, {c});
    ld_xmm(x, b, f64v ? 8 : 4);
    op_src(f64v ? 0xF2 : 0xF3, false, {0x0F, opc}, x, c);
    st_xmm(a, x, f64v ? 8 : 4);
  };
  // f32/f64 min/max/nearest/... via an (xmm0[, xmm1]) -> xmm0 helper.
  auto f_bin_helper = [&](bool f64v, JitHelperId id) {
    if (f64v) {
      loadsd(X0, b);
      loadsd(X1, c);
    } else {
      loadss(X0, b);
      loadss(X1, c);
    }
    call_helper(id);
    if (f64v)
      storesd(a, X0);
    else
      storess(a, X0);
  };
  // roundss/roundsd when SSE4.1 is present, else helper.
  auto f_round = [&](bool f64v, u8 mode, JitHelperId id) {
    if (feats & kJitFeatSse41) {
      // 66 0F 3A 0A/0B /r ib with a memory source.
      op_rm(0x66, false, {0x0F, 0x3A, f64v ? u8(0x0B) : u8(0x0A)}, X0, RBX,
            slot(b));
      b1(mode);
    } else {
      if (f64v)
        loadsd(X0, b);
      else
        loadss(X0, b);
      call_helper(id);
    }
    if (f64v)
      storesd(a, X0);
    else
      storess(a, X0);
  };
  // f32/f64 -> int truncation helper: arg xmm0, result (r)ax.
  auto trunc_helper = [&](bool src64, bool dst64, JitHelperId id) {
    if (src64)
      loadsd(X0, b);
    else
      loadss(X0, b);
    call_helper(id);
    if (dst64)
      store64(a, RAX);
    else
      store32(a, RAX);
  };
  // Scalar guest load from [r13+rax] into r[a] (opcode list + width).
  auto load_mem = [&](bool w, std::initializer_list<u8> ops, u32 len,
                      bool store_w) {
    guest_addr(b, imm, len);
    const u8 t = gpr_work(RCX);
    op_mem(0, w, ops, t);
    st_gpr(a, t, store_w);
  };
  // Scalar guest store of r[b]'s low bytes to [r13+rax]. op_mem always
  // emits REX, so byte stores of sil/dil encode correctly.
  auto store_mem = [&](u8 pfx, bool w, std::initializer_list<u8> ops,
                       u32 len, bool load_w) {
    guest_addr(a, imm, len);
    op_mem(pfx, w, ops, gpr_of(b, RCX, load_w));
  };
  switch (in.op) {
    case ROp::kNop:
      return true;
    case ROp::kMov:
    case ROp::kI32ReinterpretF32:
    case ROp::kI64ReinterpretF64:
    case ROp::kF32ReinterpretI32:
    case ROp::kF64ReinterpretI64:
      slot_copy(a, b);
      return true;
    case ROp::kConst: {
      const u8 d = dst_loc(a);
      if (d != kFrame && !(d & kXmm)) {
        mov_imm(d, imm);
      } else if (d != kFrame && imm == 0) {
        op_rr(0, false, {0x0F, 0x57}, d & 15, d & 15);  // xorps d, d
      } else if (d == kFrame && imm == u64(i64(i32(u32(imm))))) {
        // mov qword [slot], simm32 — writes exactly 8 bytes like the handler.
        op_rm(0, true, {0xC7}, 0, RBX, slot(a));
        i32le(u32(imm));
      } else {
        mov_imm(RAX, imm);
        store64(a, RAX);
      }
      return true;
    }
    case ROp::kConstV128:
      load_pool(xmm_work(X0), u32(imm));
      storeaps(a, xmm_work(X0));
      return true;
    case ROp::kSelect: {
      // if (r[c].i32 == 0) A = B
      op_src(0, false, {0x83}, 7, c);  // cmp dword [c], 0
      b1(0);
      u32 skip = jcc8(CC_NE);
      slot_copy(a, b);
      label8(skip);
      return true;
    }
    case ROp::kGlobalGet:
      op_rm(0, false, {0x0F, 0x28}, X0, R12, i64(imm) * 16);  // movaps
      storeaps(a, X0);
      return true;
    case ROp::kGlobalSet:
      loadaps(X0, a);
      op_rm(0, false, {0x0F, 0x29}, X0, R12, i64(imm) * 16);
      return true;

    case ROp::kBr:
      jmp32(u32(imm));
      return true;
    case ROp::kBrIf:
      op_src(0, false, {0x83}, 7, a);  // cmp dword [a], 0
      b1(0);
      jcc32(CC_NE, u32(imm));
      return true;
    case ROp::kBrIfNot:
      op_src(0, false, {0x83}, 7, a);
      b1(0);
      jcc32(CC_E, u32(imm));
      return true;
    case ROp::kBrTable: {
      const auto& targets = f.br_pool[imm];
      load32(RAX, a);
      b1(0xB9);  // mov ecx, size-1
      i32le(u32(targets.size() - 1));
      op_rr(0, false, {0x39}, RCX, RAX);        // cmp eax, ecx
      op_rr(0, false, {0x0F, 0x43}, RAX, RCX);  // cmovae eax, ecx (clamp)
      {                                          // lea rdx, [rip + table]
        rex_if(true, RDX, 0);
        b1(0x8D);
        b1(u8(0x00 | ((RDX & 7) << 3) | 5));
        table_fixes.push_back({u32(code.size()), u32(imm)});
        i32le(0);
      }
      // movsxd rax, dword [rdx + rax*4]
      bs({0x48, 0x63, 0x04, 0x82});
      bs({0x48, 0x01, 0xD0});  // add rax, rdx
      bs({0xFF, 0xE0});        // jmp rax
      return true;
    }
    case ROp::kReturn: {
      // The result goes to slot 0 of the frame, where the caller reads it.
      const u8 l = src_loc(a);
      if (l != kFrame) {
        spill(0, l);
      } else if (a != 0) {
        op_rm(0, false, {0x0F, 0x28}, X0, RBX, slot(a));
        op_rm(0, false, {0x0F, 0x29}, X0, RBX, slot(0));
      }
      epilogue();
      return true;
    }
    case ROp::kReturnVoid:
      epilogue();
      return true;
    case ROp::kCall:
      op_rr(0, true, {0x89}, R14, RDI);  // mov rdi, r14
      b1(0xBE);                          // mov esi, fidx
      i32le(u32(imm));
      op_rm(0, true, {0x8D}, RDX, RBX, slot(a));  // lea rdx, [argbase]
      call_helper(JitHelperId::kCall);
      return true;
    case ROp::kCallIndirect:
      op_rr(0, true, {0x89}, R14, RDI);
      b1(0xBE);  // mov esi, type_imm
      i32le(u32(imm));
      op_rm(0, true, {0x8D}, RDX, RBX, slot(a));
      b1(0xB9);  // mov ecx, argc
      i32le(b);
      call_helper(JitHelperId::kCallIndirect);
      return true;
    case ROp::kUnreachable:
      call_helper(JitHelperId::kTrapUnreachable);
      return true;

    case ROp::kMemorySize:  // the live size: another thread may have grown it
      op_rr(0, true, {0x89}, R14, RDI);
      call_helper(JitHelperId::kMemorySize);
      store32(a, RAX);
      return true;
    case ROp::kMemoryGrow:
      op_rr(0, true, {0x89}, R14, RDI);
      op_rm(0, true, {0x8D}, RSI, RBX, slot(a));  // lea rsi, [slot a]
      call_helper(JitHelperId::kMemoryGrow);
      return true;
    case ROp::kMemoryCopy:
      op_rr(0, true, {0x89}, R14, RDI);
      load32(RSI, a);
      load32(RDX, b);
      load32(RCX, c);
      call_helper(JitHelperId::kMemoryCopy);
      return true;
    case ROp::kMemoryFill:
      op_rr(0, true, {0x89}, R14, RDI);
      load32(RSI, a);
      load32(RDX, b);
      load32(RCX, c);
      call_helper(JitHelperId::kMemoryFill);
      return true;

    // --- loads ---
    case ROp::kI32Load:
      load_mem(false, {0x8B}, 4, false);
      return true;
    case ROp::kI64Load:
      load_mem(true, {0x8B}, 8, true);
      return true;
    case ROp::kF32Load:
      guest_addr(b, imm, 4);
      op_mem(0xF3, false, {0x0F, 0x10}, xmm_work(X0));
      storess(a, xmm_work(X0));
      return true;
    case ROp::kF64Load:
      guest_addr(b, imm, 8);
      op_mem(0xF2, false, {0x0F, 0x10}, xmm_work(X0));
      storesd(a, xmm_work(X0));
      return true;
    case ROp::kI32Load8S:
      load_mem(false, {0x0F, 0xBE}, 1, false);
      return true;
    case ROp::kI32Load8U:
      load_mem(false, {0x0F, 0xB6}, 1, false);
      return true;
    case ROp::kI32Load16S:
      load_mem(false, {0x0F, 0xBF}, 2, false);
      return true;
    case ROp::kI32Load16U:
      load_mem(false, {0x0F, 0xB7}, 2, false);
      return true;
    case ROp::kI64Load8S:
      load_mem(true, {0x0F, 0xBE}, 1, true);
      return true;
    case ROp::kI64Load8U:
      load_mem(false, {0x0F, 0xB6}, 1, true);  // 32-bit movzx zero-extends
      return true;
    case ROp::kI64Load16S:
      load_mem(true, {0x0F, 0xBF}, 2, true);
      return true;
    case ROp::kI64Load16U:
      load_mem(false, {0x0F, 0xB7}, 2, true);
      return true;
    case ROp::kI64Load32S:
      load_mem(true, {0x63}, 4, true);  // movsxd
      return true;
    case ROp::kI64Load32U:
      load_mem(false, {0x8B}, 4, true);
      return true;
    case ROp::kV128Load:
      guest_addr(b, imm, 16);
      op_mem(0, false, {0x0F, 0x10}, xmm_work(X0));  // movups
      storeaps(a, xmm_work(X0));
      return true;
    case ROp::kV128Load32Splat:
      guest_addr(b, imm, 4);
      op_mem(0x66, false, {0x0F, 0x6E}, X0);  // movd
      bs({0x66, 0x0F, 0x70, 0xC0, 0x00});     // pshufd x0, x0, 0
      storeaps(a, X0);
      return true;
    case ROp::kV128Load64Splat:
      guest_addr(b, imm, 8);
      op_mem(0xF3, false, {0x0F, 0x7E}, X0);  // movq
      bs({0x66, 0x0F, 0x6C, 0xC0});           // punpcklqdq x0, x0
      storeaps(a, X0);
      return true;

    // --- stores ---
    case ROp::kI32Store:
      store_mem(0, false, {0x89}, 4, false);
      return true;
    case ROp::kI64Store:
      store_mem(0, true, {0x89}, 8, true);
      return true;
    case ROp::kF32Store:
      guest_addr(a, imm, 4);
      op_mem(0xF3, false, {0x0F, 0x11}, xmm_of(b, X0, 4));
      return true;
    case ROp::kF64Store:
      guest_addr(a, imm, 8);
      op_mem(0xF2, false, {0x0F, 0x11}, xmm_of(b, X0, 8));
      return true;
    case ROp::kI32Store8:
    case ROp::kI64Store8:
      store_mem(0, false, {0x88}, 1, false);  // mov [mem], cl
      return true;
    case ROp::kI32Store16:
    case ROp::kI64Store16:
      store_mem(0x66, false, {0x89}, 2, false);
      return true;
    case ROp::kI64Store32:
      store_mem(0, false, {0x89}, 4, false);
      return true;
    case ROp::kV128Store:
      guest_addr(a, imm, 16);
      op_mem(0, false, {0x0F, 0x11}, xmm_of(b, X0, 16));  // movups
      return true;

    // --- integer compares ---
    case ROp::kI32Eqz:
    case ROp::kI64Eqz:
      op_src(0, in.op == ROp::kI64Eqz, {0x83}, 7, b);  // cmp [b], 0
      b1(0);
      setcc_store(CC_E);
      return true;
    case ROp::kI32Eq: int_cmp(false, CC_E); return true;
    case ROp::kI32Ne: int_cmp(false, CC_NE); return true;
    case ROp::kI32LtS: int_cmp(false, CC_L); return true;
    case ROp::kI32LtU: int_cmp(false, CC_B); return true;
    case ROp::kI32GtS: int_cmp(false, CC_G); return true;
    case ROp::kI32GtU: int_cmp(false, CC_A); return true;
    case ROp::kI32LeS: int_cmp(false, CC_LE); return true;
    case ROp::kI32LeU: int_cmp(false, CC_BE); return true;
    case ROp::kI32GeS: int_cmp(false, CC_GE); return true;
    case ROp::kI32GeU: int_cmp(false, CC_AE); return true;
    case ROp::kI64Eq: int_cmp(true, CC_E); return true;
    case ROp::kI64Ne: int_cmp(true, CC_NE); return true;
    case ROp::kI64LtS: int_cmp(true, CC_L); return true;
    case ROp::kI64LtU: int_cmp(true, CC_B); return true;
    case ROp::kI64GtS: int_cmp(true, CC_G); return true;
    case ROp::kI64GtU: int_cmp(true, CC_A); return true;
    case ROp::kI64LeS: int_cmp(true, CC_LE); return true;
    case ROp::kI64LeU: int_cmp(true, CC_BE); return true;
    case ROp::kI64GeS: int_cmp(true, CC_GE); return true;
    case ROp::kI64GeU: int_cmp(true, CC_AE); return true;

    // --- float compares (x < y computed as y > x so unordered => false) ---
    case ROp::kF32Eq: f_eq_ne(false, false); return true;
    case ROp::kF32Ne: f_eq_ne(false, true); return true;
    case ROp::kF32Lt: f_ord(false, c, b, CC_A); return true;
    case ROp::kF32Gt: f_ord(false, b, c, CC_A); return true;
    case ROp::kF32Le: f_ord(false, c, b, CC_AE); return true;
    case ROp::kF32Ge: f_ord(false, b, c, CC_AE); return true;
    case ROp::kF64Eq: f_eq_ne(true, false); return true;
    case ROp::kF64Ne: f_eq_ne(true, true); return true;
    case ROp::kF64Lt: f_ord(true, c, b, CC_A); return true;
    case ROp::kF64Gt: f_ord(true, b, c, CC_A); return true;
    case ROp::kF64Le: f_ord(true, c, b, CC_AE); return true;
    case ROp::kF64Ge: f_ord(true, b, c, CC_AE); return true;

    // --- integer arithmetic ---
    case ROp::kI32Clz:
      bit_count(false, 0xBD, kJitFeatLzcnt, JitHelperId::kI32Clz);
      return true;
    case ROp::kI32Ctz:
      bit_count(false, 0xBC, kJitFeatBmi1, JitHelperId::kI32Ctz);
      return true;
    case ROp::kI32Popcnt:
      bit_count(false, 0xB8, kJitFeatPopcnt, JitHelperId::kI32Popcnt);
      return true;
    case ROp::kI64Clz:
      bit_count(true, 0xBD, kJitFeatLzcnt, JitHelperId::kI64Clz);
      return true;
    case ROp::kI64Ctz:
      bit_count(true, 0xBC, kJitFeatBmi1, JitHelperId::kI64Ctz);
      return true;
    case ROp::kI64Popcnt:
      bit_count(true, 0xB8, kJitFeatPopcnt, JitHelperId::kI64Popcnt);
      return true;
    case ROp::kI32Add: int_bin(false, {0x03}); return true;
    case ROp::kI32Sub: int_bin(false, {0x2B}); return true;
    case ROp::kI32Mul: int_bin(false, {0x0F, 0xAF}); return true;
    case ROp::kI32And: int_bin(false, {0x23}); return true;
    case ROp::kI32Or: int_bin(false, {0x0B}); return true;
    case ROp::kI32Xor: int_bin(false, {0x33}); return true;
    case ROp::kI64Add: int_bin(true, {0x03}); return true;
    case ROp::kI64Sub: int_bin(true, {0x2B}); return true;
    case ROp::kI64Mul: int_bin(true, {0x0F, 0xAF}); return true;
    case ROp::kI64And: int_bin(true, {0x23}); return true;
    case ROp::kI64Or: int_bin(true, {0x0B}); return true;
    case ROp::kI64Xor: int_bin(true, {0x33}); return true;
    case ROp::kI32DivS:
      int_div(false, true, false, JitHelperId::kI32DivS);
      return true;
    case ROp::kI32DivU:
      int_div(false, false, false, JitHelperId::kI32DivU);
      return true;
    case ROp::kI32RemS:
      int_div(false, true, true, JitHelperId::kI32RemS);
      return true;
    case ROp::kI32RemU:
      int_div(false, false, true, JitHelperId::kI32RemU);
      return true;
    case ROp::kI64DivS:
      int_div(true, true, false, JitHelperId::kI64DivS);
      return true;
    case ROp::kI64DivU:
      int_div(true, false, false, JitHelperId::kI64DivU);
      return true;
    case ROp::kI64RemS:
      int_div(true, true, true, JitHelperId::kI64RemS);
      return true;
    case ROp::kI64RemU:
      int_div(true, false, true, JitHelperId::kI64RemU);
      return true;
    case ROp::kI32Shl: int_shift(false, 4); return true;
    case ROp::kI32ShrS: int_shift(false, 7); return true;
    case ROp::kI32ShrU: int_shift(false, 5); return true;
    case ROp::kI32Rotl: int_shift(false, 0); return true;
    case ROp::kI32Rotr: int_shift(false, 1); return true;
    case ROp::kI64Shl: int_shift(true, 4); return true;
    case ROp::kI64ShrS: int_shift(true, 7); return true;
    case ROp::kI64ShrU: int_shift(true, 5); return true;
    case ROp::kI64Rotl: int_shift(true, 0); return true;
    case ROp::kI64Rotr: int_shift(true, 1); return true;

    // --- float arithmetic ---
    case ROp::kF32Abs:
      load32(RAX, b);
      b1(0x25);  // and eax, 0x7FFFFFFF
      i32le(0x7FFFFFFFu);
      store32(a, RAX);
      return true;
    case ROp::kF32Neg:
      load32(RAX, b);
      b1(0x35);  // xor eax, 0x80000000
      i32le(0x80000000u);
      store32(a, RAX);
      return true;
    case ROp::kF64Abs:
      load64(RAX, b);
      bs({0x48, 0x0F, 0xBA, 0xF0, 63});  // btr rax, 63
      store64(a, RAX);
      return true;
    case ROp::kF64Neg:
      load64(RAX, b);
      bs({0x48, 0x0F, 0xBA, 0xF8, 63});  // btc rax, 63
      store64(a, RAX);
      return true;
    case ROp::kF32Copysign:
      load32(RAX, b);
      b1(0x25);
      i32le(0x7FFFFFFFu);
      load32(RCX, c);
      bs({0x81, 0xE1});  // and ecx, 0x80000000
      i32le(0x80000000u);
      bs({0x09, 0xC8});  // or eax, ecx
      store32(a, RAX);
      return true;
    case ROp::kF64Copysign:
      load64(RAX, b);
      bs({0x48, 0x0F, 0xBA, 0xF0, 63});  // btr rax, 63
      load64(RCX, c);
      shift_imm(true, 5, RCX, 63);  // shr rcx, 63
      shift_imm(true, 4, RCX, 63);  // shl rcx, 63
      op_rr(0, true, {0x09}, RCX, RAX);  // or rax, rcx
      store64(a, RAX);
      return true;
    case ROp::kF32Sqrt:
      op_src(0xF3, false, {0x0F, 0x51}, X0, b);
      storess(a, X0);
      return true;
    case ROp::kF64Sqrt:
      op_src(0xF2, false, {0x0F, 0x51}, X0, b);
      storesd(a, X0);
      return true;
    case ROp::kF32Ceil: f_round(false, 0x0A, JitHelperId::kF32Ceil); return true;
    case ROp::kF32Floor: f_round(false, 0x09, JitHelperId::kF32Floor); return true;
    case ROp::kF32Trunc: f_round(false, 0x0B, JitHelperId::kF32Trunc); return true;
    case ROp::kF32Nearest: f_round(false, 0x08, JitHelperId::kF32Nearest); return true;
    case ROp::kF64Ceil: f_round(true, 0x0A, JitHelperId::kF64Ceil); return true;
    case ROp::kF64Floor: f_round(true, 0x09, JitHelperId::kF64Floor); return true;
    case ROp::kF64Trunc: f_round(true, 0x0B, JitHelperId::kF64Trunc); return true;
    case ROp::kF64Nearest: f_round(true, 0x08, JitHelperId::kF64Nearest); return true;
    case ROp::kF32Add: f_bin(false, 0x58); return true;
    case ROp::kF32Sub: f_bin(false, 0x5C); return true;
    case ROp::kF32Mul: f_bin(false, 0x59); return true;
    case ROp::kF32Div: f_bin(false, 0x5E); return true;
    case ROp::kF64Add: f_bin(true, 0x58); return true;
    case ROp::kF64Sub: f_bin(true, 0x5C); return true;
    case ROp::kF64Mul: f_bin(true, 0x59); return true;
    case ROp::kF64Div: f_bin(true, 0x5E); return true;
    case ROp::kF32Min: f_bin_helper(false, JitHelperId::kF32Min); return true;
    case ROp::kF32Max: f_bin_helper(false, JitHelperId::kF32Max); return true;
    case ROp::kF64Min: f_bin_helper(true, JitHelperId::kF64Min); return true;
    case ROp::kF64Max: f_bin_helper(true, JitHelperId::kF64Max); return true;

    // --- conversions ---
    case ROp::kI32WrapI64:
      load32(RAX, b);
      store32(a, RAX);
      return true;
    case ROp::kI32TruncF32S:
      trunc_helper(false, false, JitHelperId::kI32TruncF32S);
      return true;
    case ROp::kI32TruncF32U:
      trunc_helper(false, false, JitHelperId::kI32TruncF32U);
      return true;
    case ROp::kI32TruncF64S:
      trunc_helper(true, false, JitHelperId::kI32TruncF64S);
      return true;
    case ROp::kI32TruncF64U:
      trunc_helper(true, false, JitHelperId::kI32TruncF64U);
      return true;
    case ROp::kI64TruncF32S:
      trunc_helper(false, true, JitHelperId::kI64TruncF32S);
      return true;
    case ROp::kI64TruncF32U:
      trunc_helper(false, true, JitHelperId::kI64TruncF32U);
      return true;
    case ROp::kI64TruncF64S:
      trunc_helper(true, true, JitHelperId::kI64TruncF64S);
      return true;
    case ROp::kI64TruncF64U:
      trunc_helper(true, true, JitHelperId::kI64TruncF64U);
      return true;
    case ROp::kI64ExtendI32S:
      op_src(0, true, {0x63}, RAX, b);  // movsxd
      store64(a, RAX);
      return true;
    case ROp::kI64ExtendI32U:
      load32(RAX, b);  // zero-extends
      store64(a, RAX);
      return true;
    case ROp::kF32ConvertI32S:
      op_src(0xF3, false, {0x0F, 0x2A}, X0, b);  // cvtsi2ss m32
      storess(a, X0);
      return true;
    case ROp::kF32ConvertI32U:
      load32(RAX, b);
      op_rr(0xF3, true, {0x0F, 0x2A}, X0, RAX);  // cvtsi2ss x0, rax
      storess(a, X0);
      return true;
    case ROp::kF32ConvertI64S:
      op_src(0xF3, true, {0x0F, 0x2A}, X0, b);
      storess(a, X0);
      return true;
    case ROp::kF32ConvertI64U:
      load64(RDI, b);
      call_helper(JitHelperId::kF32ConvertI64U);
      storess(a, X0);
      return true;
    case ROp::kF32DemoteF64:
      op_src(0xF2, false, {0x0F, 0x5A}, X0, b);  // cvtsd2ss
      storess(a, X0);
      return true;
    case ROp::kF64ConvertI32S:
      op_src(0xF2, false, {0x0F, 0x2A}, X0, b);  // cvtsi2sd m32
      storesd(a, X0);
      return true;
    case ROp::kF64ConvertI32U:
      load32(RAX, b);
      op_rr(0xF2, true, {0x0F, 0x2A}, X0, RAX);
      storesd(a, X0);
      return true;
    case ROp::kF64ConvertI64S:
      op_src(0xF2, true, {0x0F, 0x2A}, X0, b);
      storesd(a, X0);
      return true;
    case ROp::kF64ConvertI64U:
      load64(RDI, b);
      call_helper(JitHelperId::kF64ConvertI64U);
      storesd(a, X0);
      return true;
    case ROp::kF64PromoteF32:
      op_src(0xF3, false, {0x0F, 0x5A}, X0, b);  // cvtss2sd
      storesd(a, X0);
      return true;
    case ROp::kI32Extend8S:
      op_src(0, false, {0x0F, 0xBE}, RAX, b);
      store32(a, RAX);
      return true;
    case ROp::kI32Extend16S:
      op_src(0, false, {0x0F, 0xBF}, RAX, b);
      store32(a, RAX);
      return true;
    case ROp::kI64Extend8S:
      op_src(0, true, {0x0F, 0xBE}, RAX, b);
      store64(a, RAX);
      return true;
    case ROp::kI64Extend16S:
      op_src(0, true, {0x0F, 0xBF}, RAX, b);
      store64(a, RAX);
      return true;
    case ROp::kI64Extend32S:
      op_src(0, true, {0x63}, RAX, b);
      store64(a, RAX);
      return true;

    default:
      return emit_simd_or_fused(in);
  }
}

bool Emitter::emit_simd_or_fused(const RInstr& in) {
  const u32 a = in.a, b = in.b, c = in.c, d = in.d;
  const u64 imm = in.imm;

  auto setcc_store = [&](u8 cc) {
    bs({0x0F, u8(0x90 | cc), 0xC0});
    bs({0x0F, 0xB6, 0xC0});
    store32(a, RAX);
  };
  // x = r[b]; op x, r[c]; r[a] = x — the standard vector binop shape.
  auto v_bin = [&](u8 pfx, std::initializer_list<u8> ops) {
    const u8 x = xmm_work(X0, {c});
    loadaps(x, b);
    op_src(pfx, false, ops, x, c);
    storeaps(a, x);
  };
  // Operand-swapped variant (pcmpgt-as-lt, pmin/pmax NaN order, pandn).
  auto v_bin_rev = [&](u8 pfx, std::initializer_list<u8> ops) {
    const u8 x = xmm_work(X0, {b});
    loadaps(x, c);
    op_src(pfx, false, ops, x, b);
    storeaps(a, x);
  };
  // pcmpeq + full invert for the Ne forms.
  auto v_ne = [&](u8 eq_opc) {
    loadaps(X0, b);
    op_src(0x66, false, {0x0F, eq_opc}, X0, c);
    bs({0x66, 0x0F, 0x76, 0xC9});  // pcmpeqd x1, x1 (all ones)
    bs({0x66, 0x0F, 0xEF, 0xC1});  // pxor x0, x1
    storeaps(a, X0);
  };
  // all_true: no lane may be zero <=> pcmpeq-with-zero mask is empty.
  auto v_all_true = [&](std::initializer_list<u8> cmp_ops) {
    op_rr(0x66, false, {0x0F, 0xEF}, X0, X0);  // pxor x0, x0
    op_src(0x66, false, cmp_ops, X0, b);
    op_rr(0x66, false, {0x0F, 0xD7}, RAX, X0);  // pmovmskb eax, x0
    bs({0x85, 0xC0});                           // test eax, eax
    setcc_store(CC_E);
  };
  auto v_neg = [&](u8 psub_opc) {  // 0 - r[b], lanewise
    op_rr(0x66, false, {0x0F, 0xEF}, X0, X0);
    op_src(0x66, false, {0x0F, psub_opc}, X0, b);
    storeaps(a, X0);
  };
  // Lane shift by r[c] & mask through xmm1 (hardware uses the full 64-bit
  // count, so the mod-lane-width mask must be applied explicitly).
  auto v_shift = [&](u8 opc, u8 mask) {
    load32(RCX, c);
    alu_imm(false, 4, RCX, mask);              // and ecx, mask
    op_rr(0x66, false, {0x0F, 0x6E}, X1, RCX);  // movd x1, ecx
    loadaps(X0, b);
    op_rr(0x66, false, {0x0F, opc}, X0, X1);
    storeaps(a, X0);
  };
  // cmpps/cmppd xs, [ys], pred (operand order picked so unordered => false
  // matches the C++ comparison in every case).
  auto v_cmpf = [&](bool pd, u32 xs, u32 ys, u8 pred) {
    loadaps(X0, xs);
    op_src(pd ? 0x66 : 0, false, {0x0F, 0xC2}, X0, ys);
    b1(pred);
    storeaps(a, X0);
  };
  // andps/xorps with a rip-relative sign/abs mask from the pool.
  auto v_mask = [&](u8 opc, u32 pool_idx) {
    loadaps(X0, b);
    u32 at = op_rip(0, {0x0F, opc}, X0);
    pool_fixes.push_back({at, pool_idx});
    storeaps(a, X0);
  };
  // Value load/store at [r13+rax] for the indexed memory family.
  enum class LK { i32, i64, f32, f64, v128 };
  auto lk_len = [](LK k) -> u32 {
    switch (k) {
      case LK::i32: case LK::f32: return 4;
      case LK::i64: case LK::f64: return 8;
      default: return 16;
    }
  };
  auto load_val = [&](LK k) {
    switch (k) {
      case LK::i32:
      case LK::i64: {
        const u8 t = gpr_work(RCX);
        op_mem(0, k == LK::i64, {0x8B}, t);
        st_gpr(a, t, k == LK::i64);
        return;
      }
      case LK::f32:
      case LK::f64: {
        const u8 x = xmm_work(X0);
        op_mem(k == LK::f64 ? 0xF2 : 0xF3, false, {0x0F, 0x10}, x);
        st_xmm(a, x, lk_len(k));
        return;
      }
      case LK::v128:
        op_mem(0, false, {0x0F, 0x10}, xmm_work(X0));
        storeaps(a, xmm_work(X0));
        return;
    }
  };
  auto store_val = [&](LK k) {  // value comes from r[b]
    switch (k) {
      case LK::i32:
      case LK::i64:
        op_mem(0, k == LK::i64, {0x89}, gpr_of(b, RCX, k == LK::i64));
        return;
      case LK::f32:
        op_mem(0xF3, false, {0x0F, 0x11}, xmm_of(b, X0, 4));
        return;
      case LK::f64:
        op_mem(0xF2, false, {0x0F, 0x11}, xmm_of(b, X0, 8));
        return;
      case LK::v128:
        op_mem(0, false, {0x0F, 0x11}, xmm_of(b, X0, 16));
        return;
    }
  };
  auto load_ix = [&](LK k) {  // addr = IXADDR(r[b])
    ix_addr(b, c, d, imm);
    guest_access(lk_len(k));
    load_val(k);
  };
  auto store_ix = [&](LK k) {  // addr = IXADDR(r[a])
    ix_addr(a, c, d, imm);
    guest_access(lk_len(k));
    store_val(k);
  };
  // BRCMP family: cmp r[a], r[b]; jcc target.
  auto br_cmp = [&](u8 cc) {
    cmp_src(false, a, b);
    jcc32(cc, u32(imm));
  };

  switch (in.op) {
    // --- splats / lanes ---
    case ROp::kI8x16Splat:
    case ROp::kI16x8Splat:
    case ROp::kI32x4Splat:
      op_src(0x66, false, {0x0F, 0x6E}, X0, b);  // movd
      if (in.op == ROp::kI8x16Splat)
        bs({0x66, 0x0F, 0x60, 0xC0});  // punpcklbw x0, x0: byte -> word
      if (in.op != ROp::kI32x4Splat)
        bs({0xF2, 0x0F, 0x70, 0xC0, 0x00});  // pshuflw x0,x0,0: word -> dword
      bs({0x66, 0x0F, 0x70, 0xC0, 0x00});    // pshufd x0,x0,0
      storeaps(a, X0);
      return true;
    case ROp::kI64x2Splat:
      if (src_loc(b) == kFrame)
        op_rm(0xF3, false, {0x0F, 0x7E}, X0, RBX, slot(b));  // movq x0, m64
      else
        movq_to_xmm(true, X0, src_loc(b));
      bs({0x66, 0x0F, 0x6C, 0xC0});  // punpcklqdq
      storeaps(a, X0);
      return true;
    case ROp::kF32x4Splat:
      loadss(X0, b);
      bs({0x0F, 0xC6, 0xC0, 0x00});  // shufps x0, x0, 0
      storeaps(a, X0);
      return true;
    case ROp::kF64x2Splat:
      loadsd(X0, b);
      bs({0x66, 0x0F, 0x14, 0xC0});  // unpcklpd x0, x0
      storeaps(a, X0);
      return true;
    case ROp::kI8x16ExtractLaneS:
      op_rm(0, false, {0x0F, 0xBE}, RAX, RBX, slot(b) + i64(imm));
      store32(a, RAX);
      return true;
    case ROp::kI8x16ExtractLaneU:
      op_rm(0, false, {0x0F, 0xB6}, RAX, RBX, slot(b) + i64(imm));
      store32(a, RAX);
      return true;
    case ROp::kI16x8ExtractLaneS:
      op_rm(0, false, {0x0F, 0xBF}, RAX, RBX, slot(b) + i64(imm) * 2);
      store32(a, RAX);
      return true;
    case ROp::kI16x8ExtractLaneU:
      op_rm(0, false, {0x0F, 0xB7}, RAX, RBX, slot(b) + i64(imm) * 2);
      store32(a, RAX);
      return true;
    // 32/64-bit lanes: from the frame, a load at the lane's offset; from a
    // register, pshufd the lane down to element 0 of xmm0 first.
    case ROp::kI32x4ExtractLane:
    case ROp::kI64x2ExtractLane:
    case ROp::kF32x4ExtractLane:
    case ROp::kF64x2ExtractLane: {
      const bool wide =
          in.op == ROp::kI64x2ExtractLane || in.op == ROp::kF64x2ExtractLane;
      const u32 width = wide ? 8 : 4;
      const bool to_int =
          in.op == ROp::kI32x4ExtractLane || in.op == ROp::kI64x2ExtractLane;
      const u8 l = src_loc(b);
      if (l == kFrame) {
        if (to_int) {
          op_rm(0, wide, {0x8B}, RAX, RBX, slot(b) + i64(imm) * width);
          st_gpr(a, RAX, wide);
        } else {
          op_rm(wide ? 0xF2 : 0xF3, false, {0x0F, 0x10}, X0, RBX,
                slot(b) + i64(imm) * width);
          st_xmm(a, X0, width);
        }
        return true;
      }
      u8 x = l & 15;
      if (imm != 0) {
        op_rr(0x66, false, {0x0F, 0x70}, X0, x);  // pshufd x0, x, lane
        b1(wide ? u8(0xEE) : u8(0x55 * imm));
        x = X0;
      }
      st_xmm(a, x, width);  // movd/movq into a GPR destination
      return true;
    }
    // Replace: the scalar is read before the base copy because a may alias c.
    case ROp::kI8x16ReplaceLane:
      load32(RCX, c);
      slot_copy(a, b);
      op_rm(0, false, {0x88}, RCX, RBX, slot(a) + i64(imm));
      return true;
    case ROp::kI16x8ReplaceLane:
      load32(RCX, c);
      slot_copy(a, b);
      op_rm(0x66, false, {0x89}, RCX, RBX, slot(a) + i64(imm) * 2);
      return true;
    case ROp::kI32x4ReplaceLane:
      load32(RCX, c);
      slot_copy(a, b);
      op_rm(0, false, {0x89}, RCX, RBX, slot(a) + i64(imm) * 4);
      return true;
    case ROp::kI64x2ReplaceLane:
      load64(RCX, c);
      slot_copy(a, b);
      op_rm(0, true, {0x89}, RCX, RBX, slot(a) + i64(imm) * 8);
      return true;
    case ROp::kF32x4ReplaceLane:
      loadss(X1, c);
      slot_copy(a, b);
      op_rm(0xF3, false, {0x0F, 0x11}, X1, RBX, slot(a) + i64(imm) * 4);
      return true;
    case ROp::kF64x2ReplaceLane:
      loadsd(X1, c);
      slot_copy(a, b);
      op_rm(0xF2, false, {0x0F, 0x11}, X1, RBX, slot(a) + i64(imm) * 8);
      return true;

    // --- lane compares (LtS/GtS swap operands through pcmpgt) ---
    case ROp::kI8x16Eq: v_bin(0x66, {0x0F, 0x74}); return true;
    case ROp::kI8x16Ne: v_ne(0x74); return true;
    case ROp::kI8x16LtS: v_bin_rev(0x66, {0x0F, 0x64}); return true;
    case ROp::kI8x16GtS: v_bin(0x66, {0x0F, 0x64}); return true;
    case ROp::kI16x8Eq: v_bin(0x66, {0x0F, 0x75}); return true;
    case ROp::kI16x8Ne: v_ne(0x75); return true;
    case ROp::kI16x8LtS: v_bin_rev(0x66, {0x0F, 0x65}); return true;
    case ROp::kI16x8GtS: v_bin(0x66, {0x0F, 0x65}); return true;
    case ROp::kI32x4Eq: v_bin(0x66, {0x0F, 0x76}); return true;
    case ROp::kI32x4Ne: v_ne(0x76); return true;
    case ROp::kI32x4LtS: v_bin_rev(0x66, {0x0F, 0x66}); return true;
    case ROp::kI32x4GtS: v_bin(0x66, {0x0F, 0x66}); return true;
    case ROp::kF32x4Eq: v_cmpf(false, b, c, 0); return true;
    case ROp::kF32x4Ne: v_cmpf(false, b, c, 4); return true;
    case ROp::kF32x4Lt: v_cmpf(false, b, c, 1); return true;
    case ROp::kF32x4Le: v_cmpf(false, b, c, 2); return true;
    case ROp::kF32x4Gt: v_cmpf(false, c, b, 1); return true;
    case ROp::kF32x4Ge: v_cmpf(false, c, b, 2); return true;
    case ROp::kF64x2Eq: v_cmpf(true, b, c, 0); return true;
    case ROp::kF64x2Ne: v_cmpf(true, b, c, 4); return true;
    case ROp::kF64x2Lt: v_cmpf(true, b, c, 1); return true;
    case ROp::kF64x2Le: v_cmpf(true, b, c, 2); return true;
    case ROp::kF64x2Gt: v_cmpf(true, c, b, 1); return true;
    case ROp::kF64x2Ge: v_cmpf(true, c, b, 2); return true;

    // --- bitwise ---
    case ROp::kV128Not:
      loadaps(X0, b);
      bs({0x66, 0x0F, 0x76, 0xC9});  // pcmpeqd x1, x1
      bs({0x66, 0x0F, 0xEF, 0xC1});  // pxor x0, x1
      storeaps(a, X0);
      return true;
    case ROp::kV128And: v_bin(0x66, {0x0F, 0xDB}); return true;
    case ROp::kV128AndNot: v_bin_rev(0x66, {0x0F, 0xDF}); return true;  // pandn
    case ROp::kV128Or: v_bin(0x66, {0x0F, 0xEB}); return true;
    case ROp::kV128Xor: v_bin(0x66, {0x0F, 0xEF}); return true;
    case ROp::kV128AnyTrue:
      op_rr(0x66, false, {0x0F, 0xEF}, X0, X0);               // pxor x0, x0
      op_src(0x66, false, {0x0F, 0x74}, X0, b);     // pcmpeqb
      op_rr(0x66, false, {0x0F, 0xD7}, RAX, X0);              // pmovmskb
      b1(0x3D);                                               // cmp eax, 0xFFFF
      i32le(0xFFFFu);
      setcc_store(CC_NE);
      return true;
    case ROp::kV128Bitselect:
      loadaps(X0, a);
      op_src(0x66, false, {0x0F, 0xDB}, X0, c);  // pand x0, mask
      loadaps(X1, c);
      op_src(0x66, false, {0x0F, 0xDF}, X1, b);  // pandn: ~mask & B
      op_rr(0x66, false, {0x0F, 0xEB}, X0, X1);            // por
      storeaps(a, X0);
      return true;

    // --- integer lanes ---
    case ROp::kI8x16Abs:
      op_src(0x66, false, {0x0F, 0x38, 0x1C}, X0, b);
      storeaps(a, X0);
      return true;
    case ROp::kI8x16Neg: v_neg(0xF8); return true;
    case ROp::kI8x16AllTrue: v_all_true({0x0F, 0x74}); return true;
    case ROp::kI8x16Add: v_bin(0x66, {0x0F, 0xFC}); return true;
    case ROp::kI8x16Sub: v_bin(0x66, {0x0F, 0xF8}); return true;
    case ROp::kI16x8Abs:
      op_src(0x66, false, {0x0F, 0x38, 0x1D}, X0, b);
      storeaps(a, X0);
      return true;
    case ROp::kI16x8Neg: v_neg(0xF9); return true;
    case ROp::kI16x8AllTrue: v_all_true({0x0F, 0x75}); return true;
    case ROp::kI16x8Add: v_bin(0x66, {0x0F, 0xFD}); return true;
    case ROp::kI16x8Sub: v_bin(0x66, {0x0F, 0xF9}); return true;
    case ROp::kI16x8Mul: v_bin(0x66, {0x0F, 0xD5}); return true;
    case ROp::kI32x4Abs:
      op_src(0x66, false, {0x0F, 0x38, 0x1E}, X0, b);
      storeaps(a, X0);
      return true;
    case ROp::kI32x4Neg: v_neg(0xFA); return true;
    case ROp::kI32x4AllTrue: v_all_true({0x0F, 0x76}); return true;
    case ROp::kI32x4Shl: v_shift(0xF2, 31); return true;   // pslld
    case ROp::kI32x4ShrS: v_shift(0xE2, 31); return true;  // psrad
    case ROp::kI32x4ShrU: v_shift(0xD2, 31); return true;  // psrld
    case ROp::kI32x4Add: v_bin(0x66, {0x0F, 0xFE}); return true;
    case ROp::kI32x4Sub: v_bin(0x66, {0x0F, 0xFA}); return true;
    case ROp::kI32x4Mul: v_bin(0x66, {0x0F, 0x38, 0x40}); return true;
    case ROp::kI32x4MinS: v_bin(0x66, {0x0F, 0x38, 0x39}); return true;
    case ROp::kI32x4MinU: v_bin(0x66, {0x0F, 0x38, 0x3B}); return true;
    case ROp::kI32x4MaxS: v_bin(0x66, {0x0F, 0x38, 0x3D}); return true;
    case ROp::kI32x4MaxU: v_bin(0x66, {0x0F, 0x38, 0x3F}); return true;
    case ROp::kI64x2Neg: v_neg(0xFB); return true;
    case ROp::kI64x2AllTrue: v_all_true({0x0F, 0x38, 0x29}); return true;
    case ROp::kI64x2Shl: v_shift(0xF3, 63); return true;   // psllq
    case ROp::kI64x2ShrU: v_shift(0xD3, 63); return true;  // psrlq
    case ROp::kI64x2Add: v_bin(0x66, {0x0F, 0xD4}); return true;
    case ROp::kI64x2Sub: v_bin(0x66, {0x0F, 0xFB}); return true;

    // --- float lanes ---
    case ROp::kF32x4Abs: v_mask(0x54, splat_mask32(0x7FFFFFFFu)); return true;
    case ROp::kF32x4Neg: v_mask(0x57, splat_mask32(0x80000000u)); return true;
    case ROp::kF32x4Sqrt:
      op_src(0, false, {0x0F, 0x51}, X0, b);
      storeaps(a, X0);
      return true;
    case ROp::kF32x4Add: v_bin(0, {0x0F, 0x58}); return true;
    case ROp::kF32x4Sub: v_bin(0, {0x0F, 0x5C}); return true;
    case ROp::kF32x4Mul: v_bin(0, {0x0F, 0x59}); return true;
    case ROp::kF32x4Div: v_bin(0, {0x0F, 0x5E}); return true;
    case ROp::kF32x4Pmin: v_bin_rev(0, {0x0F, 0x5D}); return true;
    case ROp::kF32x4Pmax: v_bin_rev(0, {0x0F, 0x5F}); return true;
    case ROp::kF64x2Abs:
      v_mask(0x54, splat_mask64(0x7FFFFFFFFFFFFFFFull));
      return true;
    case ROp::kF64x2Neg:
      v_mask(0x57, splat_mask64(0x8000000000000000ull));
      return true;
    case ROp::kF64x2Sqrt:
      op_src(0x66, false, {0x0F, 0x51}, X0, b);
      storeaps(a, X0);
      return true;
    case ROp::kF64x2Add: v_bin(0x66, {0x0F, 0x58}); return true;
    case ROp::kF64x2Sub: v_bin(0x66, {0x0F, 0x5C}); return true;
    case ROp::kF64x2Mul: v_bin(0x66, {0x0F, 0x59}); return true;
    case ROp::kF64x2Div: v_bin(0x66, {0x0F, 0x5E}); return true;
    case ROp::kF64x2Pmin: v_bin_rev(0x66, {0x0F, 0x5D}); return true;
    case ROp::kF64x2Pmax: v_bin_rev(0x66, {0x0F, 0x5F}); return true;

    // --- fused immediates ---
    // t = r[b] op imm, computed in the destination register when it has one.
    case ROp::kI32AddImm: {  // lea t, [src + imm] from another register
      const u8 t = gpr_work(RAX);
      const u8 src = gpr_of(b, t, false);
      if (src == t)
        alu_imm(false, 0, t, i64(i32(u32(imm))));
      else
        op_rm(0, false, {0x8D}, t, src, i64(i32(u32(imm))));
      store32(a, t);
      return true;
    }
    case ROp::kI64AddImm: {
      const u8 t = gpr_work(RAX);
      load64(t, b);
      if (i64(imm) >= INT32_MIN && i64(imm) <= INT32_MAX) {
        alu_imm(true, 0, t, i64(imm));
      } else {
        movabs(RCX, imm);
        op_rr(0, true, {0x01}, RCX, t);
      }
      store64(a, t);
      return true;
    }
    case ROp::kI32ShlImm:
    case ROp::kI32ShrUImm: {
      const u8 t = gpr_work(RAX);
      load32(t, b);
      shift_imm(false, in.op == ROp::kI32ShlImm ? 4 : 5, t, u8(imm & 31));
      store32(a, t);
      return true;
    }
    case ROp::kI32AndImm: {
      const u8 t = gpr_work(RAX);
      load32(t, b);
      alu_imm(false, 4, t, i64(i32(u32(imm))));
      store32(a, t);
      return true;
    }
    case ROp::kI32MulImm: {
      const u8 t = gpr_work(RAX);
      const u8 s = gpr_of(b, t, false);
      i32 v = i32(u32(imm));
      if (v >= -128 && v <= 127) {
        op_rr(0, false, {0x6B}, t, s);  // imul t, s, imm8
        b1(u8(i8(v)));
      } else {
        op_rr(0, false, {0x69}, t, s);  // imul t, s, imm32
        i32le(u32(v));
      }
      store32(a, t);
      return true;
    }

    // --- fused compare-and-branch ---
    case ROp::kBrIfI32Eq: br_cmp(CC_E); return true;
    case ROp::kBrIfI32Ne: br_cmp(CC_NE); return true;
    case ROp::kBrIfI32LtS: br_cmp(CC_L); return true;
    case ROp::kBrIfI32LtU: br_cmp(CC_B); return true;
    case ROp::kBrIfI32GtS: br_cmp(CC_G); return true;
    case ROp::kBrIfI32GtU: br_cmp(CC_A); return true;
    case ROp::kBrIfI32LeS: br_cmp(CC_LE); return true;
    case ROp::kBrIfI32LeU: br_cmp(CC_BE); return true;
    case ROp::kBrIfI32GeS: br_cmp(CC_GE); return true;
    case ROp::kBrIfI32GeU: br_cmp(CC_AE); return true;

    // --- fused multiply-add (two roundings, matching the C++ fallback) ---
    case ROp::kF64MulAdd:
    case ROp::kF32MulAdd: {
      const bool f64v = in.op == ROp::kF64MulAdd;
      const u8 pfx = f64v ? 0xF2 : 0xF3;
      const u8 x = xmm_work(X0, {c, d});
      ld_xmm(x, b, f64v ? 8 : 4);
      op_src(pfx, false, {0x0F, 0x59}, x, c);  // mulsd/mulss
      op_src(pfx, false, {0x0F, 0x58}, x, d);  // addsd/addss
      st_xmm(a, x, f64v ? 8 : 4);
      return true;
    }

    // --- indexed addressing ---
    case ROp::kI32LoadIx: load_ix(LK::i32); return true;
    case ROp::kI64LoadIx: load_ix(LK::i64); return true;
    case ROp::kF32LoadIx: load_ix(LK::f32); return true;
    case ROp::kF64LoadIx: load_ix(LK::f64); return true;
    case ROp::kV128LoadIx: load_ix(LK::v128); return true;
    case ROp::kI32StoreIx: store_ix(LK::i32); return true;
    case ROp::kI64StoreIx: store_ix(LK::i64); return true;
    case ROp::kF32StoreIx: store_ix(LK::f32); return true;
    case ROp::kF64StoreIx: store_ix(LK::f64); return true;
    case ROp::kV128StoreIx: store_ix(LK::v128); return true;

    default:
      return false;  // no template (jit_op_covered should have caught this)
  }
}

bool Emitter::emit_atomic(const RInstr& in) {
  const u32 a = in.a, b = in.b, c = in.c, d = in.d;
  const u64 imm = in.imm;

  // rax = the alignment-checked effective address. The access that follows
  // is a fault site like a plain load or store: out of bounds, it faults in
  // the guard region.
  auto aaddr = [&](u32 base_slot, u32 len) {
    lin_addr(base_slot, imm);
    align_check(len);
    guest_access(len);
  };
  // rdi = Instance*, rsi = the effective address, for helpers that run
  // LinearMemory's checked members.
  auto helper_addr = [&] {
    lin_addr(b, imm);
    op_rr(0, true, {0x89}, RAX, RSI);  // mov rsi, rax
    op_rr(0, true, {0x89}, R14, RDI);  // mov rdi, r14
  };
  // Narrow old values come back in rcx's low bytes; zero-extend in place.
  auto zext_cl = [&](u32 len) {
    if (len == 1)
      bs({0x0F, 0xB6, 0xC9});  // movzx ecx, cl
    else if (len == 2)
      bs({0x0F, 0xB7, 0xC9});  // movzx ecx, cx
  };
  // Seq-cst atomic load: on x86 an aligned plain load (narrow: movzx).
  auto a_load = [&](u32 len, bool w) {
    aaddr(b, len);
    const u8 t = gpr_work(RCX);
    if (len == 1)
      op_mem(0, false, {0x0F, 0xB6}, t);
    else if (len == 2)
      op_mem(0, false, {0x0F, 0xB7}, t);
    else
      op_mem(0, len == 8, {0x8B}, t);
    st_gpr(a, t, w);
  };
  // Seq-cst atomic store: xchg (implicitly locked) supplies the trailing
  // full barrier a plain mov would lack.
  auto a_xchg_mem = [&](u32 len) {
    if (len == 1)
      op_mem(0, false, {0x86}, RCX);
    else if (len == 2)
      op_mem(0x66, false, {0x87}, RCX);
    else
      op_mem(0, len == 8, {0x87}, RCX);
  };
  auto a_store = [&](u32 len) {
    aaddr(a, len);
    ld_gpr(RCX, len == 8, b);
    a_xchg_mem(len);
  };
  // rmw add/sub: lock xadd (negate the operand first for sub); the old
  // value lands in rcx. The fault site starts at the lock prefix.
  auto a_xadd = [&](u32 len, bool w, bool negate) {
    aaddr(b, len);
    ld_gpr(RCX, len == 8, c);
    if (negate) {
      rex_if(len == 8, 0, RCX);
      bs({0xF7, 0xD9});  // neg (r|e)cx
    }
    fault_site_here();
    b1(0xF0);  // lock
    if (len == 1)
      op_mem(0, false, {0x0F, 0xC0}, RCX);
    else if (len == 2)
      op_mem(0x66, false, {0x0F, 0xC1}, RCX);
    else
      op_mem(0, len == 8, {0x0F, 0xC1}, RCX);
    zext_cl(len);
    st_gpr(a, RCX, w);
  };
  auto a_xchg = [&](u32 len, bool w) {
    aaddr(b, len);
    ld_gpr(RCX, len == 8, c);
    a_xchg_mem(len);
    zext_cl(len);
    st_gpr(a, RCX, w);
  };
  // and/or/xor: (Instance*, addr, v) -> old; cmpxchg passes the
  // replacement too.
  auto a_rmw = [&](bool w, JitHelperId id, bool cmpxchg = false) {
    helper_addr();
    ld_gpr(RDX, w, c);
    if (cmpxchg) ld_gpr(RCX, w, d);
    call_helper(id);
    st_gpr(a, RAX, w);
  };
  auto a_cmpxchg = [&](bool w, JitHelperId id) { a_rmw(w, id, true); };

  switch (in.op) {
    case ROp::kAtomicNotify:
      helper_addr();
      load32(RDX, c);
      call_helper(JitHelperId::kAtomicNotify);
      store32(a, RAX);
      return true;
    case ROp::kAtomicWait32:
    case ROp::kAtomicWait64:
      helper_addr();
      ld_gpr(RDX, in.op == ROp::kAtomicWait64, c);
      load64(RCX, d);  // timeout_ns
      call_helper(in.op == ROp::kAtomicWait64 ? JitHelperId::kAtomicWait64
                                              : JitHelperId::kAtomicWait32);
      store32(a, RAX);
      return true;
    case ROp::kAtomicFence:
      bs({0x0F, 0xAE, 0xF0});  // mfence
      return true;

    case ROp::kI32AtomicLoad: a_load(4, false); return true;
    case ROp::kI64AtomicLoad: a_load(8, true); return true;
    case ROp::kI32AtomicLoad8U: a_load(1, false); return true;
    case ROp::kI32AtomicLoad16U: a_load(2, false); return true;
    case ROp::kI64AtomicLoad8U: a_load(1, true); return true;
    case ROp::kI64AtomicLoad16U: a_load(2, true); return true;
    case ROp::kI64AtomicLoad32U: a_load(4, true); return true;

    case ROp::kI32AtomicStore: a_store(4); return true;
    case ROp::kI64AtomicStore: a_store(8); return true;
    case ROp::kI32AtomicStore8: a_store(1); return true;
    case ROp::kI32AtomicStore16: a_store(2); return true;
    case ROp::kI64AtomicStore8: a_store(1); return true;
    case ROp::kI64AtomicStore16: a_store(2); return true;
    case ROp::kI64AtomicStore32: a_store(4); return true;

    case ROp::kI32AtomicRmwAdd: a_xadd(4, false, false); return true;
    case ROp::kI64AtomicRmwAdd: a_xadd(8, true, false); return true;
    case ROp::kI32AtomicRmw8AddU: a_xadd(1, false, false); return true;
    case ROp::kI32AtomicRmw16AddU: a_xadd(2, false, false); return true;
    case ROp::kI64AtomicRmw8AddU: a_xadd(1, true, false); return true;
    case ROp::kI64AtomicRmw16AddU: a_xadd(2, true, false); return true;
    case ROp::kI64AtomicRmw32AddU: a_xadd(4, true, false); return true;

    case ROp::kI32AtomicRmwSub: a_xadd(4, false, true); return true;
    case ROp::kI64AtomicRmwSub: a_xadd(8, true, true); return true;
    case ROp::kI32AtomicRmw8SubU: a_xadd(1, false, true); return true;
    case ROp::kI32AtomicRmw16SubU: a_xadd(2, false, true); return true;
    case ROp::kI64AtomicRmw8SubU: a_xadd(1, true, true); return true;
    case ROp::kI64AtomicRmw16SubU: a_xadd(2, true, true); return true;
    case ROp::kI64AtomicRmw32SubU: a_xadd(4, true, true); return true;

    case ROp::kI32AtomicRmwAnd: a_rmw(false, JitHelperId::kAtomicAnd32); return true;
    case ROp::kI64AtomicRmwAnd: a_rmw(true, JitHelperId::kAtomicAnd64); return true;
    case ROp::kI32AtomicRmw8AndU: a_rmw(false, JitHelperId::kAtomicAnd8); return true;
    case ROp::kI32AtomicRmw16AndU: a_rmw(false, JitHelperId::kAtomicAnd16); return true;
    case ROp::kI64AtomicRmw8AndU: a_rmw(true, JitHelperId::kAtomicAnd8); return true;
    case ROp::kI64AtomicRmw16AndU: a_rmw(true, JitHelperId::kAtomicAnd16); return true;
    case ROp::kI64AtomicRmw32AndU: a_rmw(true, JitHelperId::kAtomicAnd32); return true;

    case ROp::kI32AtomicRmwOr: a_rmw(false, JitHelperId::kAtomicOr32); return true;
    case ROp::kI64AtomicRmwOr: a_rmw(true, JitHelperId::kAtomicOr64); return true;
    case ROp::kI32AtomicRmw8OrU: a_rmw(false, JitHelperId::kAtomicOr8); return true;
    case ROp::kI32AtomicRmw16OrU: a_rmw(false, JitHelperId::kAtomicOr16); return true;
    case ROp::kI64AtomicRmw8OrU: a_rmw(true, JitHelperId::kAtomicOr8); return true;
    case ROp::kI64AtomicRmw16OrU: a_rmw(true, JitHelperId::kAtomicOr16); return true;
    case ROp::kI64AtomicRmw32OrU: a_rmw(true, JitHelperId::kAtomicOr32); return true;

    case ROp::kI32AtomicRmwXor: a_rmw(false, JitHelperId::kAtomicXor32); return true;
    case ROp::kI64AtomicRmwXor: a_rmw(true, JitHelperId::kAtomicXor64); return true;
    case ROp::kI32AtomicRmw8XorU: a_rmw(false, JitHelperId::kAtomicXor8); return true;
    case ROp::kI32AtomicRmw16XorU: a_rmw(false, JitHelperId::kAtomicXor16); return true;
    case ROp::kI64AtomicRmw8XorU: a_rmw(true, JitHelperId::kAtomicXor8); return true;
    case ROp::kI64AtomicRmw16XorU: a_rmw(true, JitHelperId::kAtomicXor16); return true;
    case ROp::kI64AtomicRmw32XorU: a_rmw(true, JitHelperId::kAtomicXor32); return true;

    case ROp::kI32AtomicRmwXchg: a_xchg(4, false); return true;
    case ROp::kI64AtomicRmwXchg: a_xchg(8, true); return true;
    case ROp::kI32AtomicRmw8XchgU: a_xchg(1, false); return true;
    case ROp::kI32AtomicRmw16XchgU: a_xchg(2, false); return true;
    case ROp::kI64AtomicRmw8XchgU: a_xchg(1, true); return true;
    case ROp::kI64AtomicRmw16XchgU: a_xchg(2, true); return true;
    case ROp::kI64AtomicRmw32XchgU: a_xchg(4, true); return true;

    case ROp::kI32AtomicRmwCmpxchg: a_cmpxchg(false, JitHelperId::kAtomicCmpxchg32); return true;
    case ROp::kI64AtomicRmwCmpxchg: a_cmpxchg(true, JitHelperId::kAtomicCmpxchg64); return true;
    case ROp::kI32AtomicRmw8CmpxchgU: a_cmpxchg(false, JitHelperId::kAtomicCmpxchg8); return true;
    case ROp::kI32AtomicRmw16CmpxchgU: a_cmpxchg(false, JitHelperId::kAtomicCmpxchg16); return true;
    case ROp::kI64AtomicRmw8CmpxchgU: a_cmpxchg(true, JitHelperId::kAtomicCmpxchg8); return true;
    case ROp::kI64AtomicRmw16CmpxchgU: a_cmpxchg(true, JitHelperId::kAtomicCmpxchg16); return true;
    case ROp::kI64AtomicRmw32CmpxchgU: a_cmpxchg(true, JitHelperId::kAtomicCmpxchg32); return true;

    default:
      return false;
  }
}

}  // namespace

bool jit_op_covered(ROp op, u32 cpu_features) {
  switch (op) {
    // The shuffle family needs pshufb-style sequences that aren't worth
    // templating for the HPC kernels this tier targets.
    case ROp::kI8x16Shuffle:
    case ROp::kI8x16Swizzle:
    // Unsigned / non-strict lane compares need bias or min+eq sequences.
    case ROp::kI8x16LtU:
    case ROp::kI8x16GtU:
    case ROp::kI8x16LeS:
    case ROp::kI8x16LeU:
    case ROp::kI8x16GeS:
    case ROp::kI8x16GeU:
    case ROp::kI16x8LtU:
    case ROp::kI16x8GtU:
    case ROp::kI16x8LeS:
    case ROp::kI16x8LeU:
    case ROp::kI16x8GeS:
    case ROp::kI16x8GeU:
    case ROp::kI32x4LtU:
    case ROp::kI32x4GtU:
    case ROp::kI32x4LeS:
    case ROp::kI32x4LeU:
    case ROp::kI32x4GeS:
    case ROp::kI32x4GeU:
    // No single-instruction SSE forms pre-AVX512.
    case ROp::kI64x2Abs:
    case ROp::kI64x2Mul:
    case ROp::kI64x2ShrS:
    // Wasm f{32x4,64x2}.min/max propagate NaN payloads; minps/maxps don't.
    case ROp::kF32x4Min:
    case ROp::kF32x4Max:
    case ROp::kF64x2Min:
    case ROp::kF64x2Max:
    case ROp::kCount:
      return false;
    case ROp::kI8x16Abs:
    case ROp::kI16x8Abs:
    case ROp::kI32x4Abs:
      return (cpu_features & kJitFeatSsse3) != 0;  // pabsb/w/d
    case ROp::kI32x4Mul:      // pmulld
    case ROp::kI32x4MinS:     // pminsd
    case ROp::kI32x4MinU:     // pminud
    case ROp::kI32x4MaxS:     // pmaxsd
    case ROp::kI32x4MaxU:     // pmaxud
    case ROp::kI64x2AllTrue:  // pcmpeqq
      return (cpu_features & kJitFeatSse41) != 0;
    default:
      return true;
  }
}

std::shared_ptr<const JitBlob> jit_compile_function(const RFunc& f) {
  const size_t n = f.code.size();
  // emit_instr assumes every branch target, pool index and lane immediate
  // is in range.
  if (n > 1'000'000 || !rfunc_well_formed(f)) return nullptr;
  // Slot displacements must fit the disp32 addressing the templates use.
  if (u64(f.num_regs) * 16 > 0x7FFF0000ull) return nullptr;

  const u32 feats = jit_cpu_features();
  for (const RInstr& in : f.code) {
    if (!jit_op_covered(in.op, feats)) return nullptr;
    if ((in.op == ROp::kGlobalGet || in.op == ROp::kGlobalSet) &&
        in.imm > 0x07FFFFFFull)
      return nullptr;
  }

  const RegAlloc ra = allocate_registers(f, feats);
  Emitter e(f, feats, ra);
  e.prologue();
  for (size_t i = 0; i < n; ++i) {
    e.ioff.push_back(u32(e.code.size()));
    if (!e.emit(i)) return nullptr;
  }
  e.finish();

  auto blob = std::make_shared<JitBlob>();
  blob->cpu_features = feats;
  blob->layout_hash = jit_layout_hash();
  blob->code = std::move(e.code);
  blob->relocs = std::move(e.relocs);
  blob->fault_sites = u32(e.fault_sites.size());
  return blob;
}

}  // namespace mpiwasm::rt
