#include "runtime/interp.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>

#include "runtime/arith.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "support/parallel.h"

namespace mpiwasm::rt {

using wasm::InstrView;
using wasm::Op;
using namespace arith;

namespace {

/// Predecode-time control frame.
struct PFrame {
  enum Kind { kBlock, kLoop, kIf } kind = kBlock;
  bool has_result = false;
  bool entered_live = true;
  u32 entry_height = 0;
  u32 loop_pos = 0;
  std::vector<size_t> fixups;  // instr indices whose PreBr.target -> end pos
  size_t else_fixup = SIZE_MAX;
};

}  // namespace

PreFunc predecode_function(const wasm::Module& m, u32 defined_index) {
  const wasm::FuncType& ft = m.func_type(m.num_imported_funcs() + defined_index);

  PreFunc out;
  out.num_params = u32(ft.params.size());
  out.num_locals = out.num_params + m.bodies.at(defined_index).num_locals;
  out.has_result = !ft.results.empty();

  // First pass: decode every instruction (this is the tier's whole
  // "compile" step — it removes LEB decoding from the execution loop).
  wasm::InstrReader reader(m.code(defined_index));
  InstrView view;
  while (!reader.done()) {
    reader.next(view);
    out.code.push_back(view);
  }
  out.br.assign(out.code.size(), PreBr{});

  // Second pass: resolve structured control to absolute targets, tracking
  // operand stack heights exactly like RegCode lowering does.
  std::vector<PFrame> frames;
  frames.push_back(PFrame{PFrame::kBlock, out.has_result, true, 0, 0, {}, SIZE_MAX});
  u32 h = 0;
  u32 max_h = 0;
  bool live = true;
  auto bump = [&](i64 delta) {
    MW_CHECK(delta >= 0 || h >= u32(-delta), "predecode: stack underflow");
    h = u32(i64(h) + delta);
    max_h = std::max(max_h, h);
  };
  auto frame_at = [&](u32 depth) -> PFrame& {
    MW_CHECK(depth < frames.size(), "predecode: bad depth");
    return frames[frames.size() - 1 - depth];
  };
  auto make_branch = [&](u32 depth, size_t at) {
    PFrame& f = frame_at(depth);
    if (f.kind == PFrame::kLoop) {
      out.br[at] = PreBr{f.loop_pos, f.entry_height, 0, UINT32_MAX};
    } else {
      out.br[at] = PreBr{0, f.entry_height, u8(f.has_result ? 1 : 0), UINT32_MAX};
      f.fixups.push_back(at);
    }
  };
  // br_table trampolines don't exist in the interp tier; each table entry
  // holds its own PreBr, patched via (table_index, entry_index) keys.
  struct TableFixup {
    u32 table;
    u32 entry;
  };
  // Per-frame pending table fixups, parallel to `frames`.
  std::vector<std::vector<TableFixup>> frame_table_fixups(1);

  for (size_t i = 0; i < out.code.size(); ++i) {
    InstrView& in = out.code[i];
    if (!live) {
      switch (in.op) {
        case Op::kBlock: case Op::kLoop: case Op::kIf:
          frames.push_back(PFrame{
              in.op == Op::kLoop ? PFrame::kLoop
              : in.op == Op::kIf ? PFrame::kIf
                                 : PFrame::kBlock,
              in.block_type != wasm::kBlockTypeEmpty, false, h, u32(i), {},
              SIZE_MAX});
          frame_table_fixups.emplace_back();
          break;
        case Op::kElse: {
          PFrame& f = frames.back();
          if (f.entered_live) {
            if (f.else_fixup != SIZE_MAX) {
              out.br[f.else_fixup].target = u32(i + 1);
              f.else_fixup = SIZE_MAX;
            }
            // Else itself, when reached from the then branch, jumps to end.
            f.fixups.push_back(i);
            out.br[i] =
                PreBr{0, f.entry_height, u8(f.has_result ? 1 : 0), UINT32_MAX};
            h = f.entry_height;
            live = true;
          }
          break;
        }
        case Op::kEnd: {
          PFrame f = frames.back();
          frames.pop_back();
          auto tf = frame_table_fixups.back();
          frame_table_fixups.pop_back();
          h = f.entry_height + (f.has_result ? 1 : 0);
          max_h = std::max(max_h, h);
          if (f.entered_live) {
            for (size_t at : f.fixups) out.br[at].target = u32(i);
            for (auto [t, e] : tf) out.tables[t][e].target = u32(i);
            if (f.else_fixup != SIZE_MAX) out.br[f.else_fixup].target = u32(i);
            live = true;
          }
          break;
        }
        default:
          break;
      }
      continue;
    }

    switch (in.op) {
      case Op::kBlock:
      case Op::kLoop:
        frames.push_back(PFrame{
            in.op == Op::kLoop ? PFrame::kLoop : PFrame::kBlock,
            in.block_type != wasm::kBlockTypeEmpty, true, h, u32(i), {},
            SIZE_MAX});
        frame_table_fixups.emplace_back();
        break;
      case Op::kIf:
        bump(-1);
        frames.push_back(PFrame{PFrame::kIf,
                                in.block_type != wasm::kBlockTypeEmpty, true, h,
                                u32(i), {}, SIZE_MAX});
        frame_table_fixups.emplace_back();
        frames.back().else_fixup = i;
        out.br[i] = PreBr{0, h, 0, UINT32_MAX};
        break;
      case Op::kElse: {
        PFrame& f = frames.back();
        f.fixups.push_back(i);
        out.br[i] = PreBr{0, f.entry_height, u8(f.has_result ? 1 : 0), UINT32_MAX};
        MW_CHECK(f.else_fixup != SIZE_MAX, "predecode: else without if");
        out.br[f.else_fixup].target = u32(i + 1);
        f.else_fixup = SIZE_MAX;
        h = f.entry_height;
        break;
      }
      case Op::kEnd: {
        PFrame f = frames.back();
        frames.pop_back();
        auto tf = frame_table_fixups.back();
        frame_table_fixups.pop_back();
        for (size_t at : f.fixups) out.br[at].target = u32(i);
        for (auto [t, e] : tf) out.tables[t][e].target = u32(i);
        if (f.else_fixup != SIZE_MAX) out.br[f.else_fixup].target = u32(i);
        h = f.entry_height + (f.has_result ? 1 : 0);
        max_h = std::max(max_h, h);
        break;
      }
      case Op::kBr:
        make_branch(in.idx(), i);
        live = false;
        break;
      case Op::kBrIf:
        bump(-1);
        make_branch(in.idx(), i);
        break;
      case Op::kBrTable: {
        bump(-1);
        u32 table_index = u32(out.tables.size());
        out.tables.emplace_back();
        std::vector<u32> all = in.br_targets;
        all.push_back(in.br_default);
        for (u32 k = 0; k < all.size(); ++k) {
          PFrame& f = frame_at(all[k]);
          if (f.kind == PFrame::kLoop) {
            out.tables[table_index].push_back(
                PreBr{f.loop_pos, f.entry_height, 0, UINT32_MAX});
          } else {
            out.tables[table_index].push_back(
                PreBr{0, f.entry_height, u8(f.has_result ? 1 : 0), UINT32_MAX});
            size_t fdepth = frames.size() - 1 - all[k];
            frame_table_fixups[fdepth].push_back({table_index, k});
          }
        }
        out.br[i] = PreBr{0, 0, 0, table_index};
        live = false;
        break;
      }
      case Op::kReturn:
        live = false;
        break;
      case Op::kUnreachable:
        live = false;
        break;
      case Op::kCall: {
        const wasm::FuncType& cft = m.func_type(in.idx());
        // Stash arity in otherwise-unused memarg fields for the executor.
        in.mem_align = u32(cft.params.size());
        in.mem_offset = cft.results.empty() ? 0 : 1;
        bump(-i64(cft.params.size()));
        if (!cft.results.empty()) bump(1);
        break;
      }
      case Op::kCallIndirect: {
        const wasm::FuncType& cft = m.types.at(in.indirect_type_index);
        in.mem_align = u32(cft.params.size());
        in.mem_offset = cft.results.empty() ? 0 : 1;
        bump(-1);
        bump(-i64(cft.params.size()));
        if (!cft.results.empty()) bump(1);
        break;
      }
      case Op::kDrop: bump(-1); break;
      case Op::kSelect: bump(-2); break;
      case Op::kLocalGet: bump(1); break;
      case Op::kLocalSet: bump(-1); break;
      case Op::kLocalTee: break;
      case Op::kGlobalGet: bump(1); break;
      case Op::kGlobalSet: bump(-1); break;
      case Op::kMemorySize: bump(1); break;
      case Op::kMemoryGrow: break;
      case Op::kMemoryCopy: case Op::kMemoryFill: bump(-3); break;
      case Op::kI32Const: case Op::kI64Const: case Op::kF32Const:
      case Op::kF64Const: case Op::kV128Const:
        bump(1);
        break;
      case Op::kNop: break;
      default: {
        // Numeric / memory ops: net stack effect from the opcode shape.
        using wasm::ImmKind;
        if (wasm::op_is_atomic(in.op)) {
          // 0xFE space; the generic kMemArg load/store split below doesn't
          // know these shapes, so handle each family explicitly.
          const u16 code = u16(in.op);
          if (in.op == Op::kMemoryAtomicNotify) {
            bump(-1);  // addr, count -> woken
          } else if (in.op == Op::kMemoryAtomicWait32 ||
                     in.op == Op::kMemoryAtomicWait64) {
            bump(-2);  // addr, expected, timeout -> outcome
          } else if (in.op == Op::kAtomicFence) {
            // net 0
          } else if (code >= u16(Op::kI32AtomicLoad) &&
                     code <= u16(Op::kI64AtomicLoad32U)) {
            // load: addr -> value, net 0
          } else if (code >= u16(Op::kI32AtomicStore) &&
                     code <= u16(Op::kI64AtomicStore32)) {
            bump(-2);  // addr, value ->
          } else if (code >= u16(Op::kI32AtomicRmwCmpxchg)) {
            bump(-2);  // addr, expected, replacement -> old
          } else {
            bump(-1);  // rmw: addr, operand -> old
          }
        } else if (wasm::op_imm_kind(in.op) == ImmKind::kMemArg) {
          // load: -1 +1 = 0 ; store: -2
          bool is_store = false;
          switch (in.op) {
            case Op::kI32Store: case Op::kI64Store: case Op::kF32Store:
            case Op::kF64Store: case Op::kI32Store8: case Op::kI32Store16:
            case Op::kI64Store8: case Op::kI64Store16: case Op::kI64Store32:
            case Op::kV128Store:
              is_store = true;
              break;
            default:
              break;
          }
          if (is_store) bump(-2);
        } else if (wasm::op_imm_kind(in.op) == ImmKind::kLaneIdx) {
          // extract_lane: -1 +1; replace_lane additionally pops the scalar.
          switch (in.op) {
            case Op::kI8x16ReplaceLane: case Op::kI16x8ReplaceLane:
            case Op::kI32x4ReplaceLane: case Op::kI64x2ReplaceLane:
            case Op::kF32x4ReplaceLane: case Op::kF64x2ReplaceLane:
              bump(-1);
              break;
            default:
              break;
          }
        } else if (in.op == Op::kV128Bitselect) {
          bump(-2);
        } else {
          // unop: 0 ; binop: -1. Reuse the lowering's classification.
          switch (in.op) {
            case Op::kI32Eqz: case Op::kI64Eqz:
            case Op::kI32Clz: case Op::kI32Ctz: case Op::kI32Popcnt:
            case Op::kI64Clz: case Op::kI64Ctz: case Op::kI64Popcnt:
            case Op::kF32Abs: case Op::kF32Neg: case Op::kF32Ceil:
            case Op::kF32Floor: case Op::kF32Trunc: case Op::kF32Nearest:
            case Op::kF32Sqrt:
            case Op::kF64Abs: case Op::kF64Neg: case Op::kF64Ceil:
            case Op::kF64Floor: case Op::kF64Trunc: case Op::kF64Nearest:
            case Op::kF64Sqrt:
            case Op::kI32WrapI64: case Op::kI32TruncF32S: case Op::kI32TruncF32U:
            case Op::kI32TruncF64S: case Op::kI32TruncF64U:
            case Op::kI64ExtendI32S: case Op::kI64ExtendI32U:
            case Op::kI64TruncF32S: case Op::kI64TruncF32U:
            case Op::kI64TruncF64S: case Op::kI64TruncF64U:
            case Op::kF32ConvertI32S: case Op::kF32ConvertI32U:
            case Op::kF32ConvertI64S: case Op::kF32ConvertI64U:
            case Op::kF32DemoteF64:
            case Op::kF64ConvertI32S: case Op::kF64ConvertI32U:
            case Op::kF64ConvertI64S: case Op::kF64ConvertI64U:
            case Op::kF64PromoteF32:
            case Op::kI32ReinterpretF32: case Op::kI64ReinterpretF64:
            case Op::kF32ReinterpretI32: case Op::kF64ReinterpretI64:
            case Op::kI32Extend8S: case Op::kI32Extend16S:
            case Op::kI64Extend8S: case Op::kI64Extend16S: case Op::kI64Extend32S:
            case Op::kI8x16Splat: case Op::kI16x8Splat: case Op::kI32x4Splat:
            case Op::kI64x2Splat: case Op::kF32x4Splat: case Op::kF64x2Splat:
            case Op::kV128Not: case Op::kV128AnyTrue:
            case Op::kI8x16Abs: case Op::kI8x16Neg: case Op::kI8x16AllTrue:
            case Op::kI16x8Abs: case Op::kI16x8Neg: case Op::kI16x8AllTrue:
            case Op::kI32x4Abs: case Op::kI32x4Neg: case Op::kI32x4AllTrue:
            case Op::kI64x2Abs: case Op::kI64x2Neg: case Op::kI64x2AllTrue:
            case Op::kF32x4Abs: case Op::kF32x4Neg: case Op::kF32x4Sqrt:
            case Op::kF64x2Abs: case Op::kF64x2Neg: case Op::kF64x2Sqrt:
              break;  // unop, net 0
            default:
              bump(-1);  // binop
              break;
          }
        }
        break;
      }
    }
  }
  MW_CHECK(frames.empty(), "predecode: unbalanced frames");
  out.max_stack = max_h + 1;
  return out;
}

PreModule predecode_module(const wasm::Module& m) {
  // Body bytes per parallel_for chunk: about 2 ms of predecoding at the
  // ~12 MB/s one Xeon vCPU predecodes the compile-stress module.
  constexpr u64 kPredecodeChunkBytes = 24 << 10;
  PreModule pm;
  pm.funcs.resize(m.bodies.size());
  parallel_for(
      u32(m.bodies.size()), kPredecodeChunkBytes,
      [&](u32 i) { return u64(m.bodies[i].length); },
      [&](u32 i) { pm.funcs[i] = predecode_function(m, i); });
  return pm;
}

void interp_exec(Instance& inst, const PreFunc& f, Slot* frame) {
  LinearMemory& mem = inst.memory();
  Slot* locals = frame;
  Slot* stack = frame + f.num_locals;
  u32 sp = 0;  // operand stack height
  size_t i = 0;
  const size_t nend = f.code.size() - 1;  // function-level End index

  auto push_slot = [&](Slot s) { stack[sp++] = s; };
  auto pop_slot = [&]() -> Slot { return stack[--sp]; };
  auto branch_to = [&](const PreBr& br) {
    // Carry `results` top values, truncate to label height, push them back.
    if (br.results == 1) {
      Slot v = stack[sp - 1];
      sp = br.height;
      stack[sp++] = v;
    } else {
      sp = br.height;
    }
    i = br.target;
  };

#define PUSH_I32(v) do { stack[sp++].u32v = u32(v); } while (0)
#define PUSH_I64(v) do { stack[sp++].u64v = u64(v); } while (0)
#define PUSH_F32(v) do { stack[sp++].f32v = (v); } while (0)
#define PUSH_F64(v) do { stack[sp++].f64v = (v); } while (0)
#define TOP stack[sp - 1]
#define NXT stack[sp - 2]
#define IBIN(field, expr)                        \
  {                                              \
    auto y = TOP.field;                          \
    auto x = NXT.field;                          \
    --sp;                                        \
    TOP.field = decltype(TOP.field)(expr);       \
  }                                              \
  break
#define ICMP(field, expr)                        \
  {                                              \
    auto y = TOP.field;                          \
    auto x = NXT.field;                          \
    --sp;                                        \
    TOP.u32v = (expr) ? 1u : 0u;                 \
  }                                              \
  break
#define IUN(dfield, sfield, expr)                \
  {                                              \
    auto x = TOP.sfield;                         \
    (void)x;                                     \
    TOP.dfield = (expr);                         \
  }                                              \
  break
#define ILOAD(dfield, T)                                              \
  TOP.dfield = decltype(TOP.dfield)(mem.load<T>(u64(TOP.u32v) + in.mem_offset)); \
  break
#define ISTORE(T, sfield)                                        \
  {                                                              \
    auto v = TOP.sfield;                                         \
    u32 addr = NXT.u32v;                                         \
    sp -= 2;                                                     \
    mem.store<T>(u64(addr) + in.mem_offset, T(v));               \
  }                                                              \
  break
#define IVBIN(T, N, expr)                                                     \
  {                                                                           \
    V128 y = TOP.v128v;                                                       \
    V128 x = NXT.v128v;                                                       \
    --sp;                                                                     \
    TOP.v128v =                                                               \
        v128_binop<T, N>(x, y, [](T xx, T yy) { (void)xx; (void)yy;           \
                                                return (expr); });            \
  }                                                                           \
  break
#define IVUN(T, N, expr)                                                      \
  TOP.v128v = v128_unop<T, N>(TOP.v128v,                                      \
                              [](T xx) { (void)xx; return (expr); });         \
  break
#define IVCMP(T, N, expr)                                                     \
  {                                                                           \
    V128 y = TOP.v128v;                                                       \
    V128 x = NXT.v128v;                                                       \
    --sp;                                                                     \
    TOP.v128v =                                                               \
        v128_cmp<T, N>(x, y, [](T xx, T yy) { (void)xx; (void)yy;             \
                                              return (expr); });              \
  }                                                                           \
  break
#define IVREPLACE(T, N, sfield)                                               \
  {                                                                           \
    auto v = TOP.sfield;                                                      \
    --sp;                                                                     \
    TOP.v128v.set_lane<T, N>(int(in.imm_i), T(v));                            \
  }                                                                           \
  break
#define IALOAD(dfield, T)                                                     \
  TOP.dfield =                                                                \
      decltype(TOP.dfield)(mem.atomic_load<T>(u64(TOP.u32v) + in.mem_offset)); \
  break
#define IASTORE(T, sfield)                                                    \
  {                                                                           \
    auto v = TOP.sfield;                                                      \
    u32 addr = NXT.u32v;                                                      \
    sp -= 2;                                                                  \
    mem.atomic_store<T>(u64(addr) + in.mem_offset, T(v));                     \
  }                                                                           \
  break
#define IARMW(fn, dfield, T, sfield)                                          \
  {                                                                           \
    auto v = TOP.sfield;                                                      \
    --sp;                                                                     \
    TOP.dfield =                                                              \
        decltype(TOP.dfield)(mem.fn<T>(u64(TOP.u32v) + in.mem_offset, T(v))); \
  }                                                                           \
  break
#define IACMPXCHG(dfield, T, sfield)                                          \
  {                                                                           \
    auto repl = TOP.sfield;                                                   \
    auto expd = NXT.sfield;                                                   \
    sp -= 2;                                                                  \
    TOP.dfield = decltype(TOP.dfield)(mem.atomic_rmw_cmpxchg<T>(              \
        u64(TOP.u32v) + in.mem_offset, T(expd), T(repl)));                    \
  }                                                                           \
  break

  for (;;) {
    const InstrView& in = f.code[i];
    switch (in.op) {
      case Op::kNop: case Op::kBlock: case Op::kLoop:
        break;
      case Op::kUnreachable:
        throw Trap(TrapKind::kUnreachable, "unreachable executed");
      case Op::kIf: {
        u32 cond = pop_slot().u32v;
        if (cond == 0) {
          i = f.br[i].target;
          continue;
        }
        break;
      }
      case Op::kElse:
        branch_to(f.br[i]);
        continue;
      case Op::kEnd:
        if (i == nend) {
          if (f.has_result) frame[0] = stack[sp - 1];
          return;
        }
        break;
      case Op::kBr:
        branch_to(f.br[i]);
        continue;
      case Op::kBrIf: {
        u32 cond = pop_slot().u32v;
        if (cond != 0) {
          branch_to(f.br[i]);
          continue;
        }
        break;
      }
      case Op::kBrTable: {
        u32 idx = pop_slot().u32v;
        const auto& table = f.tables[f.br[i].table];
        const PreBr& target =
            table[idx < table.size() - 1 ? idx : u32(table.size() - 1)];
        branch_to(target);
        continue;
      }
      case Op::kReturn:
        if (f.has_result) frame[0] = stack[sp - 1];
        return;
      case Op::kCall: {
        u32 nargs = in.mem_align;
        sp -= nargs;
        inst.call_function(in.idx(), &stack[sp]);
        sp += in.mem_offset;  // 1 if the callee returns a value
        break;
      }
      case Op::kCallIndirect: {
        u32 nargs = in.mem_align;
        u32 idx = pop_slot().u32v;
        sp -= nargs;
        const auto& tbl = inst.table();
        if (idx >= tbl.size() || tbl[idx] == UINT32_MAX)
          throw Trap(TrapKind::kUndefinedTableElement,
                     "table index " + std::to_string(idx));
        u32 fidx = tbl[idx];
        const CompiledModule& cm = inst.compiled();
        if (cm.func_canon[fidx] != cm.canon_type_ids[in.indirect_type_index])
          throw Trap(TrapKind::kIndirectCallTypeMismatch,
                     "signature mismatch at table index " + std::to_string(idx));
        inst.call_function(fidx, &stack[sp]);
        sp += in.mem_offset;
        break;
      }
      case Op::kDrop: --sp; break;
      case Op::kSelect: {
        u32 cond = pop_slot().u32v;
        Slot v2 = pop_slot();
        if (cond == 0) TOP = v2;
        break;
      }
      case Op::kLocalGet: push_slot(locals[in.idx()]); break;
      case Op::kLocalSet: locals[in.idx()] = pop_slot(); break;
      case Op::kLocalTee: locals[in.idx()] = TOP; break;
      case Op::kGlobalGet: push_slot(inst.globals()[in.idx()]); break;
      case Op::kGlobalSet: inst.globals()[in.idx()] = pop_slot(); break;

      case Op::kI32Load: ILOAD(u32v, u32);
      case Op::kI64Load: ILOAD(u64v, u64);
      case Op::kF32Load: ILOAD(f32v, f32);
      case Op::kF64Load: ILOAD(f64v, f64);
      case Op::kI32Load8S: ILOAD(i32v, i8);
      case Op::kI32Load8U: ILOAD(u32v, u8);
      case Op::kI32Load16S: ILOAD(i32v, i16);
      case Op::kI32Load16U: ILOAD(u32v, u16);
      case Op::kI64Load8S: ILOAD(i64v, i8);
      case Op::kI64Load8U: ILOAD(u64v, u8);
      case Op::kI64Load16S: ILOAD(i64v, i16);
      case Op::kI64Load16U: ILOAD(u64v, u16);
      case Op::kI64Load32S: ILOAD(i64v, i32);
      case Op::kI64Load32U: ILOAD(u64v, u32);
      case Op::kV128Load: ILOAD(v128v, V128);
      case Op::kV128Load32Splat:
        TOP.v128v = V128::splat<u32>(mem.load<u32>(u64(TOP.u32v) + in.mem_offset));
        break;
      case Op::kV128Load64Splat:
        TOP.v128v = V128::splat<u64>(mem.load<u64>(u64(TOP.u32v) + in.mem_offset));
        break;
      case Op::kI32Store: ISTORE(u32, u32v);
      case Op::kI64Store: ISTORE(u64, u64v);
      case Op::kF32Store: ISTORE(f32, f32v);
      case Op::kF64Store: ISTORE(f64, f64v);
      case Op::kI32Store8: ISTORE(u8, u32v);
      case Op::kI32Store16: ISTORE(u16, u32v);
      case Op::kI64Store8: ISTORE(u8, u64v);
      case Op::kI64Store16: ISTORE(u16, u64v);
      case Op::kI64Store32: ISTORE(u32, u64v);
      case Op::kV128Store: {
        V128 v = TOP.v128v;
        u32 addr = NXT.u32v;
        sp -= 2;
        mem.store<V128>(u64(addr) + in.mem_offset, v);
        break;
      }
      case Op::kMemorySize: PUSH_I32(mem.pages()); break;
      case Op::kMemoryGrow: TOP.i32v = mem.grow(TOP.u32v); break;
      case Op::kMemoryCopy: {
        u64 cnt = pop_slot().u32v, s = pop_slot().u32v, d = pop_slot().u32v;
        mem.check(d, cnt);
        mem.check(s, cnt);
        std::memmove(mem.base() + d, mem.base() + s, size_t(cnt));
        break;
      }
      case Op::kMemoryFill: {
        u64 cnt = pop_slot().u32v, v = pop_slot().u32v, d = pop_slot().u32v;
        mem.check(d, cnt);
        std::memset(mem.base() + d, int(v & 0xFF), size_t(cnt));
        break;
      }
      case Op::kI32Const: PUSH_I32(u32(i32(in.imm_i))); break;
      case Op::kI64Const: PUSH_I64(in.imm_i); break;
      case Op::kF32Const: PUSH_F32(in.imm_f32); break;
      case Op::kF64Const: PUSH_F64(in.imm_f64); break;
      case Op::kV128Const: stack[sp++].v128v = in.imm_v128; break;

      case Op::kI32Eqz: IUN(u32v, u32v, x == 0 ? 1u : 0u);
      case Op::kI32Eq: ICMP(i32v, x == y);
      case Op::kI32Ne: ICMP(i32v, x != y);
      case Op::kI32LtS: ICMP(i32v, x < y);
      case Op::kI32LtU: ICMP(u32v, x < y);
      case Op::kI32GtS: ICMP(i32v, x > y);
      case Op::kI32GtU: ICMP(u32v, x > y);
      case Op::kI32LeS: ICMP(i32v, x <= y);
      case Op::kI32LeU: ICMP(u32v, x <= y);
      case Op::kI32GeS: ICMP(i32v, x >= y);
      case Op::kI32GeU: ICMP(u32v, x >= y);
      case Op::kI64Eqz: IUN(u32v, u64v, x == 0 ? 1u : 0u);
      case Op::kI64Eq: ICMP(i64v, x == y);
      case Op::kI64Ne: ICMP(i64v, x != y);
      case Op::kI64LtS: ICMP(i64v, x < y);
      case Op::kI64LtU: ICMP(u64v, x < y);
      case Op::kI64GtS: ICMP(i64v, x > y);
      case Op::kI64GtU: ICMP(u64v, x > y);
      case Op::kI64LeS: ICMP(i64v, x <= y);
      case Op::kI64LeU: ICMP(u64v, x <= y);
      case Op::kI64GeS: ICMP(i64v, x >= y);
      case Op::kI64GeU: ICMP(u64v, x >= y);
      case Op::kF32Eq: ICMP(f32v, x == y);
      case Op::kF32Ne: ICMP(f32v, x != y);
      case Op::kF32Lt: ICMP(f32v, x < y);
      case Op::kF32Gt: ICMP(f32v, x > y);
      case Op::kF32Le: ICMP(f32v, x <= y);
      case Op::kF32Ge: ICMP(f32v, x >= y);
      case Op::kF64Eq: ICMP(f64v, x == y);
      case Op::kF64Ne: ICMP(f64v, x != y);
      case Op::kF64Lt: ICMP(f64v, x < y);
      case Op::kF64Gt: ICMP(f64v, x > y);
      case Op::kF64Le: ICMP(f64v, x <= y);
      case Op::kF64Ge: ICMP(f64v, x >= y);

      case Op::kI32Clz: IUN(u32v, u32v, u32(std::countl_zero(x)));
      case Op::kI32Ctz: IUN(u32v, u32v, u32(std::countr_zero(x)));
      case Op::kI32Popcnt: IUN(u32v, u32v, u32(std::popcount(x)));
      case Op::kI32Add: IBIN(u32v, x + y);
      case Op::kI32Sub: IBIN(u32v, x - y);
      case Op::kI32Mul: IBIN(u32v, x * y);
      case Op::kI32DivS: IBIN(i32v, i32_div_s(x, y));
      case Op::kI32DivU: IBIN(u32v, i32_div_u(x, y));
      case Op::kI32RemS: IBIN(i32v, i32_rem_s(x, y));
      case Op::kI32RemU: IBIN(u32v, i32_rem_u(x, y));
      case Op::kI32And: IBIN(u32v, x & y);
      case Op::kI32Or: IBIN(u32v, x | y);
      case Op::kI32Xor: IBIN(u32v, x ^ y);
      case Op::kI32Shl: IBIN(u32v, i32_shl(x, y));
      case Op::kI32ShrS: IBIN(i32v, i32_shr_s(x, u32(y)));
      case Op::kI32ShrU: IBIN(u32v, i32_shr_u(x, y));
      case Op::kI32Rotl: IBIN(u32v, i32_rotl(x, y));
      case Op::kI32Rotr: IBIN(u32v, i32_rotr(x, y));
      case Op::kI64Clz: IUN(u64v, u64v, u64(std::countl_zero(x)));
      case Op::kI64Ctz: IUN(u64v, u64v, u64(std::countr_zero(x)));
      case Op::kI64Popcnt: IUN(u64v, u64v, u64(std::popcount(x)));
      case Op::kI64Add: IBIN(u64v, x + y);
      case Op::kI64Sub: IBIN(u64v, x - y);
      case Op::kI64Mul: IBIN(u64v, x * y);
      case Op::kI64DivS: IBIN(i64v, i64_div_s(x, y));
      case Op::kI64DivU: IBIN(u64v, i64_div_u(x, y));
      case Op::kI64RemS: IBIN(i64v, i64_rem_s(x, y));
      case Op::kI64RemU: IBIN(u64v, i64_rem_u(x, y));
      case Op::kI64And: IBIN(u64v, x & y);
      case Op::kI64Or: IBIN(u64v, x | y);
      case Op::kI64Xor: IBIN(u64v, x ^ y);
      case Op::kI64Shl: IBIN(u64v, i64_shl(x, y));
      case Op::kI64ShrS: IBIN(i64v, i64_shr_s(x, u64(y)));
      case Op::kI64ShrU: IBIN(u64v, i64_shr_u(x, y));
      case Op::kI64Rotl: IBIN(u64v, i64_rotl(x, y));
      case Op::kI64Rotr: IBIN(u64v, i64_rotr(x, y));

      case Op::kF32Abs: IUN(f32v, f32v, std::fabs(x));
      case Op::kF32Neg: IUN(f32v, f32v, -x);
      case Op::kF32Ceil: IUN(f32v, f32v, std::ceil(x));
      case Op::kF32Floor: IUN(f32v, f32v, std::floor(x));
      case Op::kF32Trunc: IUN(f32v, f32v, std::trunc(x));
      case Op::kF32Nearest: IUN(f32v, f32v, fnearest(x));
      case Op::kF32Sqrt: IUN(f32v, f32v, std::sqrt(x));
      case Op::kF32Add: IBIN(f32v, x + y);
      case Op::kF32Sub: IBIN(f32v, x - y);
      case Op::kF32Mul: IBIN(f32v, x * y);
      case Op::kF32Div: IBIN(f32v, x / y);
      case Op::kF32Min: IBIN(f32v, fmin_wasm(x, y));
      case Op::kF32Max: IBIN(f32v, fmax_wasm(x, y));
      case Op::kF32Copysign: IBIN(f32v, std::copysign(x, y));
      case Op::kF64Abs: IUN(f64v, f64v, std::fabs(x));
      case Op::kF64Neg: IUN(f64v, f64v, -x);
      case Op::kF64Ceil: IUN(f64v, f64v, std::ceil(x));
      case Op::kF64Floor: IUN(f64v, f64v, std::floor(x));
      case Op::kF64Trunc: IUN(f64v, f64v, std::trunc(x));
      case Op::kF64Nearest: IUN(f64v, f64v, fnearest(x));
      case Op::kF64Sqrt: IUN(f64v, f64v, std::sqrt(x));
      case Op::kF64Add: IBIN(f64v, x + y);
      case Op::kF64Sub: IBIN(f64v, x - y);
      case Op::kF64Mul: IBIN(f64v, x * y);
      case Op::kF64Div: IBIN(f64v, x / y);
      case Op::kF64Min: IBIN(f64v, fmin_wasm(x, y));
      case Op::kF64Max: IBIN(f64v, fmax_wasm(x, y));
      case Op::kF64Copysign: IBIN(f64v, std::copysign(x, y));

      case Op::kI32WrapI64: IUN(u32v, u64v, u32(x));
      case Op::kI32TruncF32S: IUN(i32v, f32v, (trunc_checked<i32>(x, "i32.trunc_f32_s")));
      case Op::kI32TruncF32U: IUN(u32v, f32v, (trunc_checked<u32>(x, "i32.trunc_f32_u")));
      case Op::kI32TruncF64S: IUN(i32v, f64v, (trunc_checked<i32>(x, "i32.trunc_f64_s")));
      case Op::kI32TruncF64U: IUN(u32v, f64v, (trunc_checked<u32>(x, "i32.trunc_f64_u")));
      case Op::kI64ExtendI32S: IUN(i64v, i32v, i64(x));
      case Op::kI64ExtendI32U: IUN(u64v, u32v, u64(x));
      case Op::kI64TruncF32S: IUN(i64v, f32v, (trunc_checked<i64>(x, "i64.trunc_f32_s")));
      case Op::kI64TruncF32U: IUN(u64v, f32v, (trunc_checked<u64>(x, "i64.trunc_f32_u")));
      case Op::kI64TruncF64S: IUN(i64v, f64v, (trunc_checked<i64>(x, "i64.trunc_f64_s")));
      case Op::kI64TruncF64U: IUN(u64v, f64v, (trunc_checked<u64>(x, "i64.trunc_f64_u")));
      case Op::kF32ConvertI32S: IUN(f32v, i32v, f32(x));
      case Op::kF32ConvertI32U: IUN(f32v, u32v, f32(x));
      case Op::kF32ConvertI64S: IUN(f32v, i64v, f32(x));
      case Op::kF32ConvertI64U: IUN(f32v, u64v, f32(x));
      case Op::kF32DemoteF64: IUN(f32v, f64v, f32(x));
      case Op::kF64ConvertI32S: IUN(f64v, i32v, f64(x));
      case Op::kF64ConvertI32U: IUN(f64v, u32v, f64(x));
      case Op::kF64ConvertI64S: IUN(f64v, i64v, f64(x));
      case Op::kF64ConvertI64U: IUN(f64v, u64v, f64(x));
      case Op::kF64PromoteF32: IUN(f64v, f32v, f64(x));
      case Op::kI32ReinterpretF32:
      case Op::kI64ReinterpretF64:
      case Op::kF32ReinterpretI32:
      case Op::kF64ReinterpretI64:
        break;  // same bits, different typed view
      case Op::kI32Extend8S: IUN(i32v, i32v, i32(i8(x)));
      case Op::kI32Extend16S: IUN(i32v, i32v, i32(i16(x)));
      case Op::kI64Extend8S: IUN(i64v, i64v, i64(i8(x)));
      case Op::kI64Extend16S: IUN(i64v, i64v, i64(i16(x)));
      case Op::kI64Extend32S: IUN(i64v, i64v, i64(i32(x)));

      case Op::kI8x16Splat: TOP.v128v = V128::splat<u8>(u8(TOP.u32v)); break;
      case Op::kI16x8Splat: TOP.v128v = V128::splat<u16>(u16(TOP.u32v)); break;
      case Op::kI32x4Splat: TOP.v128v = V128::splat<u32>(TOP.u32v); break;
      case Op::kI64x2Splat: TOP.v128v = V128::splat<u64>(TOP.u64v); break;
      case Op::kF32x4Splat: TOP.v128v = V128::splat<f32>(TOP.f32v); break;
      case Op::kF64x2Splat: TOP.v128v = V128::splat<f64>(TOP.f64v); break;
      case Op::kI8x16ExtractLaneS:
        TOP.i32v = i32(i8(TOP.v128v.lane<u8, 16>(int(in.imm_i))));
        break;
      case Op::kI8x16ExtractLaneU:
        TOP.u32v = u32(TOP.v128v.lane<u8, 16>(int(in.imm_i)));
        break;
      case Op::kI16x8ExtractLaneS:
        TOP.i32v = i32(i16(TOP.v128v.lane<u16, 8>(int(in.imm_i))));
        break;
      case Op::kI16x8ExtractLaneU:
        TOP.u32v = u32(TOP.v128v.lane<u16, 8>(int(in.imm_i)));
        break;
      case Op::kI32x4ExtractLane: TOP.u32v = TOP.v128v.lane<u32, 4>(int(in.imm_i)); break;
      case Op::kI64x2ExtractLane: TOP.u64v = TOP.v128v.lane<u64, 2>(int(in.imm_i)); break;
      case Op::kF32x4ExtractLane: TOP.f32v = TOP.v128v.lane<f32, 4>(int(in.imm_i)); break;
      case Op::kF64x2ExtractLane: TOP.f64v = TOP.v128v.lane<f64, 2>(int(in.imm_i)); break;
      case Op::kI8x16ReplaceLane: IVREPLACE(u8, 16, u32v);
      case Op::kI16x8ReplaceLane: IVREPLACE(u16, 8, u32v);
      case Op::kI32x4ReplaceLane: IVREPLACE(u32, 4, u32v);
      case Op::kI64x2ReplaceLane: IVREPLACE(u64, 2, u64v);
      case Op::kF32x4ReplaceLane: IVREPLACE(f32, 4, f32v);
      case Op::kF64x2ReplaceLane: IVREPLACE(f64, 2, f64v);
      case Op::kI8x16Shuffle: {
        V128 y = pop_slot().v128v;
        TOP.v128v = i8x16_shuffle(TOP.v128v, y, in.imm_v128);
        break;
      }
      case Op::kI8x16Swizzle: {
        V128 y = pop_slot().v128v;
        TOP.v128v = i8x16_swizzle(TOP.v128v, y);
        break;
      }
      case Op::kI8x16Eq: {
        V128 y = pop_slot().v128v;
        TOP.v128v = i8x16_eq(TOP.v128v, y);
        break;
      }
      case Op::kI8x16Ne: IVCMP(u8, 16, xx != yy);
      case Op::kI8x16LtS: IVCMP(i8, 16, xx < yy);
      case Op::kI8x16LtU: IVCMP(u8, 16, xx < yy);
      case Op::kI8x16GtS: IVCMP(i8, 16, xx > yy);
      case Op::kI8x16GtU: IVCMP(u8, 16, xx > yy);
      case Op::kI8x16LeS: IVCMP(i8, 16, xx <= yy);
      case Op::kI8x16LeU: IVCMP(u8, 16, xx <= yy);
      case Op::kI8x16GeS: IVCMP(i8, 16, xx >= yy);
      case Op::kI8x16GeU: IVCMP(u8, 16, xx >= yy);
      case Op::kI16x8Eq: IVCMP(u16, 8, xx == yy);
      case Op::kI16x8Ne: IVCMP(u16, 8, xx != yy);
      case Op::kI16x8LtS: IVCMP(i16, 8, xx < yy);
      case Op::kI16x8LtU: IVCMP(u16, 8, xx < yy);
      case Op::kI16x8GtS: IVCMP(i16, 8, xx > yy);
      case Op::kI16x8GtU: IVCMP(u16, 8, xx > yy);
      case Op::kI16x8LeS: IVCMP(i16, 8, xx <= yy);
      case Op::kI16x8LeU: IVCMP(u16, 8, xx <= yy);
      case Op::kI16x8GeS: IVCMP(i16, 8, xx >= yy);
      case Op::kI16x8GeU: IVCMP(u16, 8, xx >= yy);
      case Op::kI32x4Eq: IVCMP(u32, 4, xx == yy);
      case Op::kI32x4Ne: IVCMP(u32, 4, xx != yy);
      case Op::kI32x4LtS: IVCMP(i32, 4, xx < yy);
      case Op::kI32x4LtU: IVCMP(u32, 4, xx < yy);
      case Op::kI32x4GtS: IVCMP(i32, 4, xx > yy);
      case Op::kI32x4GtU: IVCMP(u32, 4, xx > yy);
      case Op::kI32x4LeS: IVCMP(i32, 4, xx <= yy);
      case Op::kI32x4LeU: IVCMP(u32, 4, xx <= yy);
      case Op::kI32x4GeS: IVCMP(i32, 4, xx >= yy);
      case Op::kI32x4GeU: IVCMP(u32, 4, xx >= yy);
      case Op::kF32x4Eq: IVCMP(f32, 4, xx == yy);
      case Op::kF32x4Ne: IVCMP(f32, 4, xx != yy);
      case Op::kF32x4Lt: IVCMP(f32, 4, xx < yy);
      case Op::kF32x4Gt: IVCMP(f32, 4, xx > yy);
      case Op::kF32x4Le: IVCMP(f32, 4, xx <= yy);
      case Op::kF32x4Ge: IVCMP(f32, 4, xx >= yy);
      case Op::kF64x2Eq: IVCMP(f64, 2, xx == yy);
      case Op::kF64x2Ne: IVCMP(f64, 2, xx != yy);
      case Op::kF64x2Lt: IVCMP(f64, 2, xx < yy);
      case Op::kF64x2Gt: IVCMP(f64, 2, xx > yy);
      case Op::kF64x2Le: IVCMP(f64, 2, xx <= yy);
      case Op::kF64x2Ge: IVCMP(f64, 2, xx >= yy);
      case Op::kV128Not: TOP.v128v = v128_not(TOP.v128v); break;
      case Op::kV128And: {
        V128 y = pop_slot().v128v;
        TOP.v128v = v128_bitop_and(TOP.v128v, y);
        break;
      }
      case Op::kV128AndNot: {
        V128 y = pop_slot().v128v;
        TOP.v128v = v128_bitop_andnot(TOP.v128v, y);
        break;
      }
      case Op::kV128Or: {
        V128 y = pop_slot().v128v;
        TOP.v128v = v128_bitop_or(TOP.v128v, y);
        break;
      }
      case Op::kV128Xor: {
        V128 y = pop_slot().v128v;
        TOP.v128v = v128_bitop_xor(TOP.v128v, y);
        break;
      }
      case Op::kV128Bitselect: {
        V128 mask = pop_slot().v128v;
        V128 v2 = pop_slot().v128v;
        TOP.v128v = v128_bitselect(TOP.v128v, v2, mask);
        break;
      }
      case Op::kV128AnyTrue: TOP.u32v = u32(v128_any_true(TOP.v128v)); break;
      case Op::kI8x16Abs: IVUN(i8, 16, lane_iabs(xx));
      case Op::kI8x16Neg: IVUN(u8, 16, u8(0u - xx));
      case Op::kI8x16AllTrue:
        TOP.u32v = u32(v128_all_true<u8, 16>(TOP.v128v));
        break;
      case Op::kI8x16Add: IVBIN(u8, 16, u8(xx + yy));
      case Op::kI8x16Sub: IVBIN(u8, 16, u8(xx - yy));
      case Op::kI16x8Abs: IVUN(i16, 8, lane_iabs(xx));
      case Op::kI16x8Neg: IVUN(u16, 8, u16(0u - xx));
      case Op::kI16x8AllTrue:
        TOP.u32v = u32(v128_all_true<u16, 8>(TOP.v128v));
        break;
      case Op::kI16x8Add: IVBIN(u16, 8, u16(xx + yy));
      case Op::kI16x8Sub: IVBIN(u16, 8, u16(xx - yy));
      case Op::kI16x8Mul: IVBIN(u16, 8, u16(xx * yy));
      case Op::kI32x4Abs: IVUN(i32, 4, lane_iabs(xx));
      case Op::kI32x4Neg: IVUN(u32, 4, 0u - xx);
      case Op::kI32x4AllTrue:
        TOP.u32v = u32(v128_all_true<u32, 4>(TOP.v128v));
        break;
      case Op::kI32x4Shl: {
        u32 k = pop_slot().u32v;
        TOP.v128v = v128_shl<u32, 4>(TOP.v128v, k);
        break;
      }
      case Op::kI32x4ShrS: {
        u32 k = pop_slot().u32v;
        TOP.v128v = v128_shr<i32, 4>(TOP.v128v, k);
        break;
      }
      case Op::kI32x4ShrU: {
        u32 k = pop_slot().u32v;
        TOP.v128v = v128_shr<u32, 4>(TOP.v128v, k);
        break;
      }
      case Op::kI32x4Add: IVBIN(u32, 4, xx + yy);
      case Op::kI32x4Sub: IVBIN(u32, 4, xx - yy);
      case Op::kI32x4Mul: IVBIN(u32, 4, xx * yy);
      case Op::kI32x4MinS: IVBIN(i32, 4, xx < yy ? xx : yy);
      case Op::kI32x4MinU: IVBIN(u32, 4, xx < yy ? xx : yy);
      case Op::kI32x4MaxS: IVBIN(i32, 4, xx > yy ? xx : yy);
      case Op::kI32x4MaxU: IVBIN(u32, 4, xx > yy ? xx : yy);
      case Op::kI64x2Abs: IVUN(i64, 2, lane_iabs(xx));
      case Op::kI64x2Neg: IVUN(u64, 2, u64(0) - xx);
      case Op::kI64x2AllTrue:
        TOP.u32v = u32(v128_all_true<u64, 2>(TOP.v128v));
        break;
      case Op::kI64x2Shl: {
        u32 k = pop_slot().u32v;
        TOP.v128v = v128_shl<u64, 2>(TOP.v128v, k);
        break;
      }
      case Op::kI64x2ShrS: {
        u32 k = pop_slot().u32v;
        TOP.v128v = v128_shr<i64, 2>(TOP.v128v, k);
        break;
      }
      case Op::kI64x2ShrU: {
        u32 k = pop_slot().u32v;
        TOP.v128v = v128_shr<u64, 2>(TOP.v128v, k);
        break;
      }
      case Op::kI64x2Add: IVBIN(u64, 2, xx + yy);
      case Op::kI64x2Sub: IVBIN(u64, 2, xx - yy);
      case Op::kI64x2Mul: IVBIN(u64, 2, xx * yy);
      case Op::kF32x4Abs: IVUN(f32, 4, std::fabs(xx));
      case Op::kF32x4Neg: IVUN(f32, 4, -xx);
      case Op::kF32x4Sqrt: IVUN(f32, 4, std::sqrt(xx));
      case Op::kF32x4Add: IVBIN(f32, 4, xx + yy);
      case Op::kF32x4Sub: IVBIN(f32, 4, xx - yy);
      case Op::kF32x4Mul: IVBIN(f32, 4, xx * yy);
      case Op::kF32x4Div: IVBIN(f32, 4, xx / yy);
      case Op::kF32x4Min: IVBIN(f32, 4, fmin_wasm(xx, yy));
      case Op::kF32x4Max: IVBIN(f32, 4, fmax_wasm(xx, yy));
      case Op::kF32x4Pmin: IVBIN(f32, 4, lane_pmin(xx, yy));
      case Op::kF32x4Pmax: IVBIN(f32, 4, lane_pmax(xx, yy));
      case Op::kF64x2Abs: IVUN(f64, 2, std::fabs(xx));
      case Op::kF64x2Neg: IVUN(f64, 2, -xx);
      case Op::kF64x2Sqrt: IVUN(f64, 2, std::sqrt(xx));
      case Op::kF64x2Add: IVBIN(f64, 2, xx + yy);
      case Op::kF64x2Sub: IVBIN(f64, 2, xx - yy);
      case Op::kF64x2Mul: IVBIN(f64, 2, xx * yy);
      case Op::kF64x2Div: IVBIN(f64, 2, xx / yy);
      case Op::kF64x2Min: IVBIN(f64, 2, fmin_wasm(xx, yy));
      case Op::kF64x2Max: IVBIN(f64, 2, fmax_wasm(xx, yy));
      case Op::kF64x2Pmin: IVBIN(f64, 2, lane_pmin(xx, yy));
      case Op::kF64x2Pmax: IVBIN(f64, 2, lane_pmax(xx, yy));

      // --- 0xFE atomics (threads proposal) ------------------------------
      case Op::kMemoryAtomicNotify: {
        u32 count = pop_slot().u32v;
        TOP.u32v = mem.atomic_notify(u64(TOP.u32v) + in.mem_offset, count);
        break;
      }
      case Op::kMemoryAtomicWait32: {
        i64 timeout = pop_slot().i64v;
        u32 expected = pop_slot().u32v;
        TOP.u32v =
            mem.atomic_wait32(u64(TOP.u32v) + in.mem_offset, expected, timeout);
        break;
      }
      case Op::kMemoryAtomicWait64: {
        i64 timeout = pop_slot().i64v;
        u64 expected = pop_slot().u64v;
        TOP.u32v =
            mem.atomic_wait64(u64(TOP.u32v) + in.mem_offset, expected, timeout);
        break;
      }
      case Op::kAtomicFence:
        std::atomic_thread_fence(std::memory_order_seq_cst);
        break;
      case Op::kI32AtomicLoad: IALOAD(u32v, u32);
      case Op::kI64AtomicLoad: IALOAD(u64v, u64);
      case Op::kI32AtomicLoad8U: IALOAD(u32v, u8);
      case Op::kI32AtomicLoad16U: IALOAD(u32v, u16);
      case Op::kI64AtomicLoad8U: IALOAD(u64v, u8);
      case Op::kI64AtomicLoad16U: IALOAD(u64v, u16);
      case Op::kI64AtomicLoad32U: IALOAD(u64v, u32);
      case Op::kI32AtomicStore: IASTORE(u32, u32v);
      case Op::kI64AtomicStore: IASTORE(u64, u64v);
      case Op::kI32AtomicStore8: IASTORE(u8, u32v);
      case Op::kI32AtomicStore16: IASTORE(u16, u32v);
      case Op::kI64AtomicStore8: IASTORE(u8, u64v);
      case Op::kI64AtomicStore16: IASTORE(u16, u64v);
      case Op::kI64AtomicStore32: IASTORE(u32, u64v);
      case Op::kI32AtomicRmwAdd: IARMW(atomic_rmw_add, u32v, u32, u32v);
      case Op::kI64AtomicRmwAdd: IARMW(atomic_rmw_add, u64v, u64, u64v);
      case Op::kI32AtomicRmw8AddU: IARMW(atomic_rmw_add, u32v, u8, u32v);
      case Op::kI32AtomicRmw16AddU: IARMW(atomic_rmw_add, u32v, u16, u32v);
      case Op::kI64AtomicRmw8AddU: IARMW(atomic_rmw_add, u64v, u8, u64v);
      case Op::kI64AtomicRmw16AddU: IARMW(atomic_rmw_add, u64v, u16, u64v);
      case Op::kI64AtomicRmw32AddU: IARMW(atomic_rmw_add, u64v, u32, u64v);
      case Op::kI32AtomicRmwSub: IARMW(atomic_rmw_sub, u32v, u32, u32v);
      case Op::kI64AtomicRmwSub: IARMW(atomic_rmw_sub, u64v, u64, u64v);
      case Op::kI32AtomicRmw8SubU: IARMW(atomic_rmw_sub, u32v, u8, u32v);
      case Op::kI32AtomicRmw16SubU: IARMW(atomic_rmw_sub, u32v, u16, u32v);
      case Op::kI64AtomicRmw8SubU: IARMW(atomic_rmw_sub, u64v, u8, u64v);
      case Op::kI64AtomicRmw16SubU: IARMW(atomic_rmw_sub, u64v, u16, u64v);
      case Op::kI64AtomicRmw32SubU: IARMW(atomic_rmw_sub, u64v, u32, u64v);
      case Op::kI32AtomicRmwAnd: IARMW(atomic_rmw_and, u32v, u32, u32v);
      case Op::kI64AtomicRmwAnd: IARMW(atomic_rmw_and, u64v, u64, u64v);
      case Op::kI32AtomicRmw8AndU: IARMW(atomic_rmw_and, u32v, u8, u32v);
      case Op::kI32AtomicRmw16AndU: IARMW(atomic_rmw_and, u32v, u16, u32v);
      case Op::kI64AtomicRmw8AndU: IARMW(atomic_rmw_and, u64v, u8, u64v);
      case Op::kI64AtomicRmw16AndU: IARMW(atomic_rmw_and, u64v, u16, u64v);
      case Op::kI64AtomicRmw32AndU: IARMW(atomic_rmw_and, u64v, u32, u64v);
      case Op::kI32AtomicRmwOr: IARMW(atomic_rmw_or, u32v, u32, u32v);
      case Op::kI64AtomicRmwOr: IARMW(atomic_rmw_or, u64v, u64, u64v);
      case Op::kI32AtomicRmw8OrU: IARMW(atomic_rmw_or, u32v, u8, u32v);
      case Op::kI32AtomicRmw16OrU: IARMW(atomic_rmw_or, u32v, u16, u32v);
      case Op::kI64AtomicRmw8OrU: IARMW(atomic_rmw_or, u64v, u8, u64v);
      case Op::kI64AtomicRmw16OrU: IARMW(atomic_rmw_or, u64v, u16, u64v);
      case Op::kI64AtomicRmw32OrU: IARMW(atomic_rmw_or, u64v, u32, u64v);
      case Op::kI32AtomicRmwXor: IARMW(atomic_rmw_xor, u32v, u32, u32v);
      case Op::kI64AtomicRmwXor: IARMW(atomic_rmw_xor, u64v, u64, u64v);
      case Op::kI32AtomicRmw8XorU: IARMW(atomic_rmw_xor, u32v, u8, u32v);
      case Op::kI32AtomicRmw16XorU: IARMW(atomic_rmw_xor, u32v, u16, u32v);
      case Op::kI64AtomicRmw8XorU: IARMW(atomic_rmw_xor, u64v, u8, u64v);
      case Op::kI64AtomicRmw16XorU: IARMW(atomic_rmw_xor, u64v, u16, u64v);
      case Op::kI64AtomicRmw32XorU: IARMW(atomic_rmw_xor, u64v, u32, u64v);
      case Op::kI32AtomicRmwXchg: IARMW(atomic_rmw_xchg, u32v, u32, u32v);
      case Op::kI64AtomicRmwXchg: IARMW(atomic_rmw_xchg, u64v, u64, u64v);
      case Op::kI32AtomicRmw8XchgU: IARMW(atomic_rmw_xchg, u32v, u8, u32v);
      case Op::kI32AtomicRmw16XchgU: IARMW(atomic_rmw_xchg, u32v, u16, u32v);
      case Op::kI64AtomicRmw8XchgU: IARMW(atomic_rmw_xchg, u64v, u8, u64v);
      case Op::kI64AtomicRmw16XchgU: IARMW(atomic_rmw_xchg, u64v, u16, u64v);
      case Op::kI64AtomicRmw32XchgU: IARMW(atomic_rmw_xchg, u64v, u32, u64v);
      case Op::kI32AtomicRmwCmpxchg: IACMPXCHG(u32v, u32, u32v);
      case Op::kI64AtomicRmwCmpxchg: IACMPXCHG(u64v, u64, u64v);
      case Op::kI32AtomicRmw8CmpxchgU: IACMPXCHG(u32v, u8, u32v);
      case Op::kI32AtomicRmw16CmpxchgU: IACMPXCHG(u32v, u16, u32v);
      case Op::kI64AtomicRmw8CmpxchgU: IACMPXCHG(u64v, u8, u64v);
      case Op::kI64AtomicRmw16CmpxchgU: IACMPXCHG(u64v, u16, u64v);
      case Op::kI64AtomicRmw32CmpxchgU: IACMPXCHG(u64v, u32, u64v);
    }
    ++i;
  }

#undef PUSH_I32
#undef PUSH_I64
#undef PUSH_F32
#undef PUSH_F64
#undef TOP
#undef NXT
#undef IBIN
#undef ICMP
#undef IUN
#undef ILOAD
#undef ISTORE
#undef IVBIN
#undef IVUN
#undef IVCMP
#undef IVREPLACE
#undef IALOAD
#undef IASTORE
#undef IARMW
#undef IACMPXCHG
}

}  // namespace mpiwasm::rt
