#include "wasm/decoder.h"

#include <algorithm>
#include <cstring>

namespace mpiwasm::wasm {
namespace {

ValType decode_val_type(u8 b) {
  switch (b) {
    case 0x7F: return ValType::kI32;
    case 0x7E: return ValType::kI64;
    case 0x7D: return ValType::kF32;
    case 0x7C: return ValType::kF64;
    case 0x7B: return ValType::kV128;
    case 0x70: return ValType::kFuncRef;
    default: throw DecodeError("invalid value type byte");
  }
}

/// A reservation for `count` entries still to be read from `r`: each takes
/// a byte at least, so a larger count is not trusted (the reads fail).
size_t bounded(u32 count, const ByteReader& r) {
  return std::min<size_t>(count, r.remaining());
}

Limits decode_limits(ByteReader& r) {
  Limits lim;
  u8 flags = r.read_u8();
  // Threads proposal: flag 0x03 marks a shared memory (max required);
  // 0x02 (shared without max) is invalid by construction.
  if (flags == 2) throw DecodeError("shared limits require a max");
  if (flags > 3) throw DecodeError("invalid limits flags");
  lim.shared = flags == 3;
  lim.min = r.read_leb_u32();
  if (flags == 1 || flags == 3) {
    lim.has_max = true;
    lim.max = r.read_leb_u32();
    if (lim.max < lim.min) throw DecodeError("limits max < min");
  }
  return lim;
}

ConstExpr decode_const_expr(ByteReader& r) {
  ConstExpr e;
  u8 op = r.read_u8();
  switch (op) {
    case u8(Op::kI32Const):
      e.kind = ConstExpr::Kind::kI32;
      e.i = r.read_leb_i32();
      break;
    case u8(Op::kI64Const):
      e.kind = ConstExpr::Kind::kI64;
      e.i = r.read_leb_i64();
      break;
    case u8(Op::kF32Const):
      e.kind = ConstExpr::Kind::kF32;
      e.f = r.read_f32_le();
      break;
    case u8(Op::kF64Const):
      e.kind = ConstExpr::Kind::kF64;
      e.f = r.read_f64_le();
      break;
    case u8(Op::kGlobalGet):
      e.kind = ConstExpr::Kind::kGlobalGet;
      e.global_index = r.read_leb_u32();
      break;
    default:
      throw DecodeError("unsupported const expression opcode");
  }
  if (r.read_u8() != u8(Op::kEnd)) throw DecodeError("const expr missing end");
  return e;
}

void decode_type_section(ByteReader& r, Module& m) {
  u32 count = r.read_leb_u32();
  m.types.reserve(bounded(count, r));
  for (u32 i = 0; i < count; ++i) {
    if (r.read_u8() != 0x60) throw DecodeError("expected func type (0x60)");
    FuncType ft;
    u32 np = r.read_leb_u32();
    for (u32 p = 0; p < np; ++p) ft.params.push_back(decode_val_type(r.read_u8()));
    u32 nr = r.read_leb_u32();
    for (u32 q = 0; q < nr; ++q) ft.results.push_back(decode_val_type(r.read_u8()));
    m.types.push_back(std::move(ft));
  }
}

void decode_import_section(ByteReader& r, Module& m) {
  u32 count = r.read_leb_u32();
  for (u32 i = 0; i < count; ++i) {
    Import imp;
    imp.module = r.read_name();
    imp.name = r.read_name();
    u8 kind = r.read_u8();
    switch (kind) {
      case 0:
        imp.kind = ExternKind::kFunc;
        imp.type_index = r.read_leb_u32();
        break;
      case 1: {
        imp.kind = ExternKind::kTable;
        if (r.read_u8() != 0x70) throw DecodeError("table elem type must be funcref");
        imp.limits = decode_limits(r);
        if (imp.limits.shared) throw DecodeError("tables cannot be shared");
        break;
      }
      case 2:
        imp.kind = ExternKind::kMemory;
        imp.limits = decode_limits(r);
        break;
      case 3:
        imp.kind = ExternKind::kGlobal;
        imp.global_type = decode_val_type(r.read_u8());
        imp.global_mutable = r.read_u8() != 0;
        break;
      default:
        throw DecodeError("invalid import kind");
    }
    m.imports.push_back(std::move(imp));
  }
}

void decode_function_section(ByteReader& r, Module& m) {
  u32 count = r.read_leb_u32();
  m.functions.reserve(bounded(count, r));
  for (u32 i = 0; i < count; ++i) m.functions.push_back(r.read_leb_u32());
}

void decode_table_section(ByteReader& r, Module& m) {
  u32 count = r.read_leb_u32();
  for (u32 i = 0; i < count; ++i) {
    if (r.read_u8() != 0x70) throw DecodeError("table elem type must be funcref");
    m.tables.push_back(decode_limits(r));
    if (m.tables.back().shared) throw DecodeError("tables cannot be shared");
  }
  if (m.tables.size() > 1) throw DecodeError("at most one table supported");
}

void decode_memory_section(ByteReader& r, Module& m) {
  u32 count = r.read_leb_u32();
  for (u32 i = 0; i < count; ++i) m.memories.push_back(decode_limits(r));
  if (m.memories.size() > 1) throw DecodeError("at most one memory supported");
}

void decode_global_section(ByteReader& r, Module& m) {
  u32 count = r.read_leb_u32();
  for (u32 i = 0; i < count; ++i) {
    GlobalDef g;
    g.type = decode_val_type(r.read_u8());
    u8 mut = r.read_u8();
    if (mut > 1) throw DecodeError("invalid global mutability");
    g.mutable_ = mut == 1;
    g.init = decode_const_expr(r);
    m.globals.push_back(g);
  }
}

void decode_export_section(ByteReader& r, Module& m) {
  u32 count = r.read_leb_u32();
  for (u32 i = 0; i < count; ++i) {
    Export e;
    e.name = r.read_name();
    u8 kind = r.read_u8();
    if (kind > 3) throw DecodeError("invalid export kind");
    e.kind = ExternKind(kind);
    e.index = r.read_leb_u32();
    m.exports.push_back(std::move(e));
  }
}

void decode_element_section(ByteReader& r, Module& m) {
  u32 count = r.read_leb_u32();
  for (u32 i = 0; i < count; ++i) {
    ElemSegment seg;
    u32 flags = r.read_leb_u32();
    if (flags != 0) throw DecodeError("only active funcref element segments supported");
    seg.table_index = 0;
    seg.offset = decode_const_expr(r);
    u32 n = r.read_leb_u32();
    seg.func_indices.reserve(bounded(n, r));
    for (u32 j = 0; j < n; ++j) seg.func_indices.push_back(r.read_leb_u32());
    m.elems.push_back(std::move(seg));
  }
}

/// Records where each body lies in the module (the section starts at `base`).
void decode_code_section(ByteReader& r, size_t base, Module& m) {
  u32 count = r.read_leb_u32();
  if (count != m.functions.size())
    throw DecodeError("code section count mismatch with function section");
  m.bodies.reserve(bounded(count, r));
  for (u32 i = 0; i < count; ++i) {
    u32 body_size = r.read_leb_u32();
    size_t body_end = r.pos() + body_size;
    if (body_end > r.size()) throw DecodeError("code body exceeds section");
    FuncBody body;
    body.first_run = u32(m.local_runs.size());
    u32 local_groups = r.read_leb_u32();
    for (u32 g = 0; g < local_groups; ++g) {
      u32 n = r.read_leb_u32();
      ValType t = decode_val_type(r.read_u8());
      if (size_t(body.num_locals) + n > 50000) throw DecodeError("too many locals");
      body.num_locals += n;
      m.local_runs.push_back({n, t});
    }
    body.num_runs = u32(m.local_runs.size()) - body.first_run;
    if (r.pos() > body_end) throw DecodeError("locals overrun body");
    body.offset = base + r.pos();
    body.length = u32(body_end - r.pos());
    auto code = r.read_bytes(body.length);
    if (code.empty() || code.back() != u8(Op::kEnd))
      throw DecodeError("function body must end with end opcode");
    m.bodies.push_back(body);
  }
}

void decode_data_section(ByteReader& r, size_t base, Module& m) {
  u32 count = r.read_leb_u32();
  for (u32 i = 0; i < count; ++i) {
    DataSegment seg;
    u32 flags = r.read_leb_u32();
    if (flags != 0) throw DecodeError("only active data segments supported");
    seg.memory_index = 0;
    seg.offset = decode_const_expr(r);
    seg.length = r.read_leb_u32();
    seg.init_offset = base + r.pos();
    r.read_bytes(seg.length);
    m.datas.push_back(seg);
  }
}

}  // namespace

DecodeResult decode_module(std::span<const u8> bytes) {
  DecodeResult result;
  try {
    ByteReader r(bytes);
    if (r.read_u32_le() != kWasmMagic) throw DecodeError("bad magic");
    if (r.read_u32_le() != kWasmVersion) throw DecodeError("unsupported version");
    Module m;
    int last_section = -1;
    while (!r.done()) {
      u8 id = r.read_u8();
      u32 size = r.read_leb_u32();
      size_t end = r.pos() + size;
      if (end > r.size()) throw DecodeError("section exceeds module size");
      if (id != u8(SectionId::kCustom)) {
        if (int(id) <= last_section)
          throw DecodeError("sections out of order or duplicated");
        last_section = int(id);
      }
      ByteReader section(bytes.subspan(r.pos(), size));
      switch (SectionId(id)) {
        case SectionId::kCustom: break;  // names etc.: skipped
        case SectionId::kType: decode_type_section(section, m); break;
        case SectionId::kImport: decode_import_section(section, m); break;
        case SectionId::kFunction: decode_function_section(section, m); break;
        case SectionId::kTable: decode_table_section(section, m); break;
        case SectionId::kMemory: decode_memory_section(section, m); break;
        case SectionId::kGlobal: decode_global_section(section, m); break;
        case SectionId::kExport: decode_export_section(section, m); break;
        case SectionId::kStart: m.start = section.read_leb_u32(); break;
        case SectionId::kElement: decode_element_section(section, m); break;
        case SectionId::kCode: decode_code_section(section, r.pos(), m); break;
        case SectionId::kData: decode_data_section(section, r.pos(), m); break;
        default: throw DecodeError("unknown section id");
      }
      if (id != u8(SectionId::kCustom) && !section.done())
        throw DecodeError("trailing bytes in section");
      r.seek(end);
    }
    if (m.bodies.size() != m.functions.size())
      throw DecodeError("function/code section mismatch");
    m.bytes.assign(bytes.begin(), bytes.end());
    result.module = std::move(m);
  } catch (const DecodeError& e) {
    result.error = e.what();
  }
  return result;
}

void InstrReader::next(InstrView& v) {
  v.pc = r_.pos();
  v.imm_i = 0;
  v.imm_f32 = 0;
  v.imm_f64 = 0;
  v.mem_align = 0;
  v.mem_offset = 0;
  v.indirect_type_index = 0;
  v.block_type = kBlockTypeEmpty;
  v.br_targets.clear();
  v.br_default = 0;
  u8 first = r_.read_u8();
  u16 code = first;
  if (first == 0xFC || first == 0xFD || first == 0xFE) {
    u32 sub = r_.read_leb_u32();
    if (sub > 0xFF) throw DecodeError("prefixed opcode out of range");
    code = u16((first << 8) | sub);
  }
  const OpInfo& info = op_info(code);
  if (!info.known) throw DecodeError("unknown opcode");
  v.op = Op(code);

  switch (info.imm) {
    case ImmKind::kNone:
      break;
    case ImmKind::kBlockType: {
      u8 bt = r_.peek_u8();
      if (bt == kBlockTypeEmpty || bt == 0x7F || bt == 0x7E || bt == 0x7D ||
          bt == 0x7C || bt == 0x7B) {
        v.block_type = r_.read_u8();
      } else {
        throw DecodeError("type-indexed block types not supported");
      }
      break;
    }
    case ImmKind::kLabel:
    case ImmKind::kFuncIdx:
    case ImmKind::kLocalIdx:
    case ImmKind::kGlobalIdx:
      v.imm_i = r_.read_leb_u32();
      break;
    case ImmKind::kBrTable: {
      u32 n = r_.read_leb_u32();
      if (n > 1u << 20) throw DecodeError("br_table too large");
      v.br_targets.reserve(n);
      for (u32 i = 0; i < n; ++i) v.br_targets.push_back(r_.read_leb_u32());
      v.br_default = r_.read_leb_u32();
      break;
    }
    case ImmKind::kCallIndirect:
      v.indirect_type_index = r_.read_leb_u32();
      if (r_.read_u8() != 0) throw DecodeError("call_indirect table index must be 0");
      break;
    case ImmKind::kMemArg:
      v.mem_align = r_.read_leb_u32();
      v.mem_offset = r_.read_leb_u32();
      break;
    case ImmKind::kMemArgLane:
      throw DecodeError("SIMD load/store lane not supported");
    case ImmKind::kMemIdx:
      if (r_.read_u8() != 0) throw DecodeError("memory index must be 0");
      break;
    case ImmKind::kMemCopy:
      if (r_.read_u8() != 0 || r_.read_u8() != 0)
        throw DecodeError("memory.copy indices must be 0");
      break;
    case ImmKind::kI32Const:
      v.imm_i = r_.read_leb_i32();
      break;
    case ImmKind::kI64Const:
      v.imm_i = r_.read_leb_i64();
      break;
    case ImmKind::kF32Const:
      v.imm_f32 = r_.read_f32_le();
      break;
    case ImmKind::kF64Const:
      v.imm_f64 = r_.read_f64_le();
      break;
    case ImmKind::kV128Const:
    case ImmKind::kShuffle16: {
      // 16 literal bytes: a v128 constant or a shuffle's lane selectors
      // (the validator range-checks the selectors).
      auto b = r_.read_bytes(16);
      std::memcpy(v.imm_v128.bytes, b.data(), 16);
      break;
    }
    case ImmKind::kLaneIdx:
      v.imm_i = r_.read_u8();
      break;
    case ImmKind::kAtomicFence:
      if (r_.read_u8() != 0)
        throw DecodeError("atomic.fence ordering byte must be 0");
      break;
  }
  v.next_pc = r_.pos();
}

}  // namespace mpiwasm::wasm
