#include "wasm/wat.h"

#include <sstream>

#include "wasm/decoder.h"

namespace mpiwasm::wasm {
namespace {

void print_func_type(std::ostringstream& os, const FuncType& t) {
  if (!t.params.empty()) {
    os << " (param";
    for (ValType p : t.params) os << " " << val_type_name(p);
    os << ")";
  }
  if (!t.results.empty()) {
    os << " (result";
    for (ValType r : t.results) os << " " << val_type_name(r);
    os << ")";
  }
}

const char* kind_name(ExternKind k) {
  switch (k) {
    case ExternKind::kFunc: return "func";
    case ExternKind::kTable: return "table";
    case ExternKind::kMemory: return "memory";
    case ExternKind::kGlobal: return "global";
  }
  return "?";
}

void print_body(std::ostringstream& os, const Module& m, u32 defined_index,
                const WatOptions& opts) {
  size_t lines = 0;
  int indent = 2;
  InstrReader reader(m.code(defined_index));
  InstrView in;
  while (!reader.done()) {
    reader.next(in);
    if (in.op == Op::kEnd || in.op == Op::kElse) indent = std::max(1, indent - 1);
    if (opts.max_code_lines != 0 && lines >= opts.max_code_lines) {
      for (int i = 0; i < indent; ++i) os << "  ";
      os << ";; ...\n";
      return;
    }
    for (int i = 0; i < indent; ++i) os << "  ";
    os << op_name(in.op);
    switch (op_imm_kind(in.op)) {
      case ImmKind::kBlockType:
        if (in.block_type != kBlockTypeEmpty)
          os << " (result " << val_type_name(ValType(in.block_type)) << ")";
        break;
      case ImmKind::kLabel:
      case ImmKind::kLocalIdx:
      case ImmKind::kGlobalIdx:
      case ImmKind::kLaneIdx:
        os << " " << in.imm_i;
        break;
      case ImmKind::kFuncIdx:
        os << " " << in.imm_i;
        break;
      case ImmKind::kBrTable:
        for (u32 t : in.br_targets) os << " " << t;
        os << " " << in.br_default;
        break;
      case ImmKind::kCallIndirect:
        os << " (type " << in.indirect_type_index << ")";
        break;
      case ImmKind::kMemArg:
        if (in.mem_offset != 0) os << " offset=" << in.mem_offset;
        break;
      case ImmKind::kI32Const:
        os << " " << i32(in.imm_i);
        break;
      case ImmKind::kI64Const:
        os << " " << in.imm_i;
        break;
      case ImmKind::kF32Const:
        os << " " << in.imm_f32;
        break;
      case ImmKind::kF64Const:
        os << " " << in.imm_f64;
        break;
      case ImmKind::kV128Const: {
        os << " i64x2";
        os << " 0x" << std::hex << in.imm_v128.lane<u64, 2>(0) << " 0x"
           << in.imm_v128.lane<u64, 2>(1) << std::dec;
        break;
      }
      case ImmKind::kShuffle16:
        for (int k = 0; k < 16; ++k) os << " " << u32(in.imm_v128.bytes[k]);
        break;
      default:
        break;
    }
    os << "\n";
    ++lines;
    if (in.op == Op::kBlock || in.op == Op::kLoop || in.op == Op::kIf ||
        in.op == Op::kElse)
      ++indent;
  }
  (void)m;
}

}  // namespace

std::string to_wat(const Module& m, const WatOptions& opts) {
  std::ostringstream os;
  os << "(module\n";
  for (size_t i = 0; i < m.types.size(); ++i) {
    os << "  (type (;" << i << ";) (func";
    print_func_type(os, m.types[i]);
    os << "))\n";
  }
  for (const auto& imp : m.imports) {
    os << "  (import \"" << imp.module << "\" \"" << imp.name << "\" ("
       << kind_name(imp.kind);
    if (imp.kind == ExternKind::kFunc) os << " (type " << imp.type_index << ")";
    os << "))\n";
  }
  if (!m.memories.empty()) {
    os << "  (memory (;0;) " << m.memories[0].min;
    if (m.memories[0].has_max) os << " " << m.memories[0].max;
    os << ")\n";
  }
  if (!m.tables.empty())
    os << "  (table (;0;) " << m.tables[0].min << " funcref)\n";
  for (size_t i = 0; i < m.globals.size(); ++i) {
    const auto& g = m.globals[i];
    os << "  (global (;" << (m.num_imported_globals() + i) << ";) ";
    if (g.mutable_) os << "(mut " << val_type_name(g.type) << ")";
    else os << val_type_name(g.type);
    os << ")\n";
  }
  u32 imported = m.num_imported_funcs();
  for (size_t i = 0; i < m.functions.size(); ++i) {
    u32 fi = imported + u32(i);
    os << "  (func (;" << fi << ";) (type " << m.functions[i] << ")";
    print_func_type(os, m.types[m.functions[i]]);
    if (m.bodies[i].num_locals != 0) {
      os << " (local";
      for (const LocalRun& run : m.locals(u32(i)))
        for (u32 k = 0; k < run.count; ++k) os << " " << val_type_name(run.type);
      os << ")";
    }
    os << "\n";
    if (opts.print_code) print_body(os, m, u32(i), opts);
    os << "  )\n";
  }
  for (const auto& e : m.exports) {
    os << "  (export \"" << e.name << "\" (" << kind_name(e.kind) << " "
       << e.index << "))\n";
  }
  if (m.start.has_value()) os << "  (start " << *m.start << ")\n";
  for (const auto& d : m.datas) {
    os << "  (data (;0;) (i32.const " << d.offset.i << ") \""
       << d.length << " bytes\")\n";
  }
  os << ")\n";
  return os.str();
}

}  // namespace mpiwasm::wasm
