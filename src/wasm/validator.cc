#include "wasm/validator.h"

#include <optional>
#include <sstream>
#include <vector>

#include "support/parallel.h"
#include "wasm/decoder.h"

namespace mpiwasm::wasm {
namespace {

// Body bytes per parallel_for chunk: about 0.6 ms of validation at the
// ~105 MB/s one Xeon vCPU validates the compile-stress module
// (RelWithDebInfo), long enough that starting a helper thread pays off.
constexpr u64 kValidateChunkBytes = 64 << 10;

class ValidationError : public std::runtime_error {
 public:
  explicit ValidationError(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] void verr(const std::string& msg) { throw ValidationError(msg); }

// nullopt = "Unknown" type from unreachable polymorphism.
using StackType = std::optional<ValType>;

struct ControlFrame {
  Op opcode = Op::kBlock;
  std::optional<ValType> result;  // at most one result per block
  size_t height = 0;
  bool unreachable = false;
};

/// What the shell and the bodies of one module are checked against. Type
/// indices are not range-checked here; the shell checks them first.
struct ModuleFacts {
  explicit ModuleFacts(const Module& m) {
    for (const Import& imp : m.imports) {
      switch (imp.kind) {
        case ExternKind::kFunc: func_types.push_back(imp.type_index); break;
        case ExternKind::kTable: has_table = true; break;
        case ExternKind::kMemory:
          has_memory = true;
          has_shared_memory |= imp.limits.shared;
          break;
        case ExternKind::kGlobal:
          global_types.push_back(imp.global_type);
          imported_global_mutable.push_back(imp.global_mutable);
          break;
      }
    }
    num_imported_funcs = u32(func_types.size());
    num_imported_globals = u32(global_types.size());
    func_types.insert(func_types.end(), m.functions.begin(), m.functions.end());
    for (const GlobalDef& g : m.globals) global_types.push_back(g.type);
    has_table |= !m.tables.empty();
    has_memory |= !m.memories.empty();
    has_shared_memory |= !m.memories.empty() && m.memories[0].shared;
  }

  std::vector<u32> func_types;        // type index, by function index
  std::vector<ValType> global_types;  // by global index
  std::vector<bool> imported_global_mutable;
  u32 num_imported_funcs = 0;
  u32 num_imported_globals = 0;
  bool has_memory = false;
  bool has_table = false;
  bool has_shared_memory = false;
};

/// The stacks and instruction view of one body's validation. Each thread
/// keeps one set and reuses it for every body it validates, so once they
/// have grown to fit the module's bodies, a body allocates nothing.
struct FuncScratch {
  std::vector<ValType> locals;
  std::vector<StackType> stack;
  std::vector<ControlFrame> ctrl;
  InstrView in;

  /// Frees what a huge body grew, so that a thread keeps at most a few
  /// hundred KiB once validation returns.
  void trim() {
    constexpr size_t kKeep = 16 << 10;  // entries per stack
    if (locals.capacity() > kKeep) locals = {};
    if (stack.capacity() > kKeep) stack = {};
    if (ctrl.capacity() > kKeep) ctrl = {};
    if (in.br_targets.capacity() > kKeep) in.br_targets = {};
  }
};

FuncScratch& thread_scratch() {
  thread_local FuncScratch scratch;
  return scratch;
}

/// Function-body validator implementing the spec algorithm.
class FuncValidator {
 public:
  FuncValidator(const Module& m, const ModuleFacts& facts, FuncScratch& scratch,
                u32 func_index)
      : m_(m),
        facts_(facts),
        type_(m.types.at(facts.func_types.at(facts.num_imported_funcs + func_index))),
        code_(m.code(func_index)),
        locals_(scratch.locals),
        stack_(scratch.stack),
        ctrl_(scratch.ctrl),
        in_(scratch.in) {
    locals_.assign(type_.params.begin(), type_.params.end());
    for (const LocalRun& run : m.locals(func_index))
      locals_.insert(locals_.end(), run.count, run.type);
    stack_.clear();
    ctrl_.clear();
  }

  void run() {
    if (type_.results.size() > 1) verr("multi-value function results unsupported");
    push_frame(Op::kBlock, result_type());
    InstrReader reader(code_);
    while (!reader.done()) {
      reader.next(in_);
      if (ctrl_.empty()) verr("instructions after function end");
      step(in_);
    }
    if (!ctrl_.empty()) verr("function body missing end");
    if (result_type().has_value()) {
      if (stack_.size() != 1) verr("function must leave exactly its result on the stack");
    } else if (!stack_.empty()) {
      verr("function with no result must leave empty stack");
    }
  }

 private:
  std::optional<ValType> result_type() const {
    return type_.results.empty() ? std::nullopt
                                 : std::make_optional(type_.results[0]);
  }

  void push_val(StackType t) { stack_.push_back(t); }
  void push_val(ValType t) { stack_.push_back(t); }

  StackType pop_val() {
    ControlFrame& f = ctrl_.back();
    if (stack_.size() == f.height) {
      if (f.unreachable) return std::nullopt;
      verr("value stack underflow");
    }
    StackType t = stack_.back();
    stack_.pop_back();
    return t;
  }

  StackType pop_val(ValType expect) {
    StackType t = pop_val();
    if (t.has_value() && *t != expect) {
      std::ostringstream os;
      os << "type mismatch: expected " << val_type_name(expect) << ", got "
         << val_type_name(*t);
      verr(os.str());
    }
    return t.has_value() ? t : StackType(expect);
  }

  void push_frame(Op opcode, std::optional<ValType> result) {
    ctrl_.push_back({opcode, result, stack_.size(), false});
  }

  ControlFrame pop_frame() {
    if (ctrl_.empty()) verr("control stack underflow");
    ControlFrame f = ctrl_.back();
    if (f.result.has_value()) pop_val(*f.result);
    if (stack_.size() != f.height) verr("block left extra values on the stack");
    ctrl_.pop_back();
    return f;
  }

  void set_unreachable() {
    ControlFrame& f = ctrl_.back();
    stack_.resize(f.height);
    f.unreachable = true;
  }

  /// Types a branch to relative label `depth` must provide.
  std::optional<ValType> label_result(u32 depth) {
    if (depth >= ctrl_.size()) verr("branch label out of range");
    const ControlFrame& f = ctrl_[ctrl_.size() - 1 - depth];
    // Branching to a loop re-enters its beginning: no values expected.
    if (f.opcode == Op::kLoop) return std::nullopt;
    return f.result;
  }

  std::optional<ValType> block_result(u8 block_type) {
    if (block_type == kBlockTypeEmpty) return std::nullopt;
    return ValType(block_type);
  }

  void require_memory() {
    if (!facts_.has_memory) verr("instruction requires a memory");
  }

  void check_align(u32 align, u32 natural_bytes) {
    u32 natural_log2 = 0;
    while ((1u << natural_log2) < natural_bytes) ++natural_log2;
    if (align > natural_log2) verr("alignment exceeds natural alignment");
  }

  void load(ValType result, u32 bytes, const InstrView& in) {
    require_memory();
    check_align(in.mem_align, bytes);
    pop_val(ValType::kI32);
    push_val(result);
  }

  void store(ValType operand, u32 bytes, const InstrView& in) {
    require_memory();
    check_align(in.mem_align, bytes);
    pop_val(operand);
    pop_val(ValType::kI32);
  }

  /// Atomic accesses need a *shared* memory and exactly natural alignment
  /// (the threads proposal forbids under-aligned hints on atomics).
  void check_atomic(u32 align, u32 bytes) {
    if (!facts_.has_shared_memory) verr("atomic operation requires a shared memory");
    u32 natural_log2 = 0;
    while ((1u << natural_log2) < bytes) ++natural_log2;
    if (align != natural_log2)
      verr("atomic alignment must equal natural alignment");
  }

  void atomic_load(ValType result, u32 bytes, const InstrView& in) {
    check_atomic(in.mem_align, bytes);
    pop_val(ValType::kI32);
    push_val(result);
  }

  void atomic_store(ValType operand, u32 bytes, const InstrView& in) {
    check_atomic(in.mem_align, bytes);
    pop_val(operand);
    pop_val(ValType::kI32);
  }

  void atomic_rmw(ValType t, u32 bytes, const InstrView& in) {
    check_atomic(in.mem_align, bytes);
    pop_val(t);
    pop_val(ValType::kI32);
    push_val(t);
  }

  void atomic_cmpxchg(ValType t, u32 bytes, const InstrView& in) {
    check_atomic(in.mem_align, bytes);
    pop_val(t);  // replacement
    pop_val(t);  // expected
    pop_val(ValType::kI32);
    push_val(t);
  }

  void binop(ValType t) {
    pop_val(t);
    pop_val(t);
    push_val(t);
  }

  void unop(ValType t) {
    pop_val(t);
    push_val(t);
  }

  void cmp(ValType t) {
    pop_val(t);
    pop_val(t);
    push_val(ValType::kI32);
  }

  void convert(ValType from, ValType to) {
    pop_val(from);
    push_val(to);
  }

  void step(const InstrView& in);

  const Module& m_;
  const ModuleFacts& facts_;
  const FuncType& type_;
  std::span<const u8> code_;
  std::vector<ValType>& locals_;
  std::vector<StackType>& stack_;
  std::vector<ControlFrame>& ctrl_;
  InstrView& in_;
};

void FuncValidator::step(const InstrView& in) {
  switch (in.op) {
    case Op::kUnreachable:
      set_unreachable();
      break;
    case Op::kNop:
      break;
    case Op::kBlock:
    case Op::kLoop:
      push_frame(in.op, block_result(in.block_type));
      break;
    case Op::kIf:
      pop_val(ValType::kI32);
      push_frame(Op::kIf, block_result(in.block_type));
      break;
    case Op::kElse: {
      if (ctrl_.empty() || ctrl_.back().opcode != Op::kIf)
        verr("else without matching if");
      ControlFrame f = pop_frame();
      push_frame(Op::kElse, f.result);
      break;
    }
    case Op::kEnd: {
      ControlFrame f = pop_frame();
      if (f.opcode == Op::kIf && f.result.has_value())
        verr("if with result requires an else branch");
      if (f.result.has_value()) push_val(*f.result);
      break;
    }
    case Op::kBr: {
      auto r = label_result(in.idx());
      if (r.has_value()) pop_val(*r);
      set_unreachable();
      break;
    }
    case Op::kBrIf: {
      pop_val(ValType::kI32);
      auto r = label_result(in.idx());
      if (r.has_value()) {
        pop_val(*r);
        push_val(*r);
      }
      break;
    }
    case Op::kBrTable: {
      pop_val(ValType::kI32);
      auto expect = label_result(in.br_default);
      for (u32 t : in.br_targets) {
        auto r = label_result(t);
        if (r != expect) verr("br_table targets have mismatched result types");
      }
      if (expect.has_value()) pop_val(*expect);
      set_unreachable();
      break;
    }
    case Op::kReturn: {
      if (result_type().has_value()) pop_val(*result_type());
      set_unreachable();
      break;
    }
    case Op::kCall: {
      u32 fi = in.idx();
      if (fi >= facts_.func_types.size()) verr("call to out-of-range function index");
      const FuncType& ft = m_.types[facts_.func_types[fi]];
      for (auto it = ft.params.rbegin(); it != ft.params.rend(); ++it) pop_val(*it);
      for (ValType r : ft.results) push_val(r);
      break;
    }
    case Op::kCallIndirect: {
      if (!facts_.has_table) verr("call_indirect requires a table");
      if (in.indirect_type_index >= m_.types.size())
        verr("call_indirect type index out of range");
      pop_val(ValType::kI32);
      const FuncType& ft = m_.types[in.indirect_type_index];
      if (ft.results.size() > 1) verr("multi-value results unsupported");
      for (auto it = ft.params.rbegin(); it != ft.params.rend(); ++it) pop_val(*it);
      for (ValType r : ft.results) push_val(r);
      break;
    }
    case Op::kDrop:
      pop_val();
      break;
    case Op::kSelect: {
      pop_val(ValType::kI32);
      StackType a = pop_val();
      StackType b = pop_val();
      if (a.has_value() && b.has_value() && *a != *b)
        verr("select operands must have the same type");
      StackType out = a.has_value() ? a : b;
      if (out.has_value() && !is_num_type(*out)) verr("select requires numeric types");
      push_val(out);
      break;
    }
    case Op::kLocalGet:
      if (in.idx() >= locals_.size()) verr("local.get index out of range");
      push_val(locals_[in.idx()]);
      break;
    case Op::kLocalSet:
      if (in.idx() >= locals_.size()) verr("local.set index out of range");
      pop_val(locals_[in.idx()]);
      break;
    case Op::kLocalTee:
      if (in.idx() >= locals_.size()) verr("local.tee index out of range");
      pop_val(locals_[in.idx()]);
      push_val(locals_[in.idx()]);
      break;
    case Op::kGlobalGet: {
      u32 gi = in.idx();
      if (gi >= facts_.global_types.size()) verr("global.get index out of range");
      push_val(facts_.global_types[gi]);
      break;
    }
    case Op::kGlobalSet: {
      u32 gi = in.idx();
      if (gi >= facts_.global_types.size()) verr("global.set index out of range");
      u32 imported = facts_.num_imported_globals;
      if (gi < imported) verr("global.set on imported global unsupported");
      const GlobalDef& g = m_.globals[gi - imported];
      if (!g.mutable_) verr("global.set on immutable global");
      pop_val(g.type);
      break;
    }
    case Op::kI32Load: load(ValType::kI32, 4, in); break;
    case Op::kI64Load: load(ValType::kI64, 8, in); break;
    case Op::kF32Load: load(ValType::kF32, 4, in); break;
    case Op::kF64Load: load(ValType::kF64, 8, in); break;
    case Op::kI32Load8S: case Op::kI32Load8U: load(ValType::kI32, 1, in); break;
    case Op::kI32Load16S: case Op::kI32Load16U: load(ValType::kI32, 2, in); break;
    case Op::kI64Load8S: case Op::kI64Load8U: load(ValType::kI64, 1, in); break;
    case Op::kI64Load16S: case Op::kI64Load16U: load(ValType::kI64, 2, in); break;
    case Op::kI64Load32S: case Op::kI64Load32U: load(ValType::kI64, 4, in); break;
    case Op::kI32Store: store(ValType::kI32, 4, in); break;
    case Op::kI64Store: store(ValType::kI64, 8, in); break;
    case Op::kF32Store: store(ValType::kF32, 4, in); break;
    case Op::kF64Store: store(ValType::kF64, 8, in); break;
    case Op::kI32Store8: store(ValType::kI32, 1, in); break;
    case Op::kI32Store16: store(ValType::kI32, 2, in); break;
    case Op::kI64Store8: store(ValType::kI64, 1, in); break;
    case Op::kI64Store16: store(ValType::kI64, 2, in); break;
    case Op::kI64Store32: store(ValType::kI64, 4, in); break;
    case Op::kMemorySize:
      require_memory();
      push_val(ValType::kI32);
      break;
    case Op::kMemoryGrow:
      require_memory();
      pop_val(ValType::kI32);
      push_val(ValType::kI32);
      break;
    case Op::kMemoryCopy:
    case Op::kMemoryFill:
      require_memory();
      pop_val(ValType::kI32);
      pop_val(ValType::kI32);
      pop_val(ValType::kI32);
      break;
    case Op::kI32Const: push_val(ValType::kI32); break;
    case Op::kI64Const: push_val(ValType::kI64); break;
    case Op::kF32Const: push_val(ValType::kF32); break;
    case Op::kF64Const: push_val(ValType::kF64); break;
    case Op::kI32Eqz: convert(ValType::kI32, ValType::kI32); break;
    case Op::kI64Eqz: convert(ValType::kI64, ValType::kI32); break;
    case Op::kI32Eq: case Op::kI32Ne: case Op::kI32LtS: case Op::kI32LtU:
    case Op::kI32GtS: case Op::kI32GtU: case Op::kI32LeS: case Op::kI32LeU:
    case Op::kI32GeS: case Op::kI32GeU:
      cmp(ValType::kI32);
      break;
    case Op::kI64Eq: case Op::kI64Ne: case Op::kI64LtS: case Op::kI64LtU:
    case Op::kI64GtS: case Op::kI64GtU: case Op::kI64LeS: case Op::kI64LeU:
    case Op::kI64GeS: case Op::kI64GeU:
      cmp(ValType::kI64);
      break;
    case Op::kF32Eq: case Op::kF32Ne: case Op::kF32Lt: case Op::kF32Gt:
    case Op::kF32Le: case Op::kF32Ge:
      cmp(ValType::kF32);
      break;
    case Op::kF64Eq: case Op::kF64Ne: case Op::kF64Lt: case Op::kF64Gt:
    case Op::kF64Le: case Op::kF64Ge:
      cmp(ValType::kF64);
      break;
    case Op::kI32Clz: case Op::kI32Ctz: case Op::kI32Popcnt:
    case Op::kI32Extend8S: case Op::kI32Extend16S:
      unop(ValType::kI32);
      break;
    case Op::kI32Add: case Op::kI32Sub: case Op::kI32Mul: case Op::kI32DivS:
    case Op::kI32DivU: case Op::kI32RemS: case Op::kI32RemU: case Op::kI32And:
    case Op::kI32Or: case Op::kI32Xor: case Op::kI32Shl: case Op::kI32ShrS:
    case Op::kI32ShrU: case Op::kI32Rotl: case Op::kI32Rotr:
      binop(ValType::kI32);
      break;
    case Op::kI64Clz: case Op::kI64Ctz: case Op::kI64Popcnt:
    case Op::kI64Extend8S: case Op::kI64Extend16S: case Op::kI64Extend32S:
      unop(ValType::kI64);
      break;
    case Op::kI64Add: case Op::kI64Sub: case Op::kI64Mul: case Op::kI64DivS:
    case Op::kI64DivU: case Op::kI64RemS: case Op::kI64RemU: case Op::kI64And:
    case Op::kI64Or: case Op::kI64Xor: case Op::kI64Shl: case Op::kI64ShrS:
    case Op::kI64ShrU: case Op::kI64Rotl: case Op::kI64Rotr:
      binop(ValType::kI64);
      break;
    case Op::kF32Abs: case Op::kF32Neg: case Op::kF32Ceil: case Op::kF32Floor:
    case Op::kF32Trunc: case Op::kF32Nearest: case Op::kF32Sqrt:
      unop(ValType::kF32);
      break;
    case Op::kF32Add: case Op::kF32Sub: case Op::kF32Mul: case Op::kF32Div:
    case Op::kF32Min: case Op::kF32Max: case Op::kF32Copysign:
      binop(ValType::kF32);
      break;
    case Op::kF64Abs: case Op::kF64Neg: case Op::kF64Ceil: case Op::kF64Floor:
    case Op::kF64Trunc: case Op::kF64Nearest: case Op::kF64Sqrt:
      unop(ValType::kF64);
      break;
    case Op::kF64Add: case Op::kF64Sub: case Op::kF64Mul: case Op::kF64Div:
    case Op::kF64Min: case Op::kF64Max: case Op::kF64Copysign:
      binop(ValType::kF64);
      break;
    case Op::kI32WrapI64: convert(ValType::kI64, ValType::kI32); break;
    case Op::kI32TruncF32S: case Op::kI32TruncF32U:
      convert(ValType::kF32, ValType::kI32);
      break;
    case Op::kI32TruncF64S: case Op::kI32TruncF64U:
      convert(ValType::kF64, ValType::kI32);
      break;
    case Op::kI64ExtendI32S: case Op::kI64ExtendI32U:
      convert(ValType::kI32, ValType::kI64);
      break;
    case Op::kI64TruncF32S: case Op::kI64TruncF32U:
      convert(ValType::kF32, ValType::kI64);
      break;
    case Op::kI64TruncF64S: case Op::kI64TruncF64U:
      convert(ValType::kF64, ValType::kI64);
      break;
    case Op::kF32ConvertI32S: case Op::kF32ConvertI32U:
      convert(ValType::kI32, ValType::kF32);
      break;
    case Op::kF32ConvertI64S: case Op::kF32ConvertI64U:
      convert(ValType::kI64, ValType::kF32);
      break;
    case Op::kF32DemoteF64: convert(ValType::kF64, ValType::kF32); break;
    case Op::kF64ConvertI32S: case Op::kF64ConvertI32U:
      convert(ValType::kI32, ValType::kF64);
      break;
    case Op::kF64ConvertI64S: case Op::kF64ConvertI64U:
      convert(ValType::kI64, ValType::kF64);
      break;
    case Op::kF64PromoteF32: convert(ValType::kF32, ValType::kF64); break;
    case Op::kI32ReinterpretF32: convert(ValType::kF32, ValType::kI32); break;
    case Op::kI64ReinterpretF64: convert(ValType::kF64, ValType::kI64); break;
    case Op::kF32ReinterpretI32: convert(ValType::kI32, ValType::kF32); break;
    case Op::kF64ReinterpretI64: convert(ValType::kI64, ValType::kF64); break;
    // SIMD: loads/stores (natural alignment 16, or the splat width).
    case Op::kV128Load: load(ValType::kV128, 16, in); break;
    case Op::kV128Load32Splat: load(ValType::kV128, 4, in); break;
    case Op::kV128Load64Splat: load(ValType::kV128, 8, in); break;
    case Op::kV128Store: store(ValType::kV128, 16, in); break;
    case Op::kV128Const: push_val(ValType::kV128); break;
    // Shuffle: every lane selector indexes the 32-byte concatenation.
    case Op::kI8x16Shuffle:
      for (int k = 0; k < 16; ++k)
        if (in.imm_v128.bytes[k] >= 32) verr("shuffle lane index out of range");
      binop(ValType::kV128);
      break;
    case Op::kI8x16Splat: case Op::kI16x8Splat: case Op::kI32x4Splat:
      convert(ValType::kI32, ValType::kV128);
      break;
    case Op::kI64x2Splat: convert(ValType::kI64, ValType::kV128); break;
    case Op::kF32x4Splat: convert(ValType::kF32, ValType::kV128); break;
    case Op::kF64x2Splat: convert(ValType::kF64, ValType::kV128); break;
    case Op::kI8x16ExtractLaneS: case Op::kI8x16ExtractLaneU:
      if (in.imm_i >= 16) verr("lane index out of range");
      convert(ValType::kV128, ValType::kI32);
      break;
    case Op::kI16x8ExtractLaneS: case Op::kI16x8ExtractLaneU:
      if (in.imm_i >= 8) verr("lane index out of range");
      convert(ValType::kV128, ValType::kI32);
      break;
    case Op::kI32x4ExtractLane:
      if (in.imm_i >= 4) verr("lane index out of range");
      convert(ValType::kV128, ValType::kI32);
      break;
    case Op::kI64x2ExtractLane:
      if (in.imm_i >= 2) verr("lane index out of range");
      convert(ValType::kV128, ValType::kI64);
      break;
    case Op::kF32x4ExtractLane:
      if (in.imm_i >= 4) verr("lane index out of range");
      convert(ValType::kV128, ValType::kF32);
      break;
    case Op::kF64x2ExtractLane:
      if (in.imm_i >= 2) verr("lane index out of range");
      convert(ValType::kV128, ValType::kF64);
      break;
    // Replace lane: (v128, scalar) -> v128 with a lane immediate.
    case Op::kI8x16ReplaceLane: case Op::kI16x8ReplaceLane:
    case Op::kI32x4ReplaceLane: {
      u32 lanes = in.op == Op::kI8x16ReplaceLane   ? 16
                  : in.op == Op::kI16x8ReplaceLane ? 8
                                                   : 4;
      if (in.imm_i >= lanes) verr("lane index out of range");
      pop_val(ValType::kI32);
      pop_val(ValType::kV128);
      push_val(ValType::kV128);
      break;
    }
    case Op::kI64x2ReplaceLane:
      if (in.imm_i >= 2) verr("lane index out of range");
      pop_val(ValType::kI64);
      pop_val(ValType::kV128);
      push_val(ValType::kV128);
      break;
    case Op::kF32x4ReplaceLane:
      if (in.imm_i >= 4) verr("lane index out of range");
      pop_val(ValType::kF32);
      pop_val(ValType::kV128);
      push_val(ValType::kV128);
      break;
    case Op::kF64x2ReplaceLane:
      if (in.imm_i >= 2) verr("lane index out of range");
      pop_val(ValType::kF64);
      pop_val(ValType::kV128);
      push_val(ValType::kV128);
      break;
    case Op::kV128Not:
    case Op::kI8x16Abs: case Op::kI8x16Neg:
    case Op::kI16x8Abs: case Op::kI16x8Neg:
    case Op::kI32x4Abs: case Op::kI32x4Neg:
    case Op::kI64x2Abs: case Op::kI64x2Neg:
    case Op::kF32x4Abs: case Op::kF32x4Neg: case Op::kF32x4Sqrt:
    case Op::kF64x2Abs: case Op::kF64x2Neg: case Op::kF64x2Sqrt:
      unop(ValType::kV128);
      break;
    case Op::kV128AnyTrue:
    case Op::kI8x16AllTrue: case Op::kI16x8AllTrue:
    case Op::kI32x4AllTrue: case Op::kI64x2AllTrue:
      convert(ValType::kV128, ValType::kI32);
      break;
    // Shifts: (v128, i32 count) -> v128.
    case Op::kI32x4Shl: case Op::kI32x4ShrS: case Op::kI32x4ShrU:
    case Op::kI64x2Shl: case Op::kI64x2ShrS: case Op::kI64x2ShrU:
      pop_val(ValType::kI32);
      pop_val(ValType::kV128);
      push_val(ValType::kV128);
      break;
    case Op::kV128Bitselect:
      pop_val(ValType::kV128);
      pop_val(ValType::kV128);
      pop_val(ValType::kV128);
      push_val(ValType::kV128);
      break;
    // Lane-wise binops (comparisons produce v128 masks, not i32).
    case Op::kI8x16Swizzle:
    case Op::kI8x16Eq: case Op::kI8x16Ne: case Op::kI8x16LtS: case Op::kI8x16LtU:
    case Op::kI8x16GtS: case Op::kI8x16GtU: case Op::kI8x16LeS: case Op::kI8x16LeU:
    case Op::kI8x16GeS: case Op::kI8x16GeU:
    case Op::kI16x8Eq: case Op::kI16x8Ne: case Op::kI16x8LtS: case Op::kI16x8LtU:
    case Op::kI16x8GtS: case Op::kI16x8GtU: case Op::kI16x8LeS: case Op::kI16x8LeU:
    case Op::kI16x8GeS: case Op::kI16x8GeU:
    case Op::kI32x4Eq: case Op::kI32x4Ne: case Op::kI32x4LtS: case Op::kI32x4LtU:
    case Op::kI32x4GtS: case Op::kI32x4GtU: case Op::kI32x4LeS: case Op::kI32x4LeU:
    case Op::kI32x4GeS: case Op::kI32x4GeU:
    case Op::kF32x4Eq: case Op::kF32x4Ne: case Op::kF32x4Lt: case Op::kF32x4Gt:
    case Op::kF32x4Le: case Op::kF32x4Ge:
    case Op::kF64x2Eq: case Op::kF64x2Ne: case Op::kF64x2Lt: case Op::kF64x2Gt:
    case Op::kF64x2Le: case Op::kF64x2Ge:
    case Op::kV128And: case Op::kV128AndNot: case Op::kV128Or: case Op::kV128Xor:
    case Op::kI8x16Add: case Op::kI8x16Sub:
    case Op::kI16x8Add: case Op::kI16x8Sub: case Op::kI16x8Mul:
    case Op::kI32x4Add: case Op::kI32x4Sub: case Op::kI32x4Mul:
    case Op::kI32x4MinS: case Op::kI32x4MinU: case Op::kI32x4MaxS:
    case Op::kI32x4MaxU:
    case Op::kI64x2Add: case Op::kI64x2Sub: case Op::kI64x2Mul:
    case Op::kF32x4Add: case Op::kF32x4Sub: case Op::kF32x4Mul: case Op::kF32x4Div:
    case Op::kF32x4Min: case Op::kF32x4Max: case Op::kF32x4Pmin: case Op::kF32x4Pmax:
    case Op::kF64x2Add: case Op::kF64x2Sub: case Op::kF64x2Mul: case Op::kF64x2Div:
    case Op::kF64x2Min: case Op::kF64x2Max: case Op::kF64x2Pmin: case Op::kF64x2Pmax:
      binop(ValType::kV128);
      break;
    // 0xFE atomics (threads proposal).
    case Op::kMemoryAtomicNotify:
      // (addr: i32, count: i32) -> woken: i32
      check_atomic(in.mem_align, 4);
      pop_val(ValType::kI32);
      pop_val(ValType::kI32);
      push_val(ValType::kI32);
      break;
    case Op::kMemoryAtomicWait32:
      // (addr: i32, expected: i32, timeout_ns: i64) -> i32 (0/1/2)
      check_atomic(in.mem_align, 4);
      pop_val(ValType::kI64);
      pop_val(ValType::kI32);
      pop_val(ValType::kI32);
      push_val(ValType::kI32);
      break;
    case Op::kMemoryAtomicWait64:
      check_atomic(in.mem_align, 8);
      pop_val(ValType::kI64);
      pop_val(ValType::kI64);
      pop_val(ValType::kI32);
      push_val(ValType::kI32);
      break;
    case Op::kAtomicFence:
      break;
    case Op::kI32AtomicLoad: atomic_load(ValType::kI32, 4, in); break;
    case Op::kI64AtomicLoad: atomic_load(ValType::kI64, 8, in); break;
    case Op::kI32AtomicLoad8U: atomic_load(ValType::kI32, 1, in); break;
    case Op::kI32AtomicLoad16U: atomic_load(ValType::kI32, 2, in); break;
    case Op::kI64AtomicLoad8U: atomic_load(ValType::kI64, 1, in); break;
    case Op::kI64AtomicLoad16U: atomic_load(ValType::kI64, 2, in); break;
    case Op::kI64AtomicLoad32U: atomic_load(ValType::kI64, 4, in); break;
    case Op::kI32AtomicStore: atomic_store(ValType::kI32, 4, in); break;
    case Op::kI64AtomicStore: atomic_store(ValType::kI64, 8, in); break;
    case Op::kI32AtomicStore8: atomic_store(ValType::kI32, 1, in); break;
    case Op::kI32AtomicStore16: atomic_store(ValType::kI32, 2, in); break;
    case Op::kI64AtomicStore8: atomic_store(ValType::kI64, 1, in); break;
    case Op::kI64AtomicStore16: atomic_store(ValType::kI64, 2, in); break;
    case Op::kI64AtomicStore32: atomic_store(ValType::kI64, 4, in); break;
    case Op::kI32AtomicRmwAdd: case Op::kI32AtomicRmwSub:
    case Op::kI32AtomicRmwAnd: case Op::kI32AtomicRmwOr:
    case Op::kI32AtomicRmwXor: case Op::kI32AtomicRmwXchg:
      atomic_rmw(ValType::kI32, 4, in);
      break;
    case Op::kI64AtomicRmwAdd: case Op::kI64AtomicRmwSub:
    case Op::kI64AtomicRmwAnd: case Op::kI64AtomicRmwOr:
    case Op::kI64AtomicRmwXor: case Op::kI64AtomicRmwXchg:
      atomic_rmw(ValType::kI64, 8, in);
      break;
    case Op::kI32AtomicRmw8AddU: case Op::kI32AtomicRmw8SubU:
    case Op::kI32AtomicRmw8AndU: case Op::kI32AtomicRmw8OrU:
    case Op::kI32AtomicRmw8XorU: case Op::kI32AtomicRmw8XchgU:
      atomic_rmw(ValType::kI32, 1, in);
      break;
    case Op::kI32AtomicRmw16AddU: case Op::kI32AtomicRmw16SubU:
    case Op::kI32AtomicRmw16AndU: case Op::kI32AtomicRmw16OrU:
    case Op::kI32AtomicRmw16XorU: case Op::kI32AtomicRmw16XchgU:
      atomic_rmw(ValType::kI32, 2, in);
      break;
    case Op::kI64AtomicRmw8AddU: case Op::kI64AtomicRmw8SubU:
    case Op::kI64AtomicRmw8AndU: case Op::kI64AtomicRmw8OrU:
    case Op::kI64AtomicRmw8XorU: case Op::kI64AtomicRmw8XchgU:
      atomic_rmw(ValType::kI64, 1, in);
      break;
    case Op::kI64AtomicRmw16AddU: case Op::kI64AtomicRmw16SubU:
    case Op::kI64AtomicRmw16AndU: case Op::kI64AtomicRmw16OrU:
    case Op::kI64AtomicRmw16XorU: case Op::kI64AtomicRmw16XchgU:
      atomic_rmw(ValType::kI64, 2, in);
      break;
    case Op::kI64AtomicRmw32AddU: case Op::kI64AtomicRmw32SubU:
    case Op::kI64AtomicRmw32AndU: case Op::kI64AtomicRmw32OrU:
    case Op::kI64AtomicRmw32XorU: case Op::kI64AtomicRmw32XchgU:
      atomic_rmw(ValType::kI64, 4, in);
      break;
    case Op::kI32AtomicRmwCmpxchg: atomic_cmpxchg(ValType::kI32, 4, in); break;
    case Op::kI64AtomicRmwCmpxchg: atomic_cmpxchg(ValType::kI64, 8, in); break;
    case Op::kI32AtomicRmw8CmpxchgU: atomic_cmpxchg(ValType::kI32, 1, in); break;
    case Op::kI32AtomicRmw16CmpxchgU: atomic_cmpxchg(ValType::kI32, 2, in); break;
    case Op::kI64AtomicRmw8CmpxchgU: atomic_cmpxchg(ValType::kI64, 1, in); break;
    case Op::kI64AtomicRmw16CmpxchgU: atomic_cmpxchg(ValType::kI64, 2, in); break;
    case Op::kI64AtomicRmw32CmpxchgU: atomic_cmpxchg(ValType::kI64, 4, in); break;
  }
}

void check_const_expr(const ModuleFacts& facts, const ConstExpr& e,
                      ValType expect, const char* what) {
  ValType actual;
  switch (e.kind) {
    case ConstExpr::Kind::kI32: actual = ValType::kI32; break;
    case ConstExpr::Kind::kI64: actual = ValType::kI64; break;
    case ConstExpr::Kind::kF32: actual = ValType::kF32; break;
    case ConstExpr::Kind::kF64: actual = ValType::kF64; break;
    case ConstExpr::Kind::kGlobalGet:
      if (e.global_index >= facts.num_imported_globals)
        verr(std::string(what) + ": global.get init must reference imported global");
      if (facts.imported_global_mutable[e.global_index])
        verr(std::string(what) + ": init from mutable global");
      actual = facts.global_types[e.global_index];
      break;
    default: verr(std::string(what) + ": bad const expr");
  }
  if (actual != expect) verr(std::string(what) + ": const expr type mismatch");
}

void validate_module_shell(const Module& m, const ModuleFacts& facts) {
  for (const auto& t : m.types) {
    if (t.results.size() > 1) verr("multi-value function types unsupported");
    for (ValType p : t.params)
      if (!is_num_type(p)) verr("function params must be numeric");
  }
  for (const auto& imp : m.imports) {
    if (imp.kind == ExternKind::kFunc && imp.type_index >= m.types.size())
      verr("import type index out of range");
  }
  for (u32 ti : m.functions)
    if (ti >= m.types.size()) verr("function type index out of range");
  for (const auto& mem : m.memories) {
    if (mem.min > kMaxPages || (mem.has_max && mem.max > kMaxPages))
      verr("memory limits exceed 4GiB (65536 pages)");
    if (mem.shared && !mem.has_max) verr("shared memory requires a max");
  }
  for (const auto& g : m.globals)
    check_const_expr(facts, g.init, g.type, "global init");
  const u32 nfuncs = u32(facts.func_types.size());
  const bool has_table = facts.has_table;
  const bool has_memory = facts.has_memory;
  for (const auto& e : m.exports) {
    switch (e.kind) {
      case ExternKind::kFunc:
        if (e.index >= nfuncs) verr("export func index out of range");
        break;
      case ExternKind::kMemory:
        if (!has_memory || e.index != 0) verr("export memory index out of range");
        break;
      case ExternKind::kTable:
        if (!has_table || e.index != 0) verr("export table index out of range");
        break;
      case ExternKind::kGlobal:
        if (e.index >= facts.global_types.size())
          verr("export global index out of range");
        break;
    }
  }
  for (const auto& seg : m.elems) {
    if (!has_table) verr("element segment without table");
    check_const_expr(facts, seg.offset, ValType::kI32, "elem offset");
    for (u32 fi : seg.func_indices)
      if (fi >= nfuncs) verr("element function index out of range");
  }
  for (const auto& seg : m.datas) {
    if (!has_memory) verr("data segment without memory");
    check_const_expr(facts, seg.offset, ValType::kI32, "data offset");
  }
  if (m.start.has_value()) {
    if (*m.start >= nfuncs) verr("start function index out of range");
    const FuncType& ft = m.func_type(*m.start);
    if (!ft.params.empty() || !ft.results.empty())
      verr("start function must have type () -> ()");
  }
}

}  // namespace

ValidationResult validate_shell(const Module& m) {
  ValidationResult result;
  try {
    validate_module_shell(m, ModuleFacts(m));
    result.ok = true;
  } catch (const ValidationError& e) {
    result.error = e.what();
  }
  return result;
}

ValidationResult validate_bodies(const Module& m, u32 first, u32 count) {
  ValidationResult result;
  try {
    if (first > m.bodies.size() || count > m.bodies.size() - first)
      verr("function index out of range");
    const ModuleFacts facts(m);
    // Bodies validate independently; parallel_for rethrows the error of the
    // lowest failing index, so the message does not depend on scheduling.
    parallel_for(
        count, kValidateChunkBytes,
        [&](u32 k) { return u64(m.bodies[first + k].length); },
        [&](u32 k) {
          const u32 i = first + k;
          auto fail = [&](const char* what) {
            std::ostringstream os;
            os << "func[" << (facts.num_imported_funcs + i) << "]: " << what;
            verr(os.str());
          };
          try {
            FuncValidator v(m, facts, thread_scratch(), i);
            v.run();
          } catch (const ValidationError& e) {
            fail(e.what());
          } catch (const DecodeError& e) {
            fail(e.what());
          }
        });
    result.ok = true;
  } catch (const ValidationError& e) {
    result.error = e.what();
  }
  // Helper threads end with parallel_for; the calling thread's stacks stay.
  thread_scratch().trim();
  return result;
}

ValidationResult validate_module(const Module& m) {
  ValidationResult shell = validate_shell(m);
  return shell.ok ? validate_bodies(m, 0, u32(m.bodies.size())) : shell;
}

}  // namespace mpiwasm::wasm
