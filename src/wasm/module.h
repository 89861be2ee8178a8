// In-memory model of a decoded WebAssembly module (Wasm 1.0 structure,
// restricted to one table / one memory as in the MVP).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/common.h"
#include "wasm/types.h"

namespace mpiwasm::wasm {

enum class ExternKind : u8 { kFunc = 0, kTable = 1, kMemory = 2, kGlobal = 3 };

struct Import {
  std::string module;
  std::string name;
  ExternKind kind = ExternKind::kFunc;
  u32 type_index = 0;   // kFunc
  Limits limits;        // kTable/kMemory
  ValType global_type = ValType::kI32;  // kGlobal
  bool global_mutable = false;
};

struct Export {
  std::string name;
  ExternKind kind = ExternKind::kFunc;
  u32 index = 0;
};

/// A constant initializer expression; only `t.const` and `global.get` forms
/// are supported, per the MVP.
struct ConstExpr {
  enum class Kind : u8 { kI32, kI64, kF32, kF64, kGlobalGet } kind = Kind::kI32;
  i64 i = 0;
  f64 f = 0;
  u32 global_index = 0;
};

struct GlobalDef {
  ValType type = ValType::kI32;
  bool mutable_ = false;
  ConstExpr init;
};

/// `count` locals of one type, as a body's locals prelude declares them.
struct LocalRun {
  u32 count = 0;
  ValType type = ValType::kI32;
};

/// A defined function's body as offsets into its Module, so that copying or
/// moving the Module keeps it valid: instructions (after the locals
/// prelude, ending with End) and locals in declaration order.
struct FuncBody {
  size_t offset = 0;  // into Module::bytes
  u32 length = 0;
  u32 num_locals = 0;  // the runs' counts summed
  u32 first_run = 0;   // into Module::local_runs
  u32 num_runs = 0;
};

struct ElemSegment {
  u32 table_index = 0;
  ConstExpr offset;
  std::vector<u32> func_indices;
};

/// An active data segment: `offset` is where it lands in linear memory; its
/// bytes stay in Module::bytes (read through Module::data).
struct DataSegment {
  u32 memory_index = 0;
  ConstExpr offset;
  size_t init_offset = 0;  // into Module::bytes
  u32 length = 0;
};

struct Module {
  std::vector<FuncType> types;
  std::vector<Import> imports;
  // Type indices of locally defined functions (function index space =
  // imported funcs first, then these).
  std::vector<u32> functions;
  std::vector<Limits> tables;
  std::vector<Limits> memories;
  std::vector<GlobalDef> globals;
  std::vector<Export> exports;
  std::optional<u32> start;
  std::vector<ElemSegment> elems;
  std::vector<DataSegment> datas;
  std::vector<FuncBody> bodies;  // parallel to `functions`
  std::vector<LocalRun> local_runs;  // every body's, back to back
  std::vector<u8> bytes;  // the binary the bodies point into

  /// Instructions and locals of defined function `i`.
  std::span<const u8> code(u32 i) const {
    const FuncBody& b = bodies.at(i);
    return std::span(bytes).subspan(b.offset, b.length);
  }
  std::span<const LocalRun> locals(u32 i) const {
    const FuncBody& b = bodies.at(i);
    return std::span(local_runs).subspan(b.first_run, b.num_runs);
  }
  /// Initial contents of data segment `s`.
  std::span<const u8> data(const DataSegment& s) const {
    return std::span(bytes).subspan(s.init_offset, s.length);
  }

  u32 num_imported_funcs() const;
  u32 num_imported_globals() const;
  u32 total_funcs() const { return num_imported_funcs() + u32(functions.size()); }
  /// Type of function `index` in the combined index space.
  const FuncType& func_type(u32 index) const;
  /// Export lookup; returns nullptr if absent.
  const Export* find_export(const std::string& name, ExternKind kind) const;
};

constexpr u32 kWasmMagic = 0x6d736100;  // "\0asm"
constexpr u32 kWasmVersion = 1;

enum class SectionId : u8 {
  kCustom = 0,
  kType = 1,
  kImport = 2,
  kFunction = 3,
  kTable = 4,
  kMemory = 5,
  kGlobal = 6,
  kExport = 7,
  kStart = 8,
  kElement = 9,
  kCode = 10,
  kData = 11,
};

}  // namespace mpiwasm::wasm
