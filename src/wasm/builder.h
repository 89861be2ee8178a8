// Programmatic Wasm module construction: an assembler-level API that emits
// spec-conformant binary modules.
//
// This is the foundation of our WASI-SDK substitute (docs/ARCHITECTURE.md,
// "src/wasm"): the paper compiles C/C++ MPI applications with a customized
// WASI-SDK; we author the same benchmark kernels directly against this builder and emit
// real .wasm binaries, which then flow through the decoder/validator/
// engines exactly as externally produced modules would.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/byte_buffer.h"
#include "wasm/module.h"
#include "wasm/opcodes.h"

namespace mpiwasm::wasm {

class ModuleBuilder;

/// Emits one function body. Obtained from ModuleBuilder::begin_func; the
/// function is finalized when `end_func` (or the final `end()` matching the
/// implicit function block) has been emitted.
class FunctionBuilder {
 public:
  u32 index() const { return func_index_; }

  /// Adds a local variable (beyond params); returns its local index.
  u32 add_local(ValType t);
  u32 num_params() const { return num_params_; }

  // --- Instruction emission ---------------------------------------------
  void op(Op o);
  void i32_const(i32 v);
  void i64_const(i64 v);
  void f32_const(f32 v);
  void f64_const(f64 v);
  void v128_const(const V128& v);
  void local_get(u32 idx);
  void local_set(u32 idx);
  void local_tee(u32 idx);
  void global_get(u32 idx);
  void global_set(u32 idx);
  void call(u32 func_index);
  void call_indirect(u32 type_index);
  /// Loads/stores: `o` must be a memory opcode; align defaults to natural.
  void mem_op(Op o, u32 offset = 0, i32 align_log2 = -1);
  void block(u8 block_type = kBlockTypeEmpty);
  void block(ValType result);
  void loop(u8 block_type = kBlockTypeEmpty);
  void if_(u8 block_type = kBlockTypeEmpty);
  void if_(ValType result);
  void else_();
  void end();
  void br(u32 depth);
  void br_if(u32 depth);
  void br_table(const std::vector<u32>& targets, u32 default_target);
  void ret() { op(Op::kReturn); }
  void lane_op(Op o, u8 lane);
  /// i8x16.shuffle with its 16 lane-selector bytes (each must be < 32).
  void i8x16_shuffle(const u8 (&lanes)[16]);

  // --- Structured sugar used heavily by the kernel toolchain -------------
  /// Emits `for (local = start; local < limit_local; local += step)` around
  /// `body`. The loop counter must be an i32 local; `limit` is a local too.
  void for_loop_i32(u32 counter_local, i32 start, u32 limit_local, i32 step,
                    const std::function<void()>& body);
  /// while (local_get(cond_local) != 0) { body }
  void while_i32(const std::function<void()>& cond,
                 const std::function<void()>& body);

 private:
  friend class ModuleBuilder;
  FunctionBuilder(ModuleBuilder* parent, u32 func_index, u32 num_params);

  ModuleBuilder* parent_;
  u32 func_index_;
  u32 num_params_;
  std::vector<ValType> locals_;
  ByteWriter code_;
  int open_blocks_ = 1;  // implicit function block
  bool finished_ = false;
};

/// Builds a complete module. Usage:
///   ModuleBuilder b;
///   u32 imp = b.import_func("env", "MPI_Init", {{I32,I32},{I32}});
///   auto& f = b.begin_func({{}, {}}, "_start");
///   ... emit ... f.end();  // closes the function
///   std::vector<u8> bytes = b.build();
class ModuleBuilder {
 public:
  ModuleBuilder();
  ~ModuleBuilder();
  ModuleBuilder(const ModuleBuilder&) = delete;
  ModuleBuilder& operator=(const ModuleBuilder&) = delete;

  /// Adds (or reuses) a function type; returns type index.
  u32 add_type(const FuncType& t);

  /// Declares an imported function. All imports must be declared before the
  /// first begin_func so the function index space is final.
  u32 import_func(const std::string& module, const std::string& name,
                  const FuncType& type);

  /// Declares the module's linear memory (at most one). A shared memory
  /// (threads proposal) requires a max.
  void add_memory(u32 min_pages, u32 max_pages = 0, bool has_max = false,
                  bool shared = false);
  void export_memory(const std::string& name = "memory");

  u32 add_global(ValType type, bool mutable_, i64 init_i = 0, f64 init_f = 0);
  void export_global(const std::string& name, u32 index);

  void add_table(u32 min_entries);
  void add_elem(u32 offset, const std::vector<u32>& func_indices);

  void add_data(u32 offset, std::span<const u8> bytes);
  void add_data_string(u32 offset, const std::string& s);

  /// Starts a new function; returns a builder whose lifetime is owned here.
  FunctionBuilder& begin_func(const FuncType& type,
                              const std::string& export_name = "");
  void export_func(const std::string& name, u32 func_index);
  void set_start(u32 func_index);

  u32 num_imported_funcs() const { return u32(imports_.size()); }

  /// Serializes the module to the Wasm binary format.
  std::vector<u8> build() const;

 private:
  friend class FunctionBuilder;

  struct ImportedFunc {
    std::string module, name;
    u32 type_index;
  };
  struct DefinedFunc {
    u32 type_index;
    std::vector<ValType> locals;
    std::vector<u8> code;
  };
  struct GlobalInit {
    ValType type;
    bool mutable_;
    i64 init_i;
    f64 init_f;
  };
  struct Data {
    u32 offset;
    std::vector<u8> bytes;
  };
  struct Elem {
    u32 offset;
    std::vector<u32> funcs;
  };

  void finish_func(FunctionBuilder& fb);

  std::vector<FuncType> types_;
  std::vector<ImportedFunc> imports_;
  std::vector<DefinedFunc> funcs_;
  std::vector<u32> func_type_indices_;
  bool has_memory_ = false;
  Limits memory_limits_;
  bool memory_exported_ = false;
  std::string memory_export_name_;
  std::vector<GlobalInit> globals_;
  std::vector<Export> exports_;
  bool has_table_ = false;
  u32 table_min_ = 0;
  std::vector<Elem> elems_;
  std::vector<Data> datas_;
  std::optional<u32> start_;
  std::vector<std::unique_ptr<FunctionBuilder>> open_funcs_;
};

}  // namespace mpiwasm::wasm
