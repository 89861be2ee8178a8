// Module instantiation: memory, globals, tables, import resolution, and the
// uniform call path shared by every execution tier and by host functions.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "runtime/memory.h"
#include "runtime/value.h"
#include "wasm/module.h"

namespace mpiwasm::rt {

struct CompiledModule;
struct PreFunc;
struct RFunc;
class Instance;

/// Context handed to host functions; the embedder uses it for the paper's
/// address translation (§3.5): host functions read/write the module's
/// linear memory directly through `memory()`.
class HostContext {
 public:
  explicit HostContext(Instance& inst) : inst_(inst) {}
  Instance& instance() { return inst_; }
  LinearMemory& memory();
  /// Opaque per-instance pointer installed by the embedder (the Env of
  /// paper §3.7 hangs off this).
  void* user_data();

 private:
  Instance& inst_;
};

/// Host (embedder-provided) function: args in `args[0..n)`, single result
/// (if the signature has one) written to `*result`.
using HostFn =
    std::function<void(HostContext&, const Slot* args, Slot* result)>;

/// Named host functions the module's imports resolve against. Mirrors
/// Wasmer's ImportObject: WASI lives in "wasi_snapshot_preview1", the MPI
/// layer in "env" (paper Listing 3).
class ImportTable {
 public:
  struct Entry {
    std::string module, name;
    wasm::FuncType type;
    HostFn fn;
  };

  void add(const std::string& module, const std::string& name,
           wasm::FuncType type, HostFn fn);
  const Entry* lookup(const std::string& module, const std::string& name) const;
  size_t size() const { return entries_.size(); }

 private:
  std::map<std::pair<std::string, std::string>, Entry> entries_;
};

/// Raised at instantiation when an import has no matching host definition
/// or its signature disagrees.
class LinkError : public std::runtime_error {
 public:
  explicit LinkError(const std::string& what) : std::runtime_error(what) {}
};

class Instance {
 public:
  /// Instantiates: allocates memory, applies data/elem segments, resolves
  /// imports, then runs the start function if present.
  Instance(std::shared_ptr<const CompiledModule> cm, const ImportTable& imports,
           void* user_data = nullptr);

  const CompiledModule& compiled() const { return *cm_; }
  LinearMemory& memory() { return memory_; }
  void* user_data() { return user_data_; }
  void set_user_data(void* p) { user_data_ = p; }

  std::optional<u32> exported_func(const std::string& name) const;

  /// Invokes an exported function by name.
  Value invoke(const std::string& export_name, std::span<const Value> args = {});
  /// Invokes by function index (combined import+defined space).
  Value invoke_index(u32 func_index, std::span<const Value> args);

  // --- Executor internals (public for the tier executors) ----------------
  /// Calls function `fidx`; args pre-placed at `base[0..nargs)`; the result
  /// (if any) is written to `base[0]`. At kInterp this runs the predecoded
  /// body; at the compiled tiers it runs the function's FuncUnit body,
  /// building it first on the function's first call (materialize()).
  void call_function(u32 fidx, Slot* base);

  /// Runs a predecoded body: allocates the frame, zeroes locals, copies the
  /// args from `base`, executes, and writes the result back to `base[0]`.
  void run_predecoded(const PreFunc& f, Slot* base);
  /// Same, for a lowered RegCode body (any compiled tier). A body with a
  /// native entry point (f.jit_entry) is entered through a trap activation
  /// (jit_enter); one without, a kJit template gap included, runs on the
  /// executor (exec_regcode). Native code has no bounds checks, so an
  /// instance whose memory has no guard region always runs the executor.
  void run_compiled(const RFunc& f, Slot* base);
  Slot* globals() { return globals_.data(); }
  std::vector<u32>& table() { return table_; }

  Slot* alloc_frame(u32 slots);
  void release_frame(u32 slots);

 private:
  /// Per-thread execution state. With shared memories a single Instance is
  /// entered concurrently by several guest threads (wasi thread-spawn), so
  /// the frame arena and call-depth counter cannot be instance members.
  struct ExecState {
    std::vector<Slot> arena;
    size_t arena_top = 0;
    int depth = 0;
  };

  /// Returns the calling thread's ExecState, creating it on first entry.
  /// A thread_local (id, pointer) pair caches the lookup; the id guards
  /// against address reuse after an Instance is destroyed.
  ExecState& exec_state();

  void apply_segments();

  std::shared_ptr<const CompiledModule> cm_;
  LinearMemory memory_;
  std::vector<Slot> globals_;
  std::vector<u32> table_;
  std::vector<const ImportTable::Entry*> resolved_;  // by import ordinal
  void* user_data_ = nullptr;
  u64 instance_id_ = 0;  // process-unique, assigned at construction
  bool run_native_ = true;  // false: the memory has no guard region
  std::mutex exec_mu_;
  std::map<std::thread::id, std::unique_ptr<ExecState>> exec_states_;
  static constexpr int kMaxCallDepth = 1000;
};

}  // namespace mpiwasm::rt
