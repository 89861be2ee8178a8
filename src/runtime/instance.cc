#include "runtime/instance.h"

#include <atomic>
#include <cstring>

#include "runtime/engine.h"
#include "runtime/exec.h"
#include "runtime/interp.h"
#include "runtime/jit_support.h"

namespace mpiwasm::rt {

const char* trap_kind_name(TrapKind k) {
  switch (k) {
    case TrapKind::kUnreachable: return "unreachable";
    case TrapKind::kMemoryOutOfBounds: return "out of bounds memory access";
    case TrapKind::kIntegerDivByZero: return "integer divide by zero";
    case TrapKind::kIntegerOverflow: return "integer overflow";
    case TrapKind::kInvalidConversion: return "invalid conversion to integer";
    case TrapKind::kIndirectCallTypeMismatch: return "indirect call type mismatch";
    case TrapKind::kUndefinedTableElement: return "undefined table element";
    case TrapKind::kCallStackExhausted: return "call stack exhausted";
    case TrapKind::kHostError: return "host error";
    case TrapKind::kUnalignedAtomic: return "unaligned atomic";
  }
  return "unknown trap";
}

LinearMemory& HostContext::memory() { return inst_.memory(); }
void* HostContext::user_data() { return inst_.user_data(); }

void ImportTable::add(const std::string& module, const std::string& name,
                      wasm::FuncType type, HostFn fn) {
  entries_[{module, name}] = Entry{module, name, std::move(type), std::move(fn)};
}

const ImportTable::Entry* ImportTable::lookup(const std::string& module,
                                              const std::string& name) const {
  auto it = entries_.find({module, name});
  return it == entries_.end() ? nullptr : &it->second;
}

namespace {

Slot eval_const(const wasm::ConstExpr& e) {
  Slot s;
  switch (e.kind) {
    case wasm::ConstExpr::Kind::kI32: s.u32v = u32(e.i); break;
    case wasm::ConstExpr::Kind::kI64: s.u64v = u64(e.i); break;
    case wasm::ConstExpr::Kind::kF32: s.f32v = f32(e.f); break;
    case wasm::ConstExpr::Kind::kF64: s.f64v = e.f; break;
    case wasm::ConstExpr::Kind::kGlobalGet:
      throw LinkError("imported-global initializers are not supported");
  }
  return s;
}

constexpr size_t kArenaSlots = 1 << 17;  // 2 MiB of Slot frames per thread

std::atomic<u64> g_next_instance_id{1};

/// Runs `exec(frame)` in a fresh frame of `slots` slots from the calling
/// thread's arena: the args are copied in from `base`, the other slots
/// zeroed (spec: locals start zeroed), and the result, if any, is copied
/// back to base[0].
template <class Exec>
void run_in_frame(Instance& inst, u32 slots, u32 params, bool has_result,
                  Slot* base, Exec&& exec) {
  Slot* frame = inst.alloc_frame(slots);
  struct FrameGuard {
    Instance& inst;
    u32 n;
    ~FrameGuard() { inst.release_frame(n); }
  } frame_guard{inst, slots};
  std::memset(frame + params, 0, (slots - params) * sizeof(Slot));
  if (params > 0) std::memcpy(frame, base, params * sizeof(Slot));
  exec(frame);
  if (has_result) base[0] = frame[0];
}

}  // namespace

Instance::Instance(std::shared_ptr<const CompiledModule> cm,
                   const ImportTable& imports, void* user_data)
    : cm_(std::move(cm)), user_data_(user_data) {
  const wasm::Module& m = cm_->module;

  // Memory (at most one; imported memories unsupported).
  if (!m.memories.empty()) {
    const wasm::Limits& lim = m.memories[0];
    memory_ = LinearMemory(lim.min, lim.has_max ? lim.max : 0, lim.shared);
    if (memory_.guarded()) {
      install_guard_fault_handler();
    } else {
      run_native_ = false;
      cm_->guard_fallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Globals (module-defined only).
  globals_.resize(m.globals.size());
  for (size_t i = 0; i < m.globals.size(); ++i)
    globals_[i] = eval_const(m.globals[i].init);

  // Table.
  if (!m.tables.empty()) table_.assign(m.tables[0].min, UINT32_MAX);

  // Import resolution: every function import must have a host definition
  // with a matching signature (Wasmer-style link-time checking).
  for (const auto& imp : m.imports) {
    switch (imp.kind) {
      case wasm::ExternKind::kFunc: {
        const ImportTable::Entry* e = imports.lookup(imp.module, imp.name);
        if (e == nullptr)
          throw LinkError("unresolved import " + imp.module + "." + imp.name);
        if (!(e->type == m.types.at(imp.type_index)))
          throw LinkError("import signature mismatch for " + imp.module + "." +
                          imp.name + ": module wants " +
                          m.types.at(imp.type_index).to_string() +
                          ", host provides " + e->type.to_string());
        resolved_.push_back(e);
        break;
      }
      default:
        throw LinkError("non-function imports are not supported");
    }
  }

  apply_segments();
  instance_id_ = g_next_instance_id.fetch_add(1, std::memory_order_relaxed);

  if (m.start.has_value()) invoke_index(*m.start, {});
}

void Instance::apply_segments() {
  const wasm::Module& m = cm_->module;
  for (const auto& seg : m.datas) {
    u32 off = eval_const(seg.offset).u32v;
    const std::span<const u8> init = m.data(seg);
    memory_.check(off, init.size());
    std::memcpy(memory_.base() + off, init.data(), init.size());
  }
  for (const auto& seg : m.elems) {
    u32 off = eval_const(seg.offset).u32v;
    if (u64(off) + seg.func_indices.size() > table_.size())
      throw LinkError("element segment out of table bounds");
    for (size_t i = 0; i < seg.func_indices.size(); ++i)
      table_[off + i] = seg.func_indices[i];
  }
}

std::optional<u32> Instance::exported_func(const std::string& name) const {
  const wasm::Export* e =
      cm_->module.find_export(name, wasm::ExternKind::kFunc);
  if (e == nullptr) return std::nullopt;
  return e->index;
}

Instance::ExecState& Instance::exec_state() {
  thread_local u64 cached_id = 0;
  thread_local ExecState* cached = nullptr;
  if (cached_id == instance_id_ && cached != nullptr) return *cached;
  std::lock_guard<std::mutex> lock(exec_mu_);
  std::unique_ptr<ExecState>& slot = exec_states_[std::this_thread::get_id()];
  if (!slot) {
    slot = std::make_unique<ExecState>();
    slot->arena.resize(kArenaSlots);
  }
  cached_id = instance_id_;
  cached = slot.get();
  return *cached;
}

Slot* Instance::alloc_frame(u32 slots) {
  ExecState& es = exec_state();
  if (es.arena_top + slots > es.arena.size())
    throw Trap(TrapKind::kCallStackExhausted, "frame arena exhausted");
  Slot* p = es.arena.data() + es.arena_top;
  es.arena_top += slots;
  return p;
}

void Instance::release_frame(u32 slots) {
  ExecState& es = exec_state();
  MW_CHECK(es.arena_top >= slots, "frame arena underflow");
  es.arena_top -= slots;
}

void Instance::call_function(u32 fidx, Slot* base) {
  const CompiledModule& cm = *cm_;
  const u32 imported = cm.module.num_imported_funcs();

  ExecState& es = exec_state();
  if (++es.depth > kMaxCallDepth) {
    --es.depth;
    throw Trap(TrapKind::kCallStackExhausted,
               "call depth exceeds " + std::to_string(kMaxCallDepth));
  }

  struct DepthGuard {
    int& d;
    ~DepthGuard() { --d; }
  } depth_guard{es.depth};

  if (fidx < imported) {
    HostContext ctx(*this);
    resolved_[fidx]->fn(ctx, base, base);
    return;
  }

  const u32 di = fidx - imported;
  if (cm.tier == EngineTier::kInterp) {
    run_predecoded(cm.predecoded.funcs[di], base);
    return;
  }
  // A compiled-tier function is built on its first call.
  const RFunc* rf = cm.funcs.units[di].active.load(std::memory_order_acquire);
  run_compiled(rf != nullptr ? *rf : materialize(cm, di), base);
}

void Instance::run_predecoded(const PreFunc& f, Slot* base) {
  run_in_frame(*this, f.num_locals + f.max_stack, f.num_params, f.has_result,
               base, [&](Slot* frame) { interp_exec(*this, f, frame); });
}

void Instance::run_compiled(const RFunc& f, Slot* base) {
  run_in_frame(*this, f.num_regs, f.num_params, f.has_result, base,
               [&](Slot* frame) {
                 if (f.jit_entry != nullptr && run_native_) {
                   jit_enter(f, *this, frame);
                 } else {
                   exec_regcode(*this, f, frame);
                 }
               });
}

Value Instance::invoke_index(u32 func_index, std::span<const Value> args) {
  const wasm::FuncType& ft = cm_->module.func_type(func_index);
  MW_CHECK(args.size() == ft.params.size(), "invoke: arg count mismatch");

  // Reserve a small argument window; call_function reads args in place and
  // writes the result to slot 0.
  const u32 window = u32(std::max<size_t>(args.size(), 1));
  ExecState& es = exec_state();
  const size_t saved_top = es.arena_top;
  Slot* base = alloc_frame(window);
  for (size_t i = 0; i < args.size(); ++i) base[i] = args[i].slot;
  try {
    call_function(func_index, base);
  } catch (...) {
    es.arena_top = saved_top;  // unwind any frames the trap skipped
    es.depth = 0;
    throw;
  }
  Value result;
  if (!ft.results.empty()) {
    result.type = ft.results[0];
    result.slot = base[0];
  }
  release_frame(window);
  return result;
}

Value Instance::invoke(const std::string& export_name,
                       std::span<const Value> args) {
  auto idx = exported_func(export_name);
  if (!idx.has_value())
    throw LinkError("no exported function named '" + export_name + "'");
  return invoke_index(*idx, args);
}

}  // namespace mpiwasm::rt
