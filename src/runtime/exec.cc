#include "runtime/exec.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <mutex>

#include "runtime/arith.h"
#include "runtime/engine.h"
#include "runtime/instance.h"

namespace mpiwasm::rt {

using namespace arith;

namespace {

std::atomic<bool> g_force_switch{false};

// Operand access helpers shared by every HANDLER body (exec_ops.inc).
#define A r[in.a]
#define B r[in.b]
#define C r[in.c]
#define D r[in.d]
// Indexed effective address: u32-wrapped base + (index << shift), then the
// 64-bit static offset — identical wrap behavior to the unfused
// shl/add/load sequence it replaces.
#define IXADDR(basefield) \
  (u64(u32(basefield.u32v + (C.u32v << in.d))) + in.imm)
#define LOADM(dst_field, T) A.dst_field = mem.load<T>(u64(B.u32v) + in.imm)
#define STOREM(T, val_field) \
  mem.store<T>(u64(A.u32v) + in.imm, T(B.val_field))
#define BIN(field, expr)   \
  {                        \
    auto x = B.field;      \
    auto y = C.field;      \
    A.field = (expr);      \
  }
#define CMP(field, expr)   \
  {                        \
    auto x = B.field;      \
    auto y = C.field;      \
    A.u32v = (expr) ? 1u : 0u; \
  }
#define UN(dfield, sfield, expr) \
  {                              \
    auto x = B.sfield;           \
    (void)x;                     \
    A.dfield = (expr);           \
  }
#define VBIN(T, N, expr)                                              \
  A.v128v = v128_binop<T, N>(B.v128v, C.v128v,                        \
                             [](T x, T y) { (void)x; (void)y; return (expr); })
#define VUN(T, N, expr)                                               \
  A.v128v = v128_unop<T, N>(B.v128v, [](T x) { (void)x; return (expr); })
#define VCMP(T, N, expr)                                              \
  A.v128v = v128_cmp<T, N>(B.v128v, C.v128v,                          \
                           [](T x, T y) { (void)x; (void)y; return (expr); })
// Replace-lane: copy the vector in r[b], overwrite lane imm from r[c].
#define VREPLACE(T, N, srcfield)                \
  {                                             \
    V128 t = B.v128v;                           \
    t.set_lane<T, N>(int(in.imm), T(C.srcfield)); \
    A.v128v = t;                                \
  }
#define BRCMP(field, expr) \
  {                        \
    auto x = A.field;      \
    auto y = B.field;      \
    if (expr) JUMP(in.imm); \
  }

// ---------------------------------------------------------------------------
// Portable switch executor.
// ---------------------------------------------------------------------------

void exec_switch(Instance& inst, const RFunc& f, Slot* r) {
  LinearMemory& mem = inst.memory();
  const RInstr* code = f.code.data();
  const size_t n = f.code.size();
  size_t pc = 0;

  while (pc < n) {
    const RInstr& in = code[pc];
    switch (in.op) {
#define HANDLER(name, ...) \
  case ROp::k##name: {     \
    __VA_ARGS__            \
  } break;
#define JUMP(t)        \
  {                    \
    pc = size_t(t);    \
    continue;          \
  }
#include "runtime/exec_ops.inc"
#undef HANDLER
#undef JUMP
      case ROp::kCount:
        fatal("invalid ROp in executor");
    }
    ++pc;
  }
  // Fell off the end: only possible for a void function whose last
  // instruction was not a Return (lowering always emits one, so this is an
  // internal error).
  fatal("regcode executor fell off function end");
}

// ---------------------------------------------------------------------------
// Direct-threaded executor (computed goto). The same translation unit is
// entered once with r == nullptr to capture the handler labels into
// g_handler_table; after that, prepared RFuncs carry one resolved handler
// address per instruction and dispatch is a single indirect goto.
// ---------------------------------------------------------------------------

const void* g_handler_table[size_t(ROp::kCount)];

void exec_threaded(Instance* instp, const RFunc* fp, Slot* r) {
  if (r == nullptr) {  // handler-address capture call (once per process)
#define HANDLER(name, ...) \
  g_handler_table[size_t(ROp::k##name)] = &&threaded_##name;
#define JUMP(t)
#include "runtime/exec_ops.inc"
#undef HANDLER
#undef JUMP
    return;
  }

  Instance& inst = *instp;
  const RFunc& f = *fp;
  LinearMemory& mem = inst.memory();
  const RInstr* code = f.code.data();
  const void* const* handlers = f.handlers.data();
  size_t pc = 0;

#define DISPATCH() goto* handlers[pc]
#define JUMP(t)       \
  {                   \
    pc = size_t(t);   \
    DISPATCH();       \
  }
#define HANDLER(name, ...)            \
  threaded_##name : {                 \
    const RInstr& in = code[pc];      \
    (void)in;                         \
    {                                 \
      __VA_ARGS__                     \
    }                                 \
  }                                   \
  ++pc;                               \
  DISPATCH();

  DISPATCH();
#include "runtime/exec_ops.inc"
#undef HANDLER
#undef JUMP
#undef DISPATCH
  fatal("threaded executor fell through");  // unreachable
}

const void* const* handler_table() {
  static std::once_flag once;
  std::call_once(once, [] { exec_threaded(nullptr, nullptr, nullptr); });
  return g_handler_table;
}

/// The goto loop has no pc bound check, so only accept code where control
/// can never leave [0, n): a terminator at the end and every branch target
/// in range. The optimizer and lowering always satisfy this; hand-built
/// test bodies that do not simply keep using the switch loop.
bool threadable(const RFunc& f) {
  const size_t n = f.code.size();
  if (n == 0) return false;
  ROp last = f.code[n - 1].op;
  if (last != ROp::kBr && last != ROp::kReturn && last != ROp::kReturnVoid &&
      last != ROp::kUnreachable && last != ROp::kBrTable)
    return false;
  if (last == ROp::kBrTable && f.br_pool.empty()) return false;
  for (const RInstr& in : f.code) {
    switch (in.op) {
      case ROp::kBr: case ROp::kBrIf: case ROp::kBrIfNot:
      case ROp::kBrIfI32Eq: case ROp::kBrIfI32Ne: case ROp::kBrIfI32LtS:
      case ROp::kBrIfI32LtU: case ROp::kBrIfI32GtS: case ROp::kBrIfI32GtU:
      case ROp::kBrIfI32LeS: case ROp::kBrIfI32LeU: case ROp::kBrIfI32GeS:
      case ROp::kBrIfI32GeU:
        if (in.imm >= n) return false;
        break;
      case ROp::kBrTable:
        if (in.imm >= f.br_pool.size()) return false;
        for (u32 t : f.br_pool[in.imm])
          if (t >= n) return false;
        break;
      default:
        break;
    }
  }
  return true;
}

}  // namespace

void prepare_rfunc(RFunc& f) {
  if (!threadable(f)) {
    f.handlers.clear();
    return;
  }
  const void* const* table = handler_table();
  f.handlers.resize(f.code.size());
  for (size_t i = 0; i < f.code.size(); ++i)
    f.handlers[i] = table[size_t(f.code[i].op)];
}

void set_dispatch_force_switch(bool on) {
  g_force_switch.store(on, std::memory_order_relaxed);
}

void exec_regcode(Instance& inst, const RFunc& f, Slot* r) {
  if (!f.handlers.empty() &&
      !g_force_switch.load(std::memory_order_relaxed)) {
    exec_threaded(&inst, &f, r);
    return;
  }
  exec_switch(inst, f, r);
}

#undef A
#undef B
#undef C
#undef D
#undef IXADDR
#undef LOADM
#undef STOREM
#undef BIN
#undef CMP
#undef UN
#undef VBIN
#undef VUN
#undef VCMP
#undef VREPLACE
#undef BRCMP

}  // namespace mpiwasm::rt
