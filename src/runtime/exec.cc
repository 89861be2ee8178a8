#include "runtime/exec.h"

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

}  // namespace

void prepare_rfunc(RFunc& f) {
  // The goto loop has no pc bound: control must never leave the body.
  MW_CHECK(rfunc_well_formed(f), "prepare_rfunc: malformed RegCode body");
  const void* const* table = handler_table();
  f.handlers.resize(f.code.size());
  for (size_t i = 0; i < f.code.size(); ++i)
    f.handlers[i] = table[size_t(f.code[i].op)];
}

void exec_regcode(Instance& inst, const RFunc& f, Slot* r) {
  exec_threaded(&inst, &f, r);
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
