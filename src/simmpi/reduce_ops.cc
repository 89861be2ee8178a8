#include "simmpi/reduce_ops.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace mpiwasm::simmpi {
namespace {

template <typename T>
void apply_typed(ReduceOp op, const T* in, T* inout, int count) {
  switch (op) {
    case ReduceOp::kSum:
      for (int i = 0; i < count; ++i) inout[i] = T(inout[i] + in[i]);
      break;
    case ReduceOp::kProd:
      for (int i = 0; i < count; ++i) inout[i] = T(inout[i] * in[i]);
      break;
    case ReduceOp::kMax:
      for (int i = 0; i < count; ++i) inout[i] = std::max(inout[i], in[i]);
      break;
    case ReduceOp::kMin:
      for (int i = 0; i < count; ++i) inout[i] = std::min(inout[i], in[i]);
      break;
    case ReduceOp::kLand:
      for (int i = 0; i < count; ++i)
        inout[i] = T((inout[i] != T(0)) && (in[i] != T(0)) ? 1 : 0);
      break;
    case ReduceOp::kLor:
      for (int i = 0; i < count; ++i)
        inout[i] = T((inout[i] != T(0)) || (in[i] != T(0)) ? 1 : 0);
      break;
    default:
      throw MpiError("bitwise reduction on non-integer type");
  }
}

template <typename T>
void apply_bitwise(ReduceOp op, const T* in, T* inout, int count) {
  switch (op) {
    case ReduceOp::kBand:
      for (int i = 0; i < count; ++i) inout[i] = T(inout[i] & in[i]);
      break;
    case ReduceOp::kBor:
      for (int i = 0; i < count; ++i) inout[i] = T(inout[i] | in[i]);
      break;
    default:
      apply_typed(op, in, inout, count);
      break;
  }
}

}  // namespace

void check_reduce(ReduceOp op, Datatype t, const char* what) {
  if (i32(op) < 0 || i32(op) >= kNumReduceOps)
    throw MpiError(std::string(what) + ": unknown reduction op " +
                   std::to_string(i32(op)));
  if ((op == ReduceOp::kBand || op == ReduceOp::kBor) &&
      (t == Datatype::kFloat || t == Datatype::kDouble))
    throw MpiError(std::string(what) +
                   ": bitwise reduction on non-integer type " +
                   datatype_name(t));
}

void apply_reduce(ReduceOp op, Datatype t, const void* in, void* inout,
                  int count) {
  switch (t) {
    case Datatype::kByte:
    case Datatype::kChar:
      apply_bitwise(op, static_cast<const i8*>(in), static_cast<i8*>(inout),
                    count);
      break;
    case Datatype::kInt:
      apply_bitwise(op, static_cast<const i32*>(in), static_cast<i32*>(inout),
                    count);
      break;
    case Datatype::kUnsigned:
      apply_bitwise(op, static_cast<const u32*>(in), static_cast<u32*>(inout),
                    count);
      break;
    case Datatype::kLong:
    case Datatype::kLongLong:
      apply_bitwise(op, static_cast<const i64*>(in), static_cast<i64*>(inout),
                    count);
      break;
    case Datatype::kFloat:
      apply_typed(op, static_cast<const f32*>(in), static_cast<f32*>(inout),
                  count);
      break;
    case Datatype::kDouble:
      apply_typed(op, static_cast<const f64*>(in), static_cast<f64*>(inout),
                  count);
      break;
  }
}

}  // namespace mpiwasm::simmpi
