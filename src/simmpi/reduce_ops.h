// Typed reduction kernels for simmpi collectives.
#pragma once

#include "simmpi/types.h"

namespace mpiwasm::simmpi {

/// Throws MpiError("<what>: ...") unless `op` is defined on `t` (MPI_BAND
/// and MPI_BOR are not defined on floating types). Reduction collectives
/// call this before they start, so no rank fails halfway through one.
void check_reduce(ReduceOp op, Datatype t, const char* what);

/// inout[i] = op(inout[i], in[i]) for count elements of type t.
void apply_reduce(ReduceOp op, Datatype t, const void* in, void* inout,
                  int count);

}  // namespace mpiwasm::simmpi
