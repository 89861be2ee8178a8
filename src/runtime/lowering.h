// RegCode lowering: one linear pass translating a validated Wasm function's
// stack machine code into RegCode, the input of the optimizer.
#pragma once

#include "runtime/regcode.h"
#include "wasm/module.h"

namespace mpiwasm::rt {

/// Lowers defined function `defined_index` (0-based into Module::bodies).
/// Input must be validated; malformed input triggers InternalError.
RFunc lower_function(const wasm::Module& m, u32 defined_index);

}  // namespace mpiwasm::rt
