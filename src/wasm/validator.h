// WebAssembly module validator.
//
// Implements the spec's abstract-interpretation typing algorithm (value
// stack + control stack with unreachable polymorphism) over the opcode
// subset in opcodes.h. All modules pass through here before compilation;
// the engines assume validated input (paper §2.1: static typing is what
// lets the stack semantics be translated to registers).
//
// Restrictions (checked here, matching the toolchain's output):
//   - block types: empty or a single result value (no type-indexed blocks)
//   - function results: at most one value
//   - at most one table and one memory
//
// A rule change here must bump kCacheVersion (src/runtime/cache.cc). The
// compilation cache serves code lowered from modules that passed these
// rules, and a warm start mixes cached records with functions compiled on
// demand from the module bytes; entries from an older rule set must miss.
#pragma once

#include <string>

#include "wasm/module.h"

namespace mpiwasm::wasm {

struct ValidationResult {
  bool ok = false;
  std::string error;  // "func[3]: type mismatch ..." style
};

ValidationResult validate_module(const Module& m);

}  // namespace mpiwasm::wasm
