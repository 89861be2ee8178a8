// WebAssembly module validator.
//
// Implements the spec's abstract-interpretation typing algorithm (value
// stack + control stack with unreachable polymorphism) over the opcode
// subset in opcodes.h. All modules pass through here before compilation
// (a cache hit's bodies did when its entry was written); the engines
// assume validated input (paper §2.1: static typing is what
// lets the stack semantics be translated to registers).
//
// Restrictions (checked here, matching the toolchain's output):
//   - block types: empty or a single result value (no type-indexed blocks)
//   - function results: at most one value
//   - at most one table and one memory
//
// A rule change here must bump kCacheVersion (src/runtime/cache.cc), and
// so must a decoder or ByteReader change that rejects bytes it used to
// accept. A cache hit skips the body rules (validate_shell only): the
// entry was written for these exact bytes after they passed, under the
// rules of its version. Entries from an older rule set must miss.
#pragma once

#include <string>

#include "wasm/module.h"

namespace mpiwasm::wasm {

struct ValidationResult {
  bool ok = false;
  std::string error;  // "func[3]: type mismatch ..." style
};

/// The module-level rules: types, imports, function type indices, memory,
/// table, globals, exports, element and data segments, start.
ValidationResult validate_shell(const Module& m);

/// The bodies of defined functions [first, first + count) of a module
/// whose shell passed. The error names the lowest failing function.
ValidationResult validate_bodies(const Module& m, u32 first, u32 count);

/// validate_shell, then every body.
ValidationResult validate_module(const Module& m);

}  // namespace mpiwasm::wasm
