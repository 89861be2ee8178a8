// Shared helpers for the test suite: small module factories and tier sweeps.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "runtime/engine.h"
#include "runtime/instance.h"
#include "wasm/builder.h"
#include "wasm/validator.h"

namespace mpiwasm::test {

using rt::EngineConfig;
using rt::EngineTier;
using rt::Value;
using wasm::FuncType;
using wasm::ModuleBuilder;
using wasm::Op;
using wasm::ValType;

constexpr ValType I32 = ValType::kI32;
constexpr ValType I64 = ValType::kI64;
constexpr ValType F32 = ValType::kF32;
constexpr ValType F64 = ValType::kF64;
constexpr ValType V128T = ValType::kV128;

inline std::vector<EngineTier> all_tiers() {
  return {EngineTier::kInterp, EngineTier::kOptimizing, EngineTier::kJit};
}

/// Every engine configuration a module should behave identically under:
/// the three tiers. Jit.JitOffDegradesToOptimizing pins that kJit with
/// codegen off compiles the kOptimizing entry.
inline std::vector<EngineConfig> all_engine_configs() {
  std::vector<EngineConfig> cfgs;
  for (EngineTier tier : all_tiers()) {
    EngineConfig c;
    c.tier = tier;
    cfgs.push_back(c);
  }
  return cfgs;
}

/// Human-readable label for a config.
inline std::string config_label(const EngineConfig& cfg) {
  return rt::tier_name(cfg.tier);
}

/// Builds every function of a compiled-tier module, as the first calls of
/// a run that calls them all would; for tests that read the code census.
inline void materialize_all(const rt::CompiledModule& cm) {
  for (u32 i = 0; i < cm.module.bodies.size(); ++i)
    (void)rt::compiled_body(cm, i);
}

/// Compiles `bytes` under `cfg` and returns a fresh instance.
inline std::shared_ptr<rt::Instance> instantiate_cfg(
    const std::vector<u8>& bytes, const EngineConfig& cfg,
    const rt::ImportTable& imports = {}) {
  auto cm = rt::compile({bytes.data(), bytes.size()}, cfg);
  return std::make_shared<rt::Instance>(cm, imports);
}

/// Compiles `bytes` at `tier` (no cache) and returns a fresh instance.
inline std::shared_ptr<rt::Instance> instantiate(
    const std::vector<u8>& bytes, EngineTier tier,
    const rt::ImportTable& imports = {}) {
  EngineConfig cfg;
  cfg.tier = tier;
  cfg.enable_cache = false;
  return instantiate_cfg(bytes, cfg, imports);
}

/// Builds a single-export module around `emit` and asserts it validates.
inline std::vector<u8> build_single_func(
    const FuncType& type, const std::function<void(wasm::FunctionBuilder&)>& emit,
    u32 memory_pages = 1) {
  ModuleBuilder b;
  if (memory_pages > 0) {
    b.add_memory(memory_pages);
    b.export_memory();
  }
  auto& f = b.begin_func(type, "run");
  emit(f);
  std::vector<u8> bytes = b.build();
  auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
  EXPECT_TRUE(decoded.ok()) << decoded.error;
  if (decoded.ok()) {
    auto vr = wasm::validate_module(*decoded.module);
    EXPECT_TRUE(vr.ok) << vr.error;
  }
  return bytes;
}

}  // namespace mpiwasm::test
