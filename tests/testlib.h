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
/// the three static tiers, plus tiered mode with threshold 1, which forces a
/// lazy promotion on the very first call of every function (maximum mid-run
/// tier churn; promotions also compile fused bodies).
inline std::vector<EngineConfig> all_engine_configs() {
  std::vector<EngineConfig> cfgs;
  for (EngineTier tier : all_tiers()) {
    EngineConfig c;
    c.tier = tier;
    cfgs.push_back(c);
  }
  EngineConfig tiered;
  tiered.tier = EngineTier::kTiered;
  tiered.tierup_opt_threshold = 1;
  cfgs.push_back(tiered);
  // A staged variant: interp first, optimizing on call 2, native code on
  // call 4 — promotions land mid-sweep in multi-input tests.
  EngineConfig staged;
  staged.tier = EngineTier::kTiered;
  staged.tierup_opt_threshold = 2;
  staged.tierup_jit_threshold = 4;
  cfgs.push_back(staged);
  // Tiered mode promoting all the way to native code mid-run. The jit knob
  // keeps its env default in every entry; Jit.JitOffDegradesToOptimizing
  // pins that kJit with codegen off compiles the kOptimizing entry.
  EngineConfig tiered_jit;
  tiered_jit.tier = EngineTier::kTiered;
  tiered_jit.tierup_opt_threshold = 1;
  tiered_jit.tierup_jit_threshold = 3;
  cfgs.push_back(tiered_jit);
  return cfgs;
}

/// Human-readable label for a config (tier name + thresholds for tiered).
inline std::string config_label(const EngineConfig& cfg) {
  std::string s = rt::tier_name(cfg.tier);
  if (cfg.tier == EngineTier::kTiered) {
    s += "(" + std::to_string(cfg.tierup_opt_threshold) + "," +
         std::to_string(cfg.tierup_jit_threshold) + ")";
  }
  if (cfg.tier == EngineTier::kJit && !cfg.jit) s += "(off)";
  return s;
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
