// Engine selection for the simulation kernel.
//
// The kernel ships two engine kinds that produce bit-identical results
// (proven by tests/engine_determinism_test.cpp) at different simulation
// speeds:
//
//  * kNaive — gating off: every module evaluates on every edge. Slow,
//             obviously correct; the baseline the fast engine is checked
//             against.
//  * kSoa   — idle-module gating (DESIGN.md §7) over flat
//             structure-of-arrays scheduling state: per-clock
//             activity bitmaps are scanned 64 modules per word, so
//             per-edge cost tracks *activity*, not instantiated hardware.
//
// EngineKind is the single engine-selection currency across the stack:
// SocOptions, scenario specs (`engine naive|soa`), sweep axes and the CLI
// tools (--engine) all speak it.
#ifndef AETHEREAL_SIM_ENGINE_H
#define AETHEREAL_SIM_ENGINE_H

#include <optional>
#include <string_view>

namespace aethereal::sim {

enum class EngineKind {
  kNaive,
  kSoa,
};

/// Stable lowercase name, matching the spec grammar and --engine values.
constexpr const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNaive:
      return "naive";
    case EngineKind::kSoa:
      return "soa";
  }
  return "unknown";
}

/// Inverse of EngineKindName; nullopt for anything else.
inline std::optional<EngineKind> ParseEngineKind(std::string_view text) {
  if (text == "naive") return EngineKind::kNaive;
  if (text == "soa") return EngineKind::kSoa;
  return std::nullopt;
}

/// The --engine / spec-grammar value set, for help text and error messages.
inline constexpr const char* kEngineKindChoices = "naive|soa";

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_ENGINE_H
