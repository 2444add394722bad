// Engine execution modes (DESIGN.md §14: fast functional mode).
//
// `kSim` runs every kernel through the cycle-accurate tile simulator;
// `kNative` runs the same kernel loops as plain host code — no event logs,
// no cache model, no cycle accounting — at native speed. The two modes are
// results-equivalent by construction (DESIGN.md §14): the native backend
// executes the *same* templated kernels with a no-op machine, so every
// floating-point operation happens in the same order on the same values.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

#include "common/error.h"

namespace cosparse::native {

enum class ExecMode : std::uint8_t {
  kSim,     ///< cycle-accurate simulation (the default)
  kNative,  ///< results-only host execution
};

[[nodiscard]] inline const char* to_string(ExecMode m) {
  return m == ExecMode::kNative ? "native" : "sim";
}

/// Parses "sim"/"native" (exact); throws cosparse::Error on other input.
[[nodiscard]] inline ExecMode exec_mode_from_string(const std::string& name) {
  if (name == "sim") return ExecMode::kSim;
  if (name == "native") return ExecMode::kNative;
  throw Error("unknown exec mode: '" + name + "' (expected sim|native)");
}

/// CLI/environment resolution used by every bench/example: an explicit
/// --exec-mode value wins; otherwise COSPARSE_EXEC_MODE; otherwise sim.
/// Unset/empty environment means sim; a malformed value throws (a typo'd
/// mode silently simulating for hours is the failure this rejects).
[[nodiscard]] inline ExecMode resolve_exec_mode(
    const std::optional<std::string>& cli_value) {
  if (cli_value.has_value()) return exec_mode_from_string(*cli_value);
  // NOLINTNEXTLINE(concurrency-mt-unsafe): resolved once at startup.
  const char* env = std::getenv("COSPARSE_EXEC_MODE");
  if (env == nullptr || *env == '\0') return ExecMode::kSim;
  return exec_mode_from_string(env);
}

}  // namespace cosparse::native
