// Pass: telemetry lint.
//
// Two related validators for the continuous-telemetry pipeline
// (obs/telemetry.h): the run report's "telemetry" section (schema tag,
// digest invariants, watchdog shape) and an exported JSONL time series
// (per-line schema + strictly increasing integer seq and monotone
// wall_ms / iteration counters — the self-describing-stream contract).
// cosparse-lint's `report` subcommand runs the section pass; its
// `telemetry` subcommand runs the stream pass; CI lints the quickstart's
// emitted stream with it.
#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "verify/findings.h"

namespace cosparse::verify {

/// Lints the "telemetry" section of a run report document (no findings
/// when the section is absent — telemetry is opt-in).
[[nodiscard]] std::vector<Finding> lint_telemetry_section(const Json& doc);

/// Lints a telemetry JSONL stream (the full file contents, one snapshot
/// per line).
[[nodiscard]] std::vector<Finding> lint_telemetry_jsonl(
    const std::string& text);

}  // namespace cosparse::verify
