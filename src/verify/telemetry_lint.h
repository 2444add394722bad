// Pass: telemetry lint.
//
// Three related validators for the continuous-telemetry pipeline
// (obs/telemetry.h): the run report's "telemetry" section (schema tag,
// digest invariants, watchdog shape), an exported JSONL time series
// (per-line schema + strictly increasing seq and monotone wall_ms /
// iteration counters — the self-describing-stream contract), and an
// OpenMetrics text exposition (sample syntax, TYPE-before-samples,
// terminating "# EOF"). cosparse-lint's `report` subcommand runs the
// section pass; its `telemetry` subcommand runs the file passes; CI lints
// the quickstart's emitted files with them.
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

/// Lints an OpenMetrics text exposition.
[[nodiscard]] std::vector<Finding> lint_openmetrics(const std::string& text);

}  // namespace cosparse::verify
