// Run-report assembly for Engine-based runs.
//
// make_run_report() snapshots everything an Engine knows — system config,
// per-iteration records, global and per-tile simulator stats, derived
// rates, totals and the metrics tallied from its own records — into one
// cosparse.run_report/v1 document (schema in DESIGN.md §8). Callers add
// tool-specific sections ("dataset", "tables", ...) on top and write().
#pragma once

#include <span>
#include <string>

#include "obs/report.h"
#include "runtime/audit.h"
#include "runtime/engine.h"

namespace cosparse::runtime {

/// The "metrics" section: counters and the frontier-density histogram
/// tallied from an engine's iteration log (engine.*, engine.cycles.<HW>
/// in sim mode, native.kernel.{pull,push} in native mode), its decision
/// audit (decision.sw.*, decision.hw.*) and its finished algorithm runs
/// (algo.<name>.{runs,iterations,cycles}). Counter names are sorted; a
/// counter that never fired is absent, and the histogram is absent
/// without iterations.
[[nodiscard]] Json metrics_view(std::span<const IterationRecord> iterations,
                                std::span<const DecisionRecord> decisions,
                                std::span<const AlgoRunRecord> algo_runs,
                                native::ExecMode mode);

/// Builds a report from the engine's current state. `tool` names the
/// producing binary (e.g. "quickstart"). Per-tile stats are included such
/// that their element-wise sum equals the "stats" section exactly.
[[nodiscard]] obs::Report make_run_report(const Engine& eng, std::string tool);

}  // namespace cosparse::runtime
