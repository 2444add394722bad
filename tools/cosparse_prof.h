// cosparse-prof: offline analysis of cosparse.run_report/v1 documents
// and folded-stack CPU profiles.
//
// Five subcommands, all operating purely on report/telemetry JSON or
// folded-stack text (no simulator dependency, so artifacts from different
// builds remain comparable):
//
//   summarize <report.json>... [--telemetry <file.jsonl>]...
//     prints, per report, the CPU profiler's kept/dropped sample counts
//     (warning above 5 % dropped), per-tile busy cycles with
//     derived.load_imbalance (sim reports), the memory-profile region and
//     per-tile breakdown tables and the decision-audit timeline (one row
//     per SpMV invocation: features, CVD margin, chosen config,
//     counterfactual estimates).
//     Each --telemetry file is summarized as per-snapshot percentile
//     tables (count/Δcount/mean/p50/p90/p99/p999/max per metric) so an
//     exported cosparse.telemetry/v1 stream can be read offline.
//
//   diff <baseline.json> <candidate.json> [--max-regress 5%]
//     compares the candidate against the baseline on the gated metrics
//     (total cycles, L1/L2 misses, DRAM bytes) plus informational
//     per-region miss deltas, and exits nonzero when any gated metric
//     regressed by more than the allowed fraction — the CI gate against a
//     committed golden baseline.
//
//   extract <report.json> [--out <file>]
//     writes the simulated-results subset of a run report (every section
//     except the wall-clock-bearing "telemetry" and "cpu_profile" ones,
//     obs::results_subset) so CI can byte-compare an instrumented run
//     against the instrument-off baseline with plain cmp.
//
//   flame <profile.folded> [--out <flame.html>]
//     renders a --cpu-profile folded-stack file (obs::SampleProfiler
//     output) into a self-contained HTML/SVG flamegraph (default output:
//     <profile.folded>.html) and prints the per-phase share table. Shares
//     cover every sample taken: a "(dropped)" row counts the samples the
//     profiler lost, with a warning above 5 %.
//
//   flamediff <baseline.folded> <candidate.folded> [--max-regress 5%]
//     compares per-phase sample shares of two folded profiles and exits
//     nonzero when any phase's share of total samples grew by more than
//     the limit (in absolute share points: 5% = 0.05 share growth) —
//     the same exit-code contract as `diff`.
//
// The comparison/summary logic lives in this header's functions (library
// target cosparse_prof_lib) so tests/tools/test_cosparse_prof.cpp can
// drive it on crafted documents; cosparse_prof_main.cpp is a thin wrapper.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.h"

namespace cosparse::tools {

struct DiffOptions {
  /// Allowed relative regression on gated metrics (0.05 = 5% worse).
  double max_regress = 0.05;
};

struct DiffRow {
  std::string metric;
  double baseline = 0.0;
  double candidate = 0.0;
  double rel_change = 0.0;  ///< (candidate - baseline) / baseline
  bool gated = false;       ///< counts towards the exit code
  bool regressed = false;   ///< gated && rel_change > max_regress
};

struct DiffResult {
  std::vector<DiffRow> rows;
  bool regressed = false;  ///< any gated row regressed
};

/// Parses "5%", "5" (both 5%) or "0.05x" (fraction) into a fraction.
/// Throws cosparse::Error on malformed input or a negative value.
[[nodiscard]] double parse_regress_limit(const std::string& text);

/// Compares two run-report documents (see file comment for the metric
/// set). Metrics missing from either document are skipped — diffing a
/// report against itself always yields zero rows regressed.
[[nodiscard]] DiffResult diff_reports(const Json& baseline,
                                      const Json& candidate,
                                      const DiffOptions& opts);

void print_diff(std::ostream& os, const DiffResult& result,
                const DiffOptions& opts);

/// Prints the summary tables for one report document.
void summarize_report(std::ostream& os, const Json& doc,
                      const std::string& name);

/// Prints per-snapshot percentile tables for a telemetry JSONL stream
/// (the full file contents). Throws cosparse::Error on unparseable lines.
void summarize_telemetry(std::ostream& os, const std::string& jsonl_text,
                         const std::string& name);

/// Full CLI (argument parsing + file IO). Returns the process exit code:
/// 0 ok, 1 regression or validation failure, 2 usage error.
int prof_main(int argc, const char* const* argv);

}  // namespace cosparse::tools
