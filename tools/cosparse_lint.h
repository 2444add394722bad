// cosparse-lint: static verifier for run plans, run reports, telemetry
// exports and — since the `code` subcommand — the source tree itself.
//
// Subcommands, none of which executes the simulator:
//
//   plan <plan.json>... [options]
//     runs the config-legality, address-map and decision-tree passes over
//     each cosparse.run_plan/v1 document and prints the findings. Exits
//     nonzero when any plan has errors (with --strict, also on warnings)
//     so CI can gate on it.
//
//   report <report.json>... [options]
//     runs the schema/invariant pass over cosparse.run_report/v1
//     documents — the same checks the observability unit tests enforce
//     (including the telemetry section when present).
//
//   telemetry <file>... [options]
//     lints exported telemetry artifacts: *.prom / *.txt files as
//     OpenMetrics text expositions, everything else as snapshot JSONL
//     streams (schema per line, strictly increasing seq, monotone
//     wall_ms/iterations).
//
//   serve <config.json>... [options]
//     lints cosparse.serve_config/v1 documents — the trace configs
//     cosparsed replays (schema, field types/ranges, dataset-registry
//     cross-references, self-defeating knob combos).
//
//   code [compile_commands.json] [--root <dir>] [options]
//     token/declaration-level scan of the source tree (src/analyze/):
//     signal_safety, fp_exactness, determinism and phase_hygiene passes
//     over <root>/{src,bench,examples}. The root defaults to the parent
//     of the compile db's directory (i.e. the source checkout when the
//     db is <root>/build/compile_commands.json). Without a compile db
//     the flag checks degrade to a warning.
//
// options (uniform across subcommands):
//   --json               print one cosparse.lint_findings/v1 document
//                        covering every linted subject
//   --strict             exit nonzero on warnings too
//   --baseline <file>    cosparse.lint_baseline/v1 suppressions; matched
//                        findings stay visible but do not gate
//   --report-out <file>  also write the lint_findings JSON to <file>
//
// The driver logic lives here (library target cosparse_lint_lib) so
// tests/tools/test_cosparse_lint.cpp can run the CLI on crafted inputs
// without spawning a process; cosparse_lint_main.cpp is a thin wrapper.
#pragma once

#include <iosfwd>
#include <string>

#include "verify/verify.h"

namespace cosparse::tools {

/// Human-readable rendering: one line per finding
/// ("error[config.illegal-pair] @kernel.hw: ..."), then a summary line.
/// Baseline-suppressed findings are prefixed "suppressed".
void print_lint_report(std::ostream& os, const verify::LintReport& report);

/// Full CLI (argument parsing + file IO). Returns the process exit code:
/// 0 clean, 1 findings at or above the gating severity, 2 usage error
/// (including an unreadable --baseline file).
int lint_main(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err);

}  // namespace cosparse::tools
