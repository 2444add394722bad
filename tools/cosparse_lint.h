// cosparse-lint: static verifier for the documents the programs write or
// read (run reports, telemetry exports, serve configs) and for the source
// tree itself.
//
// Subcommands, one of which is required and none of which executes the
// simulator:
//
//   report <report.json>... [options]
//     runs the schema/invariant pass over cosparse.run_report/v1
//     documents — the same checks the observability unit tests enforce
//     (including the telemetry section when present). Exits nonzero when
//     any report has errors (with --strict, also on warnings) so CI can
//     gate on it.
//
//   telemetry <file>... [options]
//     lints telemetry JSONL streams, the files --telemetry-out writes
//     (schema per line, strictly increasing integer seq, monotone
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

#include "verify/findings.h"

namespace cosparse::tools {

/// Human-readable rendering: one line per finding
/// ("error[report.bad-value] @iterations[0].cycles: ..."), then a summary
/// line.
/// Baseline-suppressed findings are prefixed "suppressed".
void print_lint_report(std::ostream& os, const verify::LintReport& report);

/// Full CLI (argument parsing + file IO). Returns the process exit code:
/// 0 clean, 1 findings at or above the gating severity, 2 usage error
/// (a missing subcommand, or an unreadable input or --baseline file).
int lint_main(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err);

}  // namespace cosparse::tools
