// cosparsed — the CoSPARSE multi-tenant graph-query serving daemon.
//
// Serves BFS/SSSP/PageRank/CF queries over the named Table III datasets
// through the reconfigurable engine, in two modes:
//
//   replay (default)   --config <serve_config.json>
//     expands the config's traffic section into a seeded deterministic
//     trace (Poisson or bursty arrivals) and serves it end-to-end. Same
//     (seed, trace-config) -> byte-identical schedule, results and
//     report functional subset, for ANY --serve-threads value.
//
//   request stream     --config <...> --requests <file.jsonl|->
//     serves explicit JSONL request documents (one per line; '-' reads
//     stdin). Malformed lines — truncated JSON, unknown fields, type
//     errors — become structured error responses, never crashes; ids are
//     assigned by line number and requests are scheduled by their
//     arrival_us (0 = all at trace start).
//
// Outputs: a cosparse.run_report/v1 document (--report-out) whose
// "results" section is deterministic and whose "timing"/"telemetry"
// sections carry host wall-clock truth, plus optional per-response JSONL
// (--responses-out, wire form with wall_service_ms). The standard
// telemetry options (--telemetry-interval/--slo/--slo-strict/...) arm
// the serve.request_ms / serve.batch_ms / serve.{load,prepare,exec}_ms /
// serve.queue_* histograms; with
// --slo-strict the process exits 3 on any violated rule — the CI serve
// leg gates on p99.serve.request_ms this way.
//
// The driver lives here (library target cosparsed_lib) so
// tests/tools/test_cosparsed.cpp can run the CLI in-process;
// cosparsed_main.cpp is a thin wrapper.
#pragma once

#include <iosfwd>

namespace cosparse::tools {

/// Full CLI (argument parsing + file IO). Returns the process exit code:
/// 0 ok, 2 usage/config error, 3 strict-SLO violation.
int cosparsed_main(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err);

}  // namespace cosparse::tools
