// Machine-readable run reports.
//
// A Report is one JSON document describing a complete run — tool, system
// config, dataset, per-iteration records, final stats (global and
// per-tile), energy, metrics and any result tables — written next to the
// existing CSV mirrors. The schema is documented in DESIGN.md §8
// ("Observability") and checked by `cosparse-lint report`
// (verify::lint_run_report); bump kReportSchema when making an
// incompatible change.
#pragma once

#include <string>
#include <string_view>

#include "common/json.h"

namespace cosparse::obs {

inline constexpr std::string_view kReportSchema = "cosparse.run_report/v1";

class Report {
 public:
  /// `tool` is the producing binary/harness name (e.g. "quickstart",
  /// "fig07_balance").
  explicit Report(std::string tool);

  /// Sets (or replaces) a top-level section. Well-known keys: "config",
  /// "dataset", "iterations", "stats", "tile_stats", "derived", "totals",
  /// "metrics", "tables".
  void set(const std::string& key, Json value);

  [[nodiscard]] const Json& root() const { return doc_; }
  [[nodiscard]] Json& root() { return doc_; }

  [[nodiscard]] std::string to_string() const { return doc_.dump(1); }

  /// Writes the document to `path`, creating parent directories.
  void write(const std::string& path) const;

 private:
  Json doc_;
};

/// The simulated-results subset of a run report: every section except the
/// wall-clock-bearing "telemetry" and "cpu_profile" ones. Both are
/// bit-neutral to simulated results, so this subset must be byte-identical
/// between runs of the same workload with those instruments on or off —
/// the differential harness and the CI baseline comparison both diff
/// exactly this document (see also `cosparse-prof extract`).
[[nodiscard]] Json results_subset(const Json& report);

/// The *functional* subset of a run report: only the sections whose bytes
/// are mode-independent — schema, tool, seed, dataset, results, the
/// decision audit, and the iteration records normalized by stripping their
/// cycle/energy fields (cycles are simulated quantities; native mode has
/// none). This is the document the sim-vs-native differential suite and
/// the CI cross-mode gate byte-compare (`cosparse-prof extract
/// --functional`): two exec modes of the same workload must produce
/// identical functional subsets.
[[nodiscard]] Json functional_subset(const Json& report);

}  // namespace cosparse::obs
