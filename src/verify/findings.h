// Machine-readable lint findings (cosparse.lint_report/v1).
//
// Every cosparse-lint pass emits Findings: a severity, a stable finding id
// ("report.tile-sum-mismatch", "serve.batch-exceeds-active", ...), a
// human-readable message, and a location naming the document path, config
// field or source line the finding is anchored to. A LintReport collects
// the findings of one linted report, telemetry file, serve config or
// source tree and serializes them as a cosparse.lint_report/v1 JSON
// document; cosparse-lint exits nonzero when a report contains errors so
// CI can gate on it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace cosparse::verify {

inline constexpr std::string_view kLintReportSchema = "cosparse.lint_report/v1";

/// Uniform multi-subject envelope every cosparse-lint subcommand emits
/// under --json: {schema, tool, subcommand, subjects: [{subject,
/// findings, summary}], summary}.
inline constexpr std::string_view kLintFindingsSchema =
    "cosparse.lint_findings/v1";

enum class Severity : std::uint8_t { kInfo, kWarning, kError };

[[nodiscard]] const char* to_string(Severity s);
/// Inverse of to_string(); throws cosparse::Error on unknown names.
[[nodiscard]] Severity severity_from_string(std::string_view s);

/// What a finding is anchored to. `kind` is one of "config_field" (a
/// dotted path into a serve config, e.g. "traffic.arrival"), "document"
/// (a path into a linted JSON document, e.g. "tile_stats") or "source"
/// (a "file:line" in the source tree).
struct Location {
  std::string kind;
  std::string name;

  static Location config_field(std::string name) {
    return {"config_field", std::move(name)};
  }
  static Location document(std::string path) {
    return {"document", std::move(path)};
  }
  /// A source-file anchor, "file:line"; line 0 names the whole file.
  static Location source(const std::string& file, int line) {
    return {"source",
            line > 0 ? file + ":" + std::to_string(line) : file};
  }
};

struct Finding {
  std::string pass;  ///< e.g. "report_schema", "serve_config", "determinism"
  std::string id;    ///< stable machine-matchable id, e.g. "report.bad-value"
  Severity severity = Severity::kError;
  std::string message;
  Location location;
  /// Set by a baseline (baseline.h): the finding stays in the report
  /// for visibility but no longer counts toward the gate.
  bool suppressed = false;

  [[nodiscard]] Json to_json() const;
};
[[nodiscard]] Finding finding_from_json(const Json& j);

/// The findings of one linted subject, ordered most-severe first.
class LintReport {
 public:
  explicit LintReport(std::string subject) : subject_(std::move(subject)) {}

  void add(Finding f) { findings_.push_back(std::move(f)); }
  void add(std::vector<Finding> fs);
  void emit(std::string pass, std::string id, Severity sev,
            std::string message, Location loc);

  [[nodiscard]] const std::string& subject() const { return subject_; }
  [[nodiscard]] const std::vector<Finding>& findings() const {
    return findings_;
  }
  [[nodiscard]] std::vector<Finding>& findings() { return findings_; }
  /// Non-suppressed findings of severity `s`.
  [[nodiscard]] std::size_t count(Severity s) const;
  [[nodiscard]] std::size_t suppressed_count() const;
  [[nodiscard]] std::size_t errors() const { return count(Severity::kError); }
  /// No errors (warnings/infos permitted).
  [[nodiscard]] bool clean() const { return errors() == 0; }

  /// Orders findings by descending severity (stable within a severity).
  void sort_by_severity();

  /// cosparse.lint_report/v1: schema, subject, findings, summary counts.
  [[nodiscard]] Json to_json() const;

 private:
  std::string subject_;
  std::vector<Finding> findings_;
};

/// The cosparse.lint_findings/v1 envelope: one document covering every
/// subject a cosparse-lint invocation linted, with a grand-total
/// summary. Exit-code semantics live in the per-subject summaries.
[[nodiscard]] Json lint_findings_json(std::string_view subcommand,
                                      const std::vector<LintReport>& reports);

}  // namespace cosparse::verify
