// Telemetry lint pass tests: report-section schema validation and JSONL
// stream monotonicity (seq / wall_ms / iterations) — each seeded defect
// must surface the right finding id, and the real report section must
// pass clean.
#include "verify/telemetry_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/telemetry.h"

namespace cosparse::verify {
namespace {

bool has_id(const std::vector<Finding>& findings, const std::string& id) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.id == id; });
}

// ---- the run-report telemetry section ----

TEST(TelemetryLint, AbsentSectionIsClean) {
  EXPECT_TRUE(lint_telemetry_section(Json::parse(R"({"tool":"x"})")).empty());
}

TEST(TelemetryLint, RealReportSectionPassesClean) {
  // Build the section the way the runtime does, not from a literal.
  obs::Telemetry t(obs::TelemetryConfig::parse("1i"), [] { return 1.0; });
  t.set_header("tool", "unit");
  t.histogram("m").observe(2.0);
  t.tick(1);
  Json doc = Json::object();
  doc["telemetry"] = t.report_json();
  EXPECT_TRUE(lint_telemetry_section(doc).empty());
}

TEST(TelemetryLint, DetectsBadSchemaAndMissingFields) {
  const Json doc = Json::parse(
      R"({"telemetry":{"schema":"bogus/v9","hist":{}}})");
  const auto f = lint_telemetry_section(doc);
  EXPECT_TRUE(has_id(f, "telemetry.bad-schema"));
  EXPECT_TRUE(has_id(f, "telemetry.missing-field"));  // no snapshots count
}

TEST(TelemetryLint, DetectsNonMonotoneQuantileLadder) {
  const Json doc = Json::parse(R"({"telemetry":{
    "schema":"cosparse.telemetry/v1","snapshots":1,
    "hist":{"m":{"count":3,"sum":6,"min":1,"max":3,
                 "p50":2,"p90":5,"p99":2,"p999":2}}}})");
  EXPECT_TRUE(has_id(lint_telemetry_section(doc), "telemetry.quantile-order"));
}

// ---- JSONL streams ----

std::string snapshot_line(std::uint64_t seq, double wall_ms,
                          std::uint64_t iterations) {
  Json o = Json::object();
  o["schema"] = obs::kTelemetrySchema;
  o["seq"] = seq;
  o["wall_ms"] = wall_ms;
  o["iterations"] = iterations;
  Json header = Json::object();
  header["tool"] = "unit";
  header["sim_threads"] = 0;
  o["header"] = std::move(header);
  o["hist"] = Json::object();
  return o.dump();
}

TEST(TelemetryLint, WellFormedJsonlStreamPassesClean) {
  const std::string text = snapshot_line(0, 1.0, 1) + "\n" +
                           snapshot_line(1, 2.0, 2) + "\n" +
                           snapshot_line(2, 2.0, 2) + "\n";  // flush repeat ok
  EXPECT_TRUE(lint_telemetry_jsonl(text).empty());
}

TEST(TelemetryLint, DetectsUnparseableLines) {
  EXPECT_TRUE(has_id(lint_telemetry_jsonl("{not json\n"), "telemetry.bad-json"));
}

TEST(TelemetryLint, DetectsSeqNotStrictlyIncreasing) {
  const std::string text =
      snapshot_line(0, 1.0, 1) + "\n" + snapshot_line(0, 2.0, 2) + "\n";
  EXPECT_TRUE(has_id(lint_telemetry_jsonl(text), "telemetry.seq-not-increasing"));
}

TEST(TelemetryLint, NonIntegerSeqIsABadValueAndLintingGoesOn) {
  std::string text = snapshot_line(0, 1.0, 1) + "\n";
  for (const char* seq : {"1.5", "1e300"}) {
    std::string line = snapshot_line(0, 2.0, 2);
    line.replace(line.find("\"seq\":0"), 7, std::string("\"seq\":") + seq);
    text += line + "\n";
  }
  text += snapshot_line(1, 0.5, 3) + "\n";  // wall clock regresses
  const auto f = lint_telemetry_jsonl(text);
  for (const char* path : {"line[2].seq", "line[3].seq"}) {
    EXPECT_TRUE(std::any_of(f.begin(), f.end(), [&](const Finding& x) {
      return x.id == "telemetry.bad-value" && x.location.name == path;
    })) << path;
  }
  EXPECT_FALSE(has_id(f, "telemetry.seq-not-increasing"));
  EXPECT_TRUE(has_id(f, "telemetry.time-regression"));
}

TEST(TelemetryLint, DetectsWallClockAndProgressRegressions) {
  const std::string text =
      snapshot_line(0, 5.0, 4) + "\n" + snapshot_line(1, 2.0, 3) + "\n";
  const auto f = lint_telemetry_jsonl(text);
  EXPECT_TRUE(has_id(f, "telemetry.time-regression"));
  EXPECT_TRUE(has_id(f, "telemetry.progress-regression"));
}

TEST(TelemetryLint, WarnsWhenHeaderLacksToolOrSimThreads) {
  const std::string text =
      R"({"schema":"cosparse.telemetry/v1","seq":0,"wall_ms":1,)"
      R"("iterations":1,"header":{},"hist":{}})" "\n";
  const auto f = lint_telemetry_jsonl(text);
  EXPECT_TRUE(has_id(f, "telemetry.missing-header"));
  // A warning, not an error: old streams stay readable.
  for (const Finding& finding : f) {
    if (finding.id == "telemetry.missing-header") {
      EXPECT_EQ(finding.severity, Severity::kWarning);
    }
  }
}

TEST(TelemetryLint, FlagsEmptyStreams) {
  EXPECT_TRUE(has_id(lint_telemetry_jsonl(""), "telemetry.empty-stream"));
  EXPECT_TRUE(has_id(lint_telemetry_jsonl("\n\n"), "telemetry.empty-stream"));
}

}  // namespace
}  // namespace cosparse::verify
