// cosparse-lint CLI tests: exit codes, output modes, usage errors and
// --baseline suppression, driven in-process on crafted run reports and
// serve configs.
#include "cosparse_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../common/temp_path.h"
namespace cosparse::tools {
namespace {

constexpr const char* kCleanReport = R"({
  "schema": "cosparse.run_report/v1", "tool": "test"
})";

// A report whose per-tile l1_misses do not sum to the global counter.
constexpr const char* kTileSumMismatchReport = R"({
  "schema": "cosparse.run_report/v1", "tool": "test",
  "stats": {"l1_misses": 10},
  "tile_stats": [{"l1_misses": 1}]
})";

// ---- CLI driver: exit codes and output modes ----

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = test::unique_temp_path(name);
  std::ofstream out(path);
  out << text;
  return path;
}

int run_cli(const std::vector<std::string>& args, std::string* out_text) {
  std::vector<const char*> argv{"cosparse-lint"};
  for (const auto& a : args) argv.push_back(a.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const int rc =
      lint_main(static_cast<int>(argv.size()), argv.data(), out, err);
  if (out_text != nullptr) *out_text = out.str() + err.str();
  return rc;
}

TEST(CosparseLintCli, CleanReportExitsZero) {
  const auto path = write_temp("clean.report.json", kCleanReport);
  std::string text;
  EXPECT_EQ(run_cli({"report", path}, &text), 0);
  EXPECT_NE(text.find("0 error(s)"), std::string::npos);
}

TEST(CosparseLintCli, ErrorsGateWithNonzeroExit) {
  const auto path = write_temp("bad.report.json", kTileSumMismatchReport);
  std::string text;
  EXPECT_EQ(run_cli({"report", path}, &text), 1);
  EXPECT_NE(text.find("report.tile-sum-mismatch"), std::string::npos);
}

TEST(CosparseLintCli, StrictPromotesWarningsToFailure) {
  // A batch larger than the admission cap: a warning, so default passes
  // but --strict fails.
  const auto path = write_temp("warn.serve.json", R"({
    "schema": "cosparse.serve_config/v1",
    "max_active_reqs": 4,
    "max_batch_size": 8,
    "traffic": {"datasets": ["twitter"], "algos": ["bfs"]}
  })");
  std::string text;
  EXPECT_EQ(run_cli({"serve", path}, &text), 0);
  EXPECT_NE(text.find("warning[serve.batch-exceeds-active]"),
            std::string::npos)
      << text;
  EXPECT_EQ(run_cli({"serve", path, "--strict"}, nullptr), 1);
}

TEST(CosparseLintCli, JsonOutputIsALintFindingsDocument) {
  const auto path = write_temp("clean2.report.json", kCleanReport);
  std::string text;
  EXPECT_EQ(run_cli({"report", path, "--json"}, &text), 0);
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.find("schema")->as_string(), verify::kLintFindingsSchema);
  EXPECT_EQ(doc.find("tool")->as_string(), "cosparse-lint");
  EXPECT_EQ(doc.find("subcommand")->as_string(), "report");
  const auto& subjects = doc.find("subjects")->items();
  ASSERT_EQ(subjects.size(), 1u);
  EXPECT_EQ(subjects[0].find("subject")->as_string(), path);
  ASSERT_NE(subjects[0].find("summary"), nullptr);
  ASSERT_NE(doc.find("summary"), nullptr);
  EXPECT_EQ(doc.find("summary")->find("errors")->as_int(), 0);
}

TEST(CosparseLintCli, ReportSubcommandValidatesRunReports) {
  const auto good = write_temp("good.report.json", kCleanReport);
  const auto bad = write_temp("bad2.report.json", kTileSumMismatchReport);
  EXPECT_EQ(run_cli({"report", good}, nullptr), 0);
  std::string text;
  EXPECT_EQ(run_cli({"report", bad}, &text), 1);
  EXPECT_NE(text.find("report.tile-sum-mismatch"), std::string::npos);
}

TEST(CosparseLintCli, UsageErrors) {
  EXPECT_EQ(run_cli({}, nullptr), 2);
  EXPECT_EQ(run_cli({"report", "/nonexistent/x.json"}, nullptr), 2);
  EXPECT_EQ(run_cli({"report", "--bogus-flag"}, nullptr), 2);
  EXPECT_EQ(run_cli({"report"}, nullptr), 2);
  EXPECT_EQ(run_cli({"report", "--baseline"}, nullptr), 2);
}

TEST(CosparseLintCli, SubcommandIsRequired) {
  // Neither a bare file nor the removed `plan` subcommand is accepted.
  const auto path = write_temp("x.json", kCleanReport);
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{path},
        std::vector<std::string>{"plan", path}}) {
    std::string text;
    EXPECT_EQ(run_cli(args, &text), 2);
    EXPECT_NE(text.find("usage: cosparse-lint"), std::string::npos) << text;
  }
}

TEST(CosparseLintCli, TruncatedInputIsReportedUnderItsSubcommand) {
  const auto serve = write_temp("truncated.serve.json",
                                R"({"schema": "cosparse.serve_config/v1", )"
                                R"("traffic": {"seed": )");
  std::string text;
  EXPECT_EQ(run_cli({"serve", serve, "--json"}, &text), 1);
  const Json doc = Json::parse(text);
  const Json& subject = doc.find("subjects")->items()[0];
  const Json& finding = subject.find("findings")->items()[0];
  EXPECT_EQ(finding.find("pass")->as_string(), "serve_config");
  EXPECT_EQ(finding.find("id")->as_string(), "serve.unparseable");

  const auto report = write_temp("truncated.report.json",
                                 R"({"schema": "cosparse.run_report/v1", )");
  EXPECT_EQ(run_cli({"report", report}, &text), 1);
  EXPECT_NE(text.find("error[report.unparseable]"), std::string::npos)
      << text;
}

/// The findings of the one subject a `--json` run linted.
std::vector<std::pair<std::string, std::string>> findings_of(
    const std::string& json_text) {
  std::vector<std::pair<std::string, std::string>> out;
  const Json doc = Json::parse(json_text);
  for (const Json& f : doc.find("subjects")->at(0).find("findings")->items()) {
    out.emplace_back(f.find("id")->as_string(),
                     f.find("location")->find("name")->as_string());
  }
  return out;
}

bool has_finding(const std::vector<std::pair<std::string, std::string>>& fs,
                 const std::string& id, const std::string& where) {
  return std::find(fs.begin(), fs.end(), std::make_pair(id, where)) !=
         fs.end();
}

TEST(CosparseLintCli, NonIntegerTelemetrySeqIsAFindingNotAnAbort) {
  const auto path = write_temp(
      "seq.jsonl",
      R"({"schema":"cosparse.telemetry/v1","seq":1.5,"wall_ms":1,)"
      R"("iterations":1,"header":{"tool":"t","sim_threads":0},"hist":{}})"
      "\n");
  std::string text;
  EXPECT_EQ(run_cli({"telemetry", path, "--json"}, &text), 1);
  EXPECT_TRUE(
      has_finding(findings_of(text), "telemetry.bad-value", "line[1].seq"))
      << text;
}

/// A report with one mistyped field (a tile's l2_misses, or a field in
/// `section`) plus a tile-sum mismatch elsewhere: the lint must name the
/// mistyped field and still report the mismatch.
std::vector<std::pair<std::string, std::string>> lint_mistyped_report(
    const std::string& name, const std::string& tile_l2_misses,
    const std::string& section) {
  const auto path = write_temp(name, R"({
    "schema": "cosparse.run_report/v1", "tool": "test",
    "stats": {"l1_misses": 10, "l2_misses": 3},
    "tile_stats": [{"l1_misses": 1, "l2_misses": )" + tile_l2_misses +
                                         "}],\n" + section + "}");
  std::string text;
  EXPECT_EQ(run_cli({"report", path, "--json"}, &text), 1);
  const auto fs = findings_of(text);
  EXPECT_FALSE(has_finding(fs, "report.unparseable", "(root)")) << text;
  EXPECT_TRUE(
      has_finding(fs, "report.tile-sum-mismatch", "tile_stats.l1_misses"))
      << text;
  return fs;
}

std::string audit_with(const std::string& invocation,
                       const std::string& chosen) {
  return R"("decision_audit": {"invocations": [{
      "invocation": )" + invocation + R"(, "forced_sw": false,
      "features": {}, "checks": [], "sw": "IP", "hw": "SC", "cvd": 0.02,
      "counterfactuals": [{"chosen": )" + chosen + R"(}, {"chosen": false},
                          {"chosen": false}, {"chosen": true}]}]})";
}

TEST(CosparseLintCli, MistypedInvocationIsReportedWhereItIs) {
  for (const char* invocation : {R"("0")", "0.5"}) {
    const auto fs = lint_mistyped_report("invocation.report.json", "3",
                                         audit_with(invocation, "false"));
    EXPECT_TRUE(has_finding(fs, "report.bad-value",
                            "decision_audit.invocations[0].invocation"))
        << invocation;
  }
}

TEST(CosparseLintCli, MistypedChosenFlagIsReportedWhereItIs) {
  const auto fs = lint_mistyped_report("chosen.report.json", "3",
                                       audit_with("0", R"("no")"));
  EXPECT_TRUE(has_finding(
      fs, "report.bad-value",
      "decision_audit.invocations[0].counterfactuals[0].chosen"));
}

TEST(CosparseLintCli, MistypedTileCounterIsReportedWhereItIs) {
  const auto fs = lint_mistyped_report("tile.report.json", R"("3")",
                                       R"("totals": {"cycles": 1})");
  EXPECT_TRUE(
      has_finding(fs, "report.bad-value", "tile_stats[0].l2_misses"));
}

TEST(CosparseLintCli, DeeplyNestedReportIsUnparseableNotACrash) {
  const auto deep = write_temp("deep.report.json", std::string(1000000, '['));
  std::string text;
  EXPECT_EQ(run_cli({"report", deep}, &text), 1);
  EXPECT_NE(text.find("error[report.unparseable]"), std::string::npos)
      << text;
}

TEST(CosparseLintCli, ReportOutWritesDocument) {
  const auto report = write_temp("clean3.report.json", kCleanReport);
  const auto out_path = test::unique_temp_path("lint_report.json");
  EXPECT_EQ(run_cli({"report", report, "--report-out", out_path}, nullptr),
            0);
  std::ifstream in(out_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  EXPECT_EQ(doc.find("schema")->as_string(), verify::kLintFindingsSchema);
  EXPECT_EQ(doc.find("subcommand")->as_string(), "report");
}

// ---- --baseline: shared suppression across subcommands ----

TEST(CosparseLintCli, BaselineSuppressesKnownFindings) {
  const auto report =
      write_temp("baselined.report.json", kTileSumMismatchReport);
  const auto baseline = write_temp("suppress.baseline.json", R"({
    "schema": "cosparse.lint_baseline/v1",
    "suppress": [{"pass": "report_schema", "id": "report.tile-sum-mismatch"}]
  })");
  // Without the baseline the report gates; with it the finding stays
  // visible (marked suppressed) but the exit code drops to 0.
  EXPECT_EQ(run_cli({"report", report}, nullptr), 1);
  std::string text;
  EXPECT_EQ(run_cli({"report", report, "--baseline", baseline}, &text), 0);
  EXPECT_NE(text.find("suppressed error[report.tile-sum-mismatch]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("1 suppressed"), std::string::npos);
}

TEST(CosparseLintCli, BaselineLocationNarrowsTheMatch) {
  const auto report = write_temp("narrow.report.json", kTileSumMismatchReport);
  const auto wrong_loc = write_temp("narrow.baseline.json", R"({
    "schema": "cosparse.lint_baseline/v1",
    "suppress": [{"pass": "report_schema", "id": "report.tile-sum-mismatch",
                  "location": "tile_stats.l2_misses"}]
  })");
  const auto right_loc = write_temp("narrow_ok.baseline.json", R"({
    "schema": "cosparse.lint_baseline/v1",
    "suppress": [{"pass": "report_schema", "id": "report.tile-sum-mismatch",
                  "location": "tile_stats.l1_misses"}]
  })");
  EXPECT_EQ(run_cli({"report", report, "--baseline", wrong_loc}, nullptr), 1);
  EXPECT_EQ(run_cli({"report", report, "--baseline", right_loc}, nullptr), 0);
}

TEST(CosparseLintCli, BadBaselineIsAUsageError) {
  const auto report = write_temp("ok.report.json", kCleanReport);
  const auto bad = write_temp("bad.baseline.json", R"({"schema": "nope"})");
  EXPECT_EQ(run_cli({"report", report, "--baseline", bad}, nullptr), 2);
  EXPECT_EQ(run_cli({"report", report, "--baseline", "/nonexistent.json"},
                    nullptr),
            2);
}

TEST(CosparseLintCli, SuppressedFindingsAreMarkedInJson) {
  const auto report = write_temp("marked.report.json", kTileSumMismatchReport);
  const auto baseline = write_temp("marked.baseline.json", R"({
    "schema": "cosparse.lint_baseline/v1",
    "suppress": [{"pass": "report_schema", "id": "report.tile-sum-mismatch",
                  "location": "tile_stats.l1_misses"}]
  })");
  std::string text;
  EXPECT_EQ(
      run_cli({"report", report, "--baseline", baseline, "--json"}, &text), 0);
  const Json doc = Json::parse(text);
  const Json& subject = doc.find("subjects")->items()[0];
  EXPECT_GE(subject.find("summary")->find("suppressed")->as_int(), 1);
  bool saw_marker = false;
  for (const Json& f : subject.find("findings")->items()) {
    if (f.find("id")->as_string() == "report.tile-sum-mismatch") {
      const Json* sup = f.find("suppressed");
      saw_marker = sup != nullptr && sup->as_bool();
    }
  }
  EXPECT_TRUE(saw_marker);
}

}  // namespace
}  // namespace cosparse::tools
