// cosparse-lint golden-findings tests: each seeded defect class must be
// detected with the right finding id, severity and source location, and a
// clean plan (the shipped quickstart defaults) must pass with exit 0.
#include "cosparse_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../common/temp_path.h"
namespace cosparse::tools {
namespace {

using verify::Finding;
using verify::LintReport;
using verify::Severity;

const Finding* find_id(const LintReport& r, const std::string& id) {
  const auto it =
      std::find_if(r.findings().begin(), r.findings().end(),
                   [&](const Finding& f) { return f.id == id; });
  return it == r.findings().end() ? nullptr : &*it;
}

LintReport lint(const std::string& text) {
  return verify::lint_plan_json(Json::parse(text), "crafted");
}

// The shipped examples/plans/quickstart.plan.json content.
constexpr const char* kQuickstartPlan = R"({
  "schema": "cosparse.run_plan/v1",
  "name": "quickstart",
  "system": {"num_tiles": 4, "pes_per_tile": 8},
  "dataset": {"vertices": 20000, "edges": 200000},
  "kernel": {"sw": "auto", "hw": "auto", "vblocked": true}
})";

TEST(CosparseLint, QuickstartDefaultsPassClean) {
  const LintReport r = lint(kQuickstartPlan);
  EXPECT_TRUE(r.clean()) << r.to_json().dump(2);
}

// ---- seeded defect class 1: illegal OP+SCS pair ----
TEST(CosparseLint, DetectsIllegalOpScsPair) {
  const LintReport r = lint(R"({
    "schema": "cosparse.run_plan/v1",
    "dataset": {"vertices": 1000, "edges": 8000},
    "kernel": {"sw": "OP", "hw": "SCS"}
  })");
  const Finding* f = find_id(r, "config.illegal-pair");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->location.kind, "config_field");
  EXPECT_EQ(f->location.name, "kernel.hw");
  EXPECT_FALSE(r.clean());
}

// ---- seeded defect class 2: overlapping explicit regions ----
TEST(CosparseLint, DetectsOverlappingRegions) {
  const LintReport r = lint(R"({
    "schema": "cosparse.run_plan/v1",
    "dataset": {"vertices": 1000, "edges": 8000},
    "regions": [
      {"label": "matrix.elems", "bytes": 8192, "base": 0},
      {"label": "vector.dense", "bytes": 8192, "base": 4096}
    ]
  })");
  const Finding* f = find_id(r, "address.overlap");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->location.kind, "region");
  EXPECT_EQ(f->location.name, "vector.dense");
  EXPECT_FALSE(r.clean());
}

// ---- seeded defect class 3: SPM overflow under PS ----
TEST(CosparseLint, DetectsSpmOverflowUnderPs) {
  const LintReport r = lint(R"({
    "schema": "cosparse.run_plan/v1",
    "system": {"num_tiles": 2, "pes_per_tile": 4},
    "dataset": {"vertices": 1000, "edges": 8000},
    "kernel": {"sw": "OP", "hw": "PS"},
    "regions": [
      {"label": "op.heap", "bytes": 6000, "scope": "per_pe", "spm": true}
    ]
  })");
  const Finding* f = find_id(r, "address.spm-overflow");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->location.name, "op.heap");
  EXPECT_FALSE(r.clean());
}

// ---- seeded defect class 4: decision-tree gap and overlap ----
TEST(CosparseLint, DetectsDecisionTreeGapAndOverlap) {
  const LintReport gap = lint(R"({
    "schema": "cosparse.run_plan/v1",
    "dataset": {"vertices": 1000, "edges": 8000},
    "decision_tree": {"rules": [
      {"node": "low", "sw": "OP", "hw": "PC",
       "density": {"lo": 0.0, "hi": 0.3}},
      {"node": "high", "sw": "IP", "hw": "SC",
       "density": {"lo": 0.6, "hi": null}}
    ]}
  })");
  const Finding* g = find_id(gap, "tree.gap");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, Severity::kError);
  EXPECT_FALSE(gap.clean());

  const LintReport overlap = lint(R"({
    "schema": "cosparse.run_plan/v1",
    "dataset": {"vertices": 1000, "edges": 8000},
    "decision_tree": {"rules": [
      {"node": "a", "sw": "OP", "hw": "PC",
       "density": {"lo": 0.0, "hi": 0.5}},
      {"node": "b", "sw": "IP", "hw": "SC",
       "density": {"lo": 0.4, "hi": null}}
    ]}
  })");
  const Finding* o = find_id(overlap, "tree.overlap");
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->severity, Severity::kError);
  EXPECT_EQ(o->location.kind, "tree_node");
  EXPECT_FALSE(overlap.clean());
}

TEST(CosparseLint, MalformedPlanBecomesFindingNotCrash) {
  const LintReport r = lint(R"({"schema": "cosparse.run_plan/v9"})");
  ASSERT_NE(find_id(r, "plan.malformed"), nullptr);
  EXPECT_FALSE(r.clean());
}

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

TEST(CosparseLintCli, CleanPlanExitsZero) {
  const auto path = write_temp("clean.plan.json", kQuickstartPlan);
  std::string text;
  EXPECT_EQ(run_cli({"plan", path}, &text), 0);
  EXPECT_NE(text.find("0 error(s)"), std::string::npos);
}

TEST(CosparseLintCli, ErrorsGateWithNonzeroExit) {
  const auto path = write_temp("bad.plan.json", R"({
    "schema": "cosparse.run_plan/v1",
    "dataset": {"vertices": 1000, "edges": 8000},
    "kernel": {"sw": "OP", "hw": "SCS"}
  })");
  std::string text;
  EXPECT_EQ(run_cli({"plan", path}, &text), 1);
  EXPECT_NE(text.find("config.illegal-pair"), std::string::npos);
}

TEST(CosparseLintCli, StrictPromotesWarningsToFailure) {
  // Unknown plan field: a warning, so default passes but --strict fails.
  const auto path = write_temp("warn.plan.json", R"({
    "schema": "cosparse.run_plan/v1",
    "dataset": {"vertices": 20000, "edges": 200000},
    "frobnicate": 1
  })");
  EXPECT_EQ(run_cli({"plan", path}, nullptr), 0);
  EXPECT_EQ(run_cli({"plan", path, "--strict"}, nullptr), 1);
}

TEST(CosparseLintCli, JsonOutputIsALintFindingsDocument) {
  const auto path = write_temp("clean2.plan.json", kQuickstartPlan);
  std::string text;
  EXPECT_EQ(run_cli({"plan", path, "--json"}, &text), 0);
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.find("schema")->as_string(), verify::kLintFindingsSchema);
  EXPECT_EQ(doc.find("tool")->as_string(), "cosparse-lint");
  EXPECT_EQ(doc.find("subcommand")->as_string(), "plan");
  const auto& subjects = doc.find("subjects")->items();
  ASSERT_EQ(subjects.size(), 1u);
  EXPECT_EQ(subjects[0].find("subject")->as_string(), "quickstart");
  ASSERT_NE(subjects[0].find("summary"), nullptr);
  ASSERT_NE(doc.find("summary"), nullptr);
  EXPECT_EQ(doc.find("summary")->find("errors")->as_int(), 0);
}

TEST(CosparseLintCli, ReportSubcommandValidatesRunReports) {
  const auto good = write_temp("good.report.json", R"({
    "schema": "cosparse.run_report/v1", "tool": "test"
  })");
  const auto bad = write_temp("bad.report.json", R"({
    "schema": "cosparse.run_report/v1", "tool": "test",
    "stats": {"l1_misses": 10},
    "tile_stats": [{"l1_misses": 1}]
  })");
  EXPECT_EQ(run_cli({"report", good}, nullptr), 0);
  std::string text;
  EXPECT_EQ(run_cli({"report", bad}, &text), 1);
  EXPECT_NE(text.find("report.tile-sum-mismatch"), std::string::npos);
}

TEST(CosparseLintCli, UsageErrors) {
  EXPECT_EQ(run_cli({}, nullptr), 2);
  EXPECT_EQ(run_cli({"plan", "/nonexistent/x.json"}, nullptr), 2);
  EXPECT_EQ(run_cli({"plan", "--bogus-flag"}, nullptr), 2);
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

TEST(CosparseLintCli, DeeplyNestedReportIsUnparseableNotACrash) {
  const auto deep = write_temp("deep.report.json", std::string(1000000, '['));
  std::string text;
  EXPECT_EQ(run_cli({"report", deep}, &text), 1);
  EXPECT_NE(text.find("error[report.unparseable]"), std::string::npos)
      << text;
}

TEST(CosparseLintCli, ReportOutWritesDocument) {
  const auto plan = write_temp("clean3.plan.json", kQuickstartPlan);
  const auto out_path = test::unique_temp_path("lint_report.json");
  EXPECT_EQ(run_cli({"plan", plan, "--report-out", out_path}, nullptr), 0);
  std::ifstream in(out_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  EXPECT_EQ(doc.find("schema")->as_string(), verify::kLintFindingsSchema);
}

// ---- --baseline: shared suppression across subcommands ----

constexpr const char* kIllegalPairPlan = R"({
  "schema": "cosparse.run_plan/v1",
  "dataset": {"vertices": 1000, "edges": 8000},
  "kernel": {"sw": "OP", "hw": "SCS"}
})";

TEST(CosparseLintCli, BaselineSuppressesKnownFindings) {
  const auto plan = write_temp("baselined.plan.json", kIllegalPairPlan);
  const auto baseline = write_temp("suppress.baseline.json", R"({
    "schema": "cosparse.lint_baseline/v1",
    "suppress": [{"pass": "config", "id": "config.illegal-pair"}]
  })");
  // Without the baseline the plan gates; with it the finding stays
  // visible (marked suppressed) but the exit code drops to 0.
  EXPECT_EQ(run_cli({"plan", plan}, nullptr), 1);
  std::string text;
  EXPECT_EQ(run_cli({"plan", plan, "--baseline", baseline}, &text), 0);
  EXPECT_NE(text.find("suppressed error[config.illegal-pair]"),
            std::string::npos);
  EXPECT_NE(text.find("1 suppressed"), std::string::npos);
}

TEST(CosparseLintCli, BaselineLocationNarrowsTheMatch) {
  const auto plan = write_temp("narrow.plan.json", kIllegalPairPlan);
  const auto wrong_loc = write_temp("narrow.baseline.json", R"({
    "schema": "cosparse.lint_baseline/v1",
    "suppress": [{"pass": "config", "id": "config.illegal-pair",
                  "location": "some.other.field"}]
  })");
  EXPECT_EQ(run_cli({"plan", plan, "--baseline", wrong_loc}, nullptr), 1);
}

TEST(CosparseLintCli, BadBaselineIsAUsageError) {
  const auto plan = write_temp("ok.plan.json", kQuickstartPlan);
  const auto bad = write_temp("bad.baseline.json", R"({"schema": "nope"})");
  EXPECT_EQ(run_cli({"plan", plan, "--baseline", bad}, nullptr), 2);
  EXPECT_EQ(run_cli({"plan", plan, "--baseline", "/nonexistent.json"},
                    nullptr),
            2);
}

TEST(CosparseLintCli, SuppressedFindingsAreMarkedInJson) {
  const auto plan = write_temp("marked.plan.json", kIllegalPairPlan);
  const auto baseline = write_temp("marked.baseline.json", R"({
    "schema": "cosparse.lint_baseline/v1",
    "suppress": [{"pass": "config", "id": "config.illegal-pair",
                  "location": "kernel.hw"}]
  })");
  std::string text;
  EXPECT_EQ(run_cli({"plan", plan, "--baseline", baseline, "--json"}, &text),
            0);
  const Json doc = Json::parse(text);
  const Json& subject = doc.find("subjects")->items()[0];
  EXPECT_GE(subject.find("summary")->find("suppressed")->as_int(), 1);
  bool saw_marker = false;
  for (const Json& f : subject.find("findings")->items()) {
    if (f.find("id")->as_string() == "config.illegal-pair") {
      const Json* sup = f.find("suppressed");
      saw_marker = sup != nullptr && sup->as_bool();
    }
  }
  EXPECT_TRUE(saw_marker);
}

}  // namespace
}  // namespace cosparse::tools
