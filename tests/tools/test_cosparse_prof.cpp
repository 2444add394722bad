// cosparse-prof diff/summarize logic on crafted report documents.
#include "cosparse_prof.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "../common/temp_path.h"
#include "common/error.h"

namespace cosparse::tools {
namespace {

Json report_with(std::int64_t cycles, std::int64_t l1_misses,
                 std::int64_t l2_misses, std::int64_t dram_read,
                 std::int64_t dram_write) {
  Json doc = Json::object();
  doc["schema"] = "cosparse.run_report/v1";
  doc["tool"] = "crafted";
  doc["totals"]["cycles"] = cycles;
  doc["stats"]["l1_misses"] = l1_misses;
  doc["stats"]["l2_misses"] = l2_misses;
  doc["stats"]["dram_read_bytes"] = dram_read;
  doc["stats"]["dram_write_bytes"] = dram_write;
  return doc;
}

TEST(ParseRegressLimit, AcceptsPercentAndFractionForms) {
  EXPECT_DOUBLE_EQ(parse_regress_limit("5%"), 0.05);
  EXPECT_DOUBLE_EQ(parse_regress_limit("5"), 0.05);
  EXPECT_DOUBLE_EQ(parse_regress_limit("12.5%"), 0.125);
  EXPECT_DOUBLE_EQ(parse_regress_limit("0.05x"), 0.05);
  EXPECT_DOUBLE_EQ(parse_regress_limit("0"), 0.0);
}

TEST(ParseRegressLimit, RejectsMalformedAndNegative) {
  EXPECT_THROW((void)parse_regress_limit(""), Error);
  EXPECT_THROW((void)parse_regress_limit("abc"), Error);
  EXPECT_THROW((void)parse_regress_limit("5%%"), Error);
  EXPECT_THROW((void)parse_regress_limit("5 percent"), Error);
  EXPECT_THROW((void)parse_regress_limit("-5%"), Error);
}

TEST(Diff, SelfDiffIsClean) {
  const Json doc = report_with(1000, 100, 50, 4096, 2048);
  const DiffResult r = diff_reports(doc, doc, DiffOptions{});
  EXPECT_FALSE(r.regressed);
  ASSERT_FALSE(r.rows.empty());
  for (const DiffRow& row : r.rows) {
    EXPECT_FALSE(row.regressed) << row.metric;
    EXPECT_DOUBLE_EQ(row.rel_change, 0.0) << row.metric;
  }
}

TEST(Diff, TenPercentWorseCyclesRegressesAtDefaultLimit) {
  const Json base = report_with(1000, 100, 50, 4096, 2048);
  const Json cand = report_with(1100, 100, 50, 4096, 2048);
  const DiffResult r = diff_reports(base, cand, DiffOptions{});
  EXPECT_TRUE(r.regressed);
  for (const DiffRow& row : r.rows) {
    if (row.metric == "cycles") {
      EXPECT_TRUE(row.regressed);
      EXPECT_NEAR(row.rel_change, 0.10, 1e-12);
    } else {
      EXPECT_FALSE(row.regressed) << row.metric;
    }
  }
}

TEST(Diff, WithinLimitPasses) {
  const Json base = report_with(1000, 100, 50, 4096, 2048);
  const Json cand = report_with(1040, 103, 51, 4100, 2100);  // all < 5%
  EXPECT_FALSE(diff_reports(base, cand, DiffOptions{}).regressed);
}

TEST(Diff, LimitIsConfigurable) {
  const Json base = report_with(1000, 100, 50, 4096, 2048);
  const Json cand = report_with(1100, 100, 50, 4096, 2048);  // +10% cycles
  DiffOptions loose;
  loose.max_regress = 0.15;
  EXPECT_FALSE(diff_reports(base, cand, loose).regressed);
  DiffOptions tight;
  tight.max_regress = 0.01;
  EXPECT_TRUE(diff_reports(base, cand, tight).regressed);
}

TEST(Diff, ImprovementNeverRegresses) {
  const Json base = report_with(1000, 100, 50, 4096, 2048);
  const Json cand = report_with(500, 10, 5, 1024, 512);
  EXPECT_FALSE(diff_reports(base, cand, DiffOptions{}).regressed);
}

TEST(Diff, DramBytesCombineReadAndWrite) {
  const Json base = report_with(1000, 100, 50, 4096, 2048);  // 6144 B
  // Reads shrink, writes balloon: combined +25% must gate.
  const Json cand = report_with(1000, 100, 50, 1024, 6656);  // 7680 B
  const DiffResult r = diff_reports(base, cand, DiffOptions{});
  EXPECT_TRUE(r.regressed);
  for (const DiffRow& row : r.rows) {
    if (row.metric == "dram_bytes") EXPECT_TRUE(row.regressed);
  }
}

TEST(Diff, MissingMetricsAreSkippedNotRegressed) {
  Json base = Json::object();
  base["totals"]["cycles"] = 1000;
  Json cand = Json::object();
  cand["stats"]["l1_misses"] = 100;  // disjoint metric sets
  const DiffResult r = diff_reports(base, cand, DiffOptions{});
  EXPECT_FALSE(r.regressed);
  EXPECT_TRUE(r.rows.empty());
}

TEST(Diff, ZeroBaselineWithGrowthRegresses) {
  const Json base = report_with(1000, 0, 50, 4096, 2048);
  const Json cand = report_with(1000, 7, 50, 4096, 2048);
  EXPECT_TRUE(diff_reports(base, cand, DiffOptions{}).regressed);
}

TEST(Diff, PerRegionMissesAreInformationalOnly) {
  Json base = report_with(1000, 100, 50, 4096, 2048);
  base["memory_profile"]["regions"]["matrix.elems"]["counters"]
      ["l1_misses"] = 10;
  Json cand = report_with(1000, 100, 50, 4096, 2048);
  cand["memory_profile"]["regions"]["matrix.elems"]["counters"]
      ["l1_misses"] = 100;  // 10x worse, but not a gated metric
  const DiffResult r = diff_reports(base, cand, DiffOptions{});
  EXPECT_FALSE(r.regressed);
  bool saw_region_row = false;
  for (const DiffRow& row : r.rows) {
    if (row.metric == "region:matrix.elems.l1_misses") {
      saw_region_row = true;
      EXPECT_FALSE(row.gated);
      EXPECT_NEAR(row.rel_change, 9.0, 1e-12);
    }
  }
  EXPECT_TRUE(saw_region_row);
}

std::string write_temp(const std::string& name, const Json& doc) {
  const std::string path = test::unique_temp_path(name);
  std::ofstream out(path);
  out << doc.dump(2);
  return path;
}

int run_main(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"cosparse-prof"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return prof_main(static_cast<int>(argv.size()), argv.data());
}

TEST(ProfMain, ExitCodesMatchDiffOutcome) {
  const std::string base =
      write_temp("prof_base.json", report_with(1000, 100, 50, 4096, 2048));
  const std::string worse =
      write_temp("prof_worse.json", report_with(1100, 100, 50, 4096, 2048));
  EXPECT_EQ(run_main({"diff", base, base}), 0);
  EXPECT_EQ(run_main({"diff", base, worse}), 1);
  EXPECT_EQ(run_main({"diff", base, worse, "--max-regress", "20%"}), 0);
  EXPECT_EQ(run_main({"diff", base, worse, "--max-regress=20%"}), 0);
}

TEST(ProfMain, UsageAndValidationErrors) {
  EXPECT_EQ(run_main({}), 2);                       // no subcommand
  EXPECT_EQ(run_main({"frobnicate"}), 2);           // unknown subcommand
  EXPECT_EQ(run_main({"diff", "only-one.json"}), 2);
  EXPECT_EQ(run_main({"diff", "a.json", "b.json", "--bogus"}), 2);
  EXPECT_EQ(run_main({"summarize", "/nonexistent/report.json"}), 1);
  EXPECT_EQ(run_main({"help"}), 0);
}

std::string write_text(const std::string& name, const std::string& text) {
  const std::string path = test::unique_temp_path(name);
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(SummarizeTelemetry, EmptyStreamSaysNoSnapshotsAndExitsZero) {
  // An empty (or not-yet-flushed) JSONL stream is a normal sight when
  // summarizing right after a run starts: report it, don't fail.
  std::ostringstream os;
  summarize_telemetry(os, "", "empty.jsonl");
  EXPECT_NE(os.str().find("(no snapshots)"), std::string::npos);

  const std::string path = write_text("prof_empty.jsonl", "");
  EXPECT_EQ(run_main({"summarize", "--telemetry", path}), 0);
}

TEST(SummarizeTelemetry, WhitespaceOnlyLinesCountAsEmpty) {
  std::ostringstream os;
  summarize_telemetry(os, "\n   \n\t\r\n", "blank.jsonl");
  EXPECT_NE(os.str().find("(no snapshots)"), std::string::npos);
}

TEST(SummarizeTelemetry, ZeroMetricSnapshotSaysNoMetrics) {
  // A cadence tick before any histogram observed anything: the snapshot
  // line renders, but with "(no metrics)" instead of an empty table.
  const std::string snap =
      R"({"schema":"cosparse.telemetry/v1","seq":0,"wall_ms":1,)"
      R"("iterations":0,"header":{"tool":"unit"},"hist":{}})" "\n";
  std::ostringstream os;
  summarize_telemetry(os, snap, "zero.jsonl");
  const std::string out = os.str();
  EXPECT_NE(out.find("snapshot 0"), std::string::npos);
  EXPECT_NE(out.find("(no metrics)"), std::string::npos);
  EXPECT_EQ(out.find("Δcount"), std::string::npos);  // no table header

  const std::string path = write_text("prof_zero.jsonl", snap);
  EXPECT_EQ(run_main({"summarize", "--telemetry", path}), 0);
}

TEST(SummarizeTelemetry, UnparseableLineThrowsWithLineNumber) {
  std::ostringstream os;
  try {
    summarize_telemetry(os, "{\"seq\":0}\n{torn", "torn.jsonl");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

const char* kFoldedA = "x.one;sym_a 50\nx.two;sym_b 50\n";
const char* kFoldedB = "x.one;sym_a 30\nx.two;sym_b 70\n";

TEST(ProfMain, FlameWritesHtmlAndPrintsPhases) {
  const std::string folded = write_text("prof_flame.folded", kFoldedA);
  const std::string html = test::unique_temp_path("prof_flame.html");
  EXPECT_EQ(run_main({"flame", folded, "--out", html}), 0);
  std::ifstream in(html);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("<svg"), std::string::npos);
  EXPECT_NE(buf.str().find("x.one"), std::string::npos);
}

TEST(ProfMain, FlameDefaultsToInputDotHtml) {
  const std::string folded = write_text("prof_flame_d.folded", kFoldedA);
  EXPECT_EQ(run_main({"flame", folded}), 0);
  std::ifstream in(folded + ".html");
  EXPECT_TRUE(in.good());
}

TEST(ProfMain, FlameUsageAndParseErrors) {
  EXPECT_EQ(run_main({"flame"}), 2);  // no input
  const std::string a = write_text("prof_fa.folded", kFoldedA);
  const std::string b = write_text("prof_fb.folded", kFoldedB);
  EXPECT_EQ(run_main({"flame", a, b}), 2);  // too many inputs
  EXPECT_EQ(run_main({"flame", a, "--bogus"}), 2);
  EXPECT_EQ(run_main({"flame", "/nonexistent/p.folded"}), 1);
  const std::string bad = write_text("prof_bad.folded", "no count here\n");
  EXPECT_EQ(run_main({"flame", bad}), 1);
}

TEST(ProfMain, FlameDiffExitCodesMatchShareGate) {
  const std::string a = write_text("prof_da.folded", kFoldedA);
  const std::string b = write_text("prof_db.folded", kFoldedB);
  // Self-diff is clean; a 20-point share swing trips the default 5%
  // gate and passes a loosened 25% one — the `diff` exit-code contract.
  EXPECT_EQ(run_main({"flamediff", a, a}), 0);
  EXPECT_EQ(run_main({"flamediff", a, b}), 1);
  EXPECT_EQ(run_main({"flamediff", a, b, "--max-regress", "25%"}), 0);
  EXPECT_EQ(run_main({"flamediff", a, b, "--max-regress=25%"}), 0);
}

TEST(ProfMain, FlameDiffUsageErrors) {
  const std::string a = write_text("prof_ua.folded", kFoldedA);
  EXPECT_EQ(run_main({"flamediff", a}), 2);              // one input
  EXPECT_EQ(run_main({"flamediff", a, a, a}), 2);        // three inputs
  EXPECT_EQ(run_main({"flamediff", a, a, "--bogus"}), 2);
  EXPECT_EQ(run_main({"flamediff", a, "/nonexistent/q.folded"}), 1);
}

TEST(Summarize, PrintsRegionAndDecisionTables) {
  Json doc = report_with(1000, 100, 50, 4096, 2048);
  Json& region = doc["memory_profile"]["regions"]["matrix.elems"];
  region["counters"]["l1_hits"] = 900;
  region["counters"]["l1_misses"] = 100;
  Json rec = Json::object();
  rec["invocation"] = 0;
  rec["sw"] = "IP";
  rec["hw"] = "SC";
  rec["cvd"] = 0.02;
  rec["features"]["vector_density"] = 0.5;
  doc["decision_audit"]["invocations"].push_back(std::move(rec));

  std::ostringstream os;
  summarize_report(os, doc, "crafted");
  const std::string text = os.str();
  EXPECT_NE(text.find("matrix.elems"), std::string::npos);
  EXPECT_NE(text.find("decision timeline"), std::string::npos);
  EXPECT_NE(text.find("IP/SC"), std::string::npos);
}

}  // namespace
}  // namespace cosparse::tools
