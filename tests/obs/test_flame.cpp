// Folded-profile tests: parsing (including error lines), phase-frame
// detection, leaf-phase aggregation, the phases JSON / HTML renderings,
// and both directions of the differential flame gate.
#include "obs/flame.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.h"

namespace cosparse::obs {
namespace {

const char* kFolded =
    "engine.spmv;kernel.ip;cosparse::kernels::run_inner_product 40\n"
    "engine.spmv;kernel.op;cosparse::kernels::run_outer_product 10\n"
    "engine.spmv;kernel.ip 5\n"
    "(untagged);main 45\n";

TEST(FoldedProfile, ParsesStacksAndTotals) {
  const FoldedProfile p = FoldedProfile::parse(kFolded);
  ASSERT_EQ(p.stacks.size(), 4u);
  EXPECT_EQ(p.total_samples, 100u);
  EXPECT_EQ(p.stacks[0].frames.size(), 3u);
  EXPECT_EQ(p.stacks[0].frames[0], "engine.spmv");
  EXPECT_EQ(p.stacks[0].frames[2], "cosparse::kernels::run_inner_product");
  EXPECT_EQ(p.stacks[0].count, 40u);
}

TEST(FoldedProfile, SkipsBlankLinesAndRejectsMalformedOnes) {
  const FoldedProfile p = FoldedProfile::parse("\n\na;b 3\n\n");
  EXPECT_EQ(p.total_samples, 3u);
  EXPECT_THROW((void)FoldedProfile::parse("no_trailing_count\n"), Error);
  EXPECT_THROW((void)FoldedProfile::parse("frame notanumber\n"), Error);
  EXPECT_THROW((void)FoldedProfile::parse("frame -4\n"), Error);
}

TEST(FoldedProfile, EmptyTextParsesToEmptyProfile) {
  const FoldedProfile p = FoldedProfile::parse("");
  EXPECT_TRUE(p.stacks.empty());
  EXPECT_EQ(p.total_samples, 0u);
  // Downstream consumers tolerate the empty profile.
  EXPECT_TRUE(phase_totals(p).empty());
  const std::string html = render_flamegraph_html(p, "empty");
  EXPECT_NE(html.find("<svg"), std::string::npos);
}

TEST(FoldedProfile, PhaseFrameDetection) {
  EXPECT_TRUE(is_phase_frame("engine.spmv"));
  EXPECT_TRUE(is_phase_frame("sim.exec"));
  EXPECT_TRUE(is_phase_frame("graph.bfs"));
  EXPECT_TRUE(is_phase_frame("(untagged)"));
  EXPECT_FALSE(is_phase_frame("main"));                // no dot
  EXPECT_FALSE(is_phase_frame("cosparse::sim::run"));  // symbol
  EXPECT_FALSE(is_phase_frame("Engine.Spmv"));         // uppercase
  EXPECT_FALSE(is_phase_frame("[libc.so.6]"));         // binary marker
  EXPECT_FALSE(is_phase_frame(""));
}

TEST(FoldedProfile, PhaseTotalsUseTheLeafPhaseOfEachStack) {
  const auto totals = phase_totals(FoldedProfile::parse(kFolded));
  // Leaf semantics: kernel.ip gets both its stacks (40 + 5); engine.spmv
  // gets nothing (it is never the deepest phase frame); the symbol-only
  // stack lands in "(untagged)".
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[0].first, "(untagged)");
  EXPECT_EQ(totals[0].second, 45u);
  EXPECT_EQ(totals[1].first, "kernel.ip");
  EXPECT_EQ(totals[1].second, 45u);
  EXPECT_EQ(totals[2].first, "kernel.op");
  EXPECT_EQ(totals[2].second, 10u);
}

TEST(FoldedProfile, PhasesJsonCarriesSamplesAndShares) {
  const Json phases = phases_json(FoldedProfile::parse(kFolded));
  ASSERT_TRUE(phases.is_object());
  const Json* ip = phases.find("kernel.ip");
  ASSERT_NE(ip, nullptr);
  EXPECT_EQ(ip->find("samples")->as_int(), 45);
  EXPECT_DOUBLE_EQ(ip->find("share")->as_double(), 0.45);
}

TEST(FoldedProfile, PhaseTableListsEveryPhase) {
  std::ostringstream os;
  print_phase_table(os, FoldedProfile::parse(kFolded));
  const std::string out = os.str();
  EXPECT_NE(out.find("kernel.ip"), std::string::npos);
  EXPECT_NE(out.find("kernel.op"), std::string::npos);
  EXPECT_NE(out.find("(untagged)"), std::string::npos);
}

TEST(FoldedProfile, FlamegraphHtmlIsSelfContained) {
  const std::string html =
      render_flamegraph_html(FoldedProfile::parse(kFolded), "unit profile");
  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("unit profile"), std::string::npos);
  // Frames appear as rects with <title> tooltips carrying counts.
  EXPECT_NE(html.find("kernel.ip"), std::string::npos);
  EXPECT_NE(html.find("<title>"), std::string::npos);
  // Self-contained: no external scripts, stylesheets or images (the SVG
  // xmlns URI is a namespace identifier, not a fetch).
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
  EXPECT_EQ(html.find("<img"), std::string::npos);
}

TEST(FoldedProfile, FlamegraphEscapesMarkupInFrames) {
  const std::string html = render_flamegraph_html(
      FoldedProfile::parse("a.phase;std::vector<int>::push_back 3\n"),
      "esc <b>");
  EXPECT_EQ(html.find("<int>"), std::string::npos);
  EXPECT_NE(html.find("&lt;int&gt;"), std::string::npos);
  EXPECT_EQ(html.find("<b>"), std::string::npos);
}

TEST(FlameDiff, SelfDiffNeverRegresses) {
  const FoldedProfile p = FoldedProfile::parse(kFolded);
  const FlameDiffResult r = diff_folded(p, p, 0.0);
  EXPECT_FALSE(r.regressed);
  for (const auto& row : r.rows) {
    EXPECT_DOUBLE_EQ(row.delta, 0.0);
    EXPECT_FALSE(row.regressed);
  }
}

TEST(FlameDiff, GatesOnShareGrowthBeyondTheLimit) {
  const FoldedProfile a = FoldedProfile::parse("x.one 50\nx.two 50\n");
  const FoldedProfile b = FoldedProfile::parse("x.one 30\nx.two 70\n");
  // x.two grew by 20 share points: regresses under a 5% limit...
  const FlameDiffResult tight = diff_folded(a, b, 0.05);
  EXPECT_TRUE(tight.regressed);
  ASSERT_EQ(tight.rows.size(), 2u);
  // Rows come sorted by |delta| (ties by name): both phases moved by the
  // same 20 points, so x.one leads and only the grower is flagged.
  EXPECT_EQ(tight.rows[0].phase, "x.one");
  bool saw_grower = false;
  for (const auto& row : tight.rows) {
    if (row.phase == "x.two") {
      saw_grower = true;
      EXPECT_NEAR(row.delta, 0.20, 1e-12);
      EXPECT_TRUE(row.regressed);
    }
  }
  EXPECT_TRUE(saw_grower);
  // ...but not under a 25% limit.
  EXPECT_FALSE(diff_folded(a, b, 0.25).regressed);
  // The shrinking phase itself is never flagged (only growth regresses).
  for (const auto& row : tight.rows) {
    if (row.phase == "x.one") {
      EXPECT_NEAR(row.delta, -0.20, 1e-12);
      EXPECT_FALSE(row.regressed);
    }
  }
}

TEST(FlameDiff, PhasesMissingFromOneSideCountAsZeroShare) {
  const FoldedProfile a = FoldedProfile::parse("x.old 100\n");
  const FoldedProfile b = FoldedProfile::parse("x.new 100\n");
  const FlameDiffResult r = diff_folded(a, b, 0.5);
  EXPECT_TRUE(r.regressed);  // x.new appeared at share 1.0 (> 0.5 growth)
  bool saw_old = false, saw_new = false;
  for (const auto& row : r.rows) {
    if (row.phase == "x.old") {
      saw_old = true;
      EXPECT_DOUBLE_EQ(row.share_b, 0.0);
      EXPECT_FALSE(row.regressed);  // disappearing is an improvement
    }
    if (row.phase == "x.new") {
      saw_new = true;
      EXPECT_DOUBLE_EQ(row.share_a, 0.0);
      EXPECT_TRUE(row.regressed);
    }
  }
  EXPECT_TRUE(saw_old && saw_new);
}

TEST(FlameDiff, PrintedDiffShowsVerdictPerRow) {
  const FoldedProfile a = FoldedProfile::parse("x.one 50\nx.two 50\n");
  const FoldedProfile b = FoldedProfile::parse("x.one 30\nx.two 70\n");
  std::ostringstream os;
  print_flame_diff(os, diff_folded(a, b, 0.05), 0.05);
  const std::string out = os.str();
  EXPECT_NE(out.find("x.two"), std::string::npos);
  EXPECT_NE(out.find("REGRESSED"), std::string::npos);
}

}  // namespace
}  // namespace cosparse::obs
