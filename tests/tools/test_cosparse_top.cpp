// cosparse-top renderer tests: parse_snapshots on well-formed / torn
// streams and the dashboard layout (header echo, metric table, per-tile
// bars, SLO lines) on crafted snapshots, plus the CLI's exit codes.
#include "cosparse_top.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "../common/temp_path.h"

namespace cosparse::tools {
namespace {

const char* kTwoSnapshots =
    R"({"schema":"cosparse.telemetry/v1","seq":0,"wall_ms":100,"iterations":4,)"
    R"("header":{"tool":"unit","sim_threads":2},)"
    R"("hist":{"engine.iteration_ms":{"count":4,"sum":8,"min":1,"max":3,)"
    R"("p50":2,"p90":3,"p99":3,"p999":3}}})"
    "\n"
    R"({"schema":"cosparse.telemetry/v1","seq":1,"wall_ms":300,"iterations":8,)"
    R"("header":{"tool":"unit","sim_threads":2},)"
    R"("hist":{"engine.iteration_ms":{"count":8,"sum":20,"min":1,"max":5,)"
    R"("p50":2,"p90":4,"p99":5,"p999":5}},)"
    R"("extra":{"tile_busy_cycles":[100,50,0,100],"hw":"SC",)"
    R"("load_imbalance":1.6},)"
    R"("slo_violations":[{"seq":1,"rule":"p99.engine.iteration_ms<1",)"
    R"("observed":5,"threshold":1,)"
    R"("message":"SLO violated at snapshot 1: p99.engine.iteration_ms<1"}]})"
    "\n";

TEST(CosparseTop, ParsesCompleteLinesAndSkipsTornOnes) {
  const auto snaps = parse_snapshots(std::string(kTwoSnapshots) +
                                     R"({"schema":"cosparse.telem)");  // torn
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].find("seq")->as_int(), 0);
  EXPECT_EQ(snaps[1].find("seq")->as_int(), 1);
}

TEST(CosparseTop, EmptyStreamRendersWaitingPlaceholder) {
  std::ostringstream os;
  render_dashboard(os, parse_snapshots(""));
  EXPECT_NE(os.str().find("waiting for snapshots"), std::string::npos);
}

TEST(CosparseTop, DashboardShowsHeaderProgressAndRates) {
  std::ostringstream os;
  render_dashboard(os, parse_snapshots(kTwoSnapshots));
  const std::string out = os.str();
  EXPECT_NE(out.find("tool=unit"), std::string::npos);
  EXPECT_NE(out.find("sim_threads=2"), std::string::npos);
  EXPECT_NE(out.find("snapshot #1"), std::string::npos);
  // 4 iterations over 200 ms between the snapshots -> 20 it/s.
  EXPECT_NE(out.find("20.0 it/s"), std::string::npos);
  EXPECT_NE(out.find("engine.iteration_ms"), std::string::npos);
}

TEST(CosparseTop, DashboardRendersTileBarsAndSlo) {
  std::ostringstream os;
  render_dashboard(os, parse_snapshots(kTwoSnapshots));
  const std::string out = os.str();
  EXPECT_NE(out.find("tile 0"), std::string::npos);
  EXPECT_NE(out.find("tile 3"), std::string::npos);
  EXPECT_NE(out.find("hw=SC"), std::string::npos);
  // Tile 0 is at max busy: a full 40-char bar. Tile 2 is idle: empty.
  EXPECT_NE(out.find(std::string(40, '#')), std::string::npos);
  EXPECT_NE(out.find("|" + std::string(40, ' ') + "|"), std::string::npos);
  EXPECT_NE(out.find("SLO violations (1)"), std::string::npos);
  EXPECT_NE(out.find("p99.engine.iteration_ms<1"), std::string::npos);
}

TEST(CosparseTop, SingleSnapshotOmitsRates) {
  const std::string one =
      R"({"schema":"cosparse.telemetry/v1","seq":0,"wall_ms":1,)"
      R"("iterations":1,"header":{},"hist":{}})" "\n";
  std::ostringstream os;
  render_dashboard(os, parse_snapshots(one));
  EXPECT_EQ(os.str().find("it/s"), std::string::npos);
  EXPECT_NE(os.str().find("no metrics yet"), std::string::npos);
}

TEST(CosparseTop, NarrowWidthTruncatesInsteadOfWrapping) {
  // A 48-column terminal: every rendered line fits, the busy bars shrink
  // (48 - 24 = 24 chars), and the percentile table is clipped rather than
  // wrapped — a wrapped line would tear the --follow repaint.
  std::ostringstream os;
  render_dashboard(os, parse_snapshots(kTwoSnapshots), 48);
  std::istringstream lines(os.str());
  std::string line;
  bool saw_tile_bar = false;
  while (std::getline(lines, line)) {
    EXPECT_LE(line.size(), 48u) << "line: " << line;
    if (line.rfind("  tile 0", 0) == 0) {
      saw_tile_bar = true;
      // Tile 0 is at max busy: a full but narrowed bar.
      EXPECT_NE(line.find(std::string(24, '#')), std::string::npos) << line;
      EXPECT_EQ(line.find(std::string(40, '#')), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_tile_bar);
  // The content survives truncation: header and metric names still show.
  EXPECT_NE(os.str().find("tool=unit"), std::string::npos);
  EXPECT_NE(os.str().find("engine.iteration_ms"), std::string::npos);
}

TEST(CosparseTop, VeryNarrowWidthClampsBarsToAMinimum) {
  // Below 32 columns the bars clamp at 8 chars instead of vanishing.
  std::ostringstream os;
  render_dashboard(os, parse_snapshots(kTwoSnapshots), 20);
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_LE(line.size(), 20u) << "line: " << line;
  }
  EXPECT_NE(os.str().find(std::string(8, '#')), std::string::npos);
}

TEST(CosparseTop, ZeroWidthMeansUnlimited) {
  // width 0 (piped output, or --width 0) renders the classic full-width
  // frame byte-for-byte.
  std::ostringstream wide, classic;
  render_dashboard(wide, parse_snapshots(kTwoSnapshots), 0);
  render_dashboard(classic, parse_snapshots(kTwoSnapshots));
  EXPECT_EQ(wide.str(), classic.str());
  EXPECT_NE(wide.str().find(std::string(40, '#')), std::string::npos);
}

TEST(CosparseTop, MainAcceptsWidthOption) {
  const std::string path = test::unique_temp_path("cosparse_top_w.jsonl");
  {
    std::ofstream out(path);
    out << kTwoSnapshots;
  }
  std::ostringstream out, err;
  const char* argv[] = {"cosparse-top", path.c_str(), "--width", "48"};
  EXPECT_EQ(top_main(4, argv, out, err), 0);
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_LE(line.size(), 48u) << "line: " << line;
  }
  std::ostringstream out2, err2;
  const char* bad[] = {"cosparse-top", path.c_str(), "--width", "-3"};
  EXPECT_EQ(top_main(4, bad, out2, err2), 2);
}

TEST(CosparseTop, MainRendersAFileOnce) {
  const std::string path = test::unique_temp_path("cosparse_top_in.jsonl");
  {
    std::ofstream out(path);
    out << kTwoSnapshots;
  }
  std::ostringstream out, err;
  const char* argv[] = {"cosparse-top", path.c_str()};
  EXPECT_EQ(top_main(2, argv, out, err), 0);
  EXPECT_NE(out.str().find("cosparse-top"), std::string::npos);
  // One-shot mode paints no ANSI clear sequences.
  EXPECT_EQ(out.str().find("\x1b["), std::string::npos);
}

TEST(CosparseTop, MainFollowModeRepaintsBoundedFrames) {
  const std::string path = test::unique_temp_path("cosparse_top_f.jsonl");
  {
    std::ofstream out(path);
    out << kTwoSnapshots;
  }
  std::ostringstream out, err;
  const char* argv[] = {"cosparse-top", path.c_str(),     "--follow",
                        "--frames",     "2",              "--refresh-ms",
                        "1"};
  EXPECT_EQ(top_main(7, argv, out, err), 0);
  // Two frames, each starting with the home+clear escape.
  std::size_t clears = 0;
  for (std::size_t at = out.str().find("\x1b[H\x1b[2J");
       at != std::string::npos; at = out.str().find("\x1b[H\x1b[2J", at + 1)) {
    ++clears;
  }
  EXPECT_EQ(clears, 2u);
}

TEST(CosparseTop, MainRejectsBadUsage) {
  std::ostringstream out, err;
  const char* no_file[] = {"cosparse-top"};
  EXPECT_EQ(top_main(1, no_file, out, err), 2);
  const char* bad_opt[] = {"cosparse-top", "x.jsonl", "--bogus"};
  EXPECT_EQ(top_main(3, bad_opt, out, err), 2);
  const char* missing[] = {"cosparse-top", "/nonexistent/t.jsonl"};
  EXPECT_EQ(top_main(2, missing, out, err), 2);
}

}  // namespace
}  // namespace cosparse::tools
