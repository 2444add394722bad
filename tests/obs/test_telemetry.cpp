// Telemetry registry tests: interval-spec parsing, SLO rule grammar and
// watchdog triggering (including the no-progress timeout), snapshot
// cadence under an injected clock, the JSONL sink's golden line, and the
// session writing its final snapshot before finalize() returns.
#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "../common/temp_path.h"
#include "common/error.h"

namespace cosparse::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---- interval specs ----

TEST(TelemetryConfig, ParsesIterationAndWallClockSpecs) {
  EXPECT_FALSE(TelemetryConfig::parse("").enabled);
  EXPECT_FALSE(TelemetryConfig::parse("   ").enabled);

  const TelemetryConfig plain = TelemetryConfig::parse("100");
  EXPECT_TRUE(plain.enabled);
  EXPECT_EQ(plain.every_iterations, 100u);
  EXPECT_DOUBLE_EQ(plain.every_ms, 0.0);

  const TelemetryConfig iters = TelemetryConfig::parse("5i");
  EXPECT_EQ(iters.every_iterations, 5u);

  const TelemetryConfig ms = TelemetryConfig::parse("250ms");
  EXPECT_DOUBLE_EQ(ms.every_ms, 250.0);
  EXPECT_EQ(ms.every_iterations, 0u);

  const TelemetryConfig secs = TelemetryConfig::parse("2s");
  EXPECT_DOUBLE_EQ(secs.every_ms, 2000.0);
}

TEST(TelemetryConfig, RejectsMalformedSpecs) {
  EXPECT_THROW(TelemetryConfig::parse("abc"), Error);
  EXPECT_THROW(TelemetryConfig::parse("5x"), Error);
  EXPECT_THROW(TelemetryConfig::parse("-3"), Error);
  EXPECT_THROW(TelemetryConfig::parse("0"), Error);
  EXPECT_THROW(TelemetryConfig::parse("2.5i"), Error);  // fractional cadence
}

// ---- SLO rule grammar ----

TEST(SloRule, ParsesStatMetricOpThreshold) {
  const SloRule r = parse_slo_rule("p99.engine.iteration_ms<5");
  EXPECT_EQ(r.stat, "p99");
  EXPECT_EQ(r.metric, "engine.iteration_ms");  // dots in metric names ok
  EXPECT_EQ(r.op, "<");
  EXPECT_DOUBLE_EQ(r.threshold, 5.0);

  const SloRule ge = parse_slo_rule(" mean.sim.replay_ms >= 0.25 ");
  EXPECT_EQ(ge.stat, "mean");
  EXPECT_EQ(ge.metric, "sim.replay_ms");
  EXPECT_EQ(ge.op, ">=");
  EXPECT_DOUBLE_EQ(ge.threshold, 0.25);
}

TEST(SloRule, ParsesNoProgressPseudoMetric) {
  const SloRule r = parse_slo_rule("no_progress_ms<5000");
  EXPECT_TRUE(r.stat.empty());
  EXPECT_EQ(r.metric, "no_progress_ms");
  EXPECT_DOUBLE_EQ(r.threshold, 5000.0);
}

TEST(SloRule, RejectsMalformedRules) {
  EXPECT_THROW(parse_slo_rule("p99.iteration_ms"), Error);     // no op
  EXPECT_THROW(parse_slo_rule("p42.metric<5"), Error);         // bad stat
  EXPECT_THROW(parse_slo_rule("iteration_ms<5"), Error);       // no stat
  EXPECT_THROW(parse_slo_rule("p99.metric<fast"), Error);      // bad number
  EXPECT_THROW(parse_slo_rule("<5"), Error);                   // empty lhs
}

TEST(SloRule, ParsesCommaSeparatedLists) {
  const auto rules =
      parse_slo_rules("p99.a<1, no_progress_ms<500 ,count.b>=2");
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].metric, "a");
  EXPECT_EQ(rules[1].metric, "no_progress_ms");
  EXPECT_EQ(rules[2].stat, "count");
  EXPECT_TRUE(parse_slo_rules("").empty());
}

// ---- watchdog ----

TelemetrySnapshot snapshot_with(const std::string& metric, double value,
                                std::uint64_t seq, double wall_ms,
                                std::uint64_t iterations) {
  StreamingHistogram h;
  h.observe(value);
  TelemetrySnapshot snap;
  snap.seq = seq;
  snap.wall_ms = wall_ms;
  snap.iterations = iterations;
  snap.hist.emplace_back(metric, h.summary());
  return snap;
}

TEST(SloWatchdog, TripsWhenAStatBreaksItsBound) {
  SloWatchdog dog;
  dog.add_rule(parse_slo_rule("max.iteration_ms<5"));
  EXPECT_TRUE(dog.evaluate(snapshot_with("iteration_ms", 2.0, 0, 1, 1)).empty());
  EXPECT_FALSE(dog.tripped());

  const auto v = dog.evaluate(snapshot_with("iteration_ms", 9.0, 1, 2, 2));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].seq, 1u);
  EXPECT_DOUBLE_EQ(v[0].observed, 9.0);
  EXPECT_DOUBLE_EQ(v[0].threshold, 5.0);
  EXPECT_TRUE(dog.tripped());
  EXPECT_EQ(dog.violations().size(), 1u);
}

TEST(SloWatchdog, SkipsRulesWithNoDataYet) {
  SloWatchdog dog;
  dog.add_rule(parse_slo_rule("p99.absent_metric<1"));
  EXPECT_TRUE(dog.evaluate(snapshot_with("other", 100.0, 0, 1, 1)).empty());
  EXPECT_FALSE(dog.tripped());
}

TEST(SloWatchdog, NoProgressTimeoutFiresOnlyWhileIterationsStall) {
  SloWatchdog dog;
  dog.add_rule(parse_slo_rule("no_progress_ms<100"));
  // First snapshot establishes the progress baseline.
  EXPECT_TRUE(dog.evaluate(snapshot_with("m", 1.0, 0, 0.0, 5)).empty());
  // 150 ms later with the same iteration count: stalled.
  const auto v = dog.evaluate(snapshot_with("m", 1.0, 1, 150.0, 5));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0].observed, 150.0);
  // Progress resumes: the stall clock resets.
  EXPECT_TRUE(dog.evaluate(snapshot_with("m", 1.0, 2, 200.0, 6)).empty());
}

// ---- cadence (injected clock) ----

TEST(Telemetry, IterationCadenceSnapshotsEveryNthTick) {
  Telemetry t(TelemetryConfig::parse("2i"), [] { return 0.0; });
  t.histogram("m").observe(1.0);
  for (std::uint64_t i = 1; i <= 5; ++i) t.tick(i);
  EXPECT_EQ(t.snapshots_taken(), 2u);  // at iterations 2 and 4
  t.flush();                           // end-of-run snapshot is unconditional
  EXPECT_EQ(t.snapshots_taken(), 3u);
  EXPECT_EQ(t.last_iterations(), 5u);
}

TEST(Telemetry, WallClockCadenceFollowsTheInjectedClock) {
  double now = 0.0;
  Telemetry t(TelemetryConfig::parse("100ms"), [&now] { return now; });
  t.histogram("m").observe(1.0);
  t.tick(1);  // 0 ms since the (implicit) last snapshot at 0: not due
  EXPECT_EQ(t.snapshots_taken(), 0u);
  now = 120.0;
  t.tick(2);
  EXPECT_EQ(t.snapshots_taken(), 1u);
  now = 170.0;
  t.tick(3);  // only 50 ms since the snapshot at 120
  EXPECT_EQ(t.snapshots_taken(), 1u);
  now = 230.0;
  t.tick(4);
  EXPECT_EQ(t.snapshots_taken(), 2u);
}

TEST(Telemetry, DisabledCadenceStillRecordsHistograms) {
  Telemetry t;  // no interval: bench binaries use this to harvest sums
  EXPECT_FALSE(t.enabled());
  t.histogram("m").observe(3.0);
  t.tick(1);
  t.flush();
  EXPECT_EQ(t.snapshots_taken(), 0u);
  ASSERT_NE(t.find_histogram("m"), nullptr);
  EXPECT_EQ(t.find_histogram("m")->count(), 1u);
  // A disabled tick must not self-report overhead either.
  EXPECT_EQ(t.find_histogram("telemetry.overhead_ms"), nullptr);
}

TEST(Telemetry, OverheadIsSelfReportedOnEveryEnabledTick) {
  Telemetry t(TelemetryConfig::parse("1i"), [] { return 0.0; });
  t.histogram("m").observe(1.0);
  t.tick(1);
  t.tick(2);
  const StreamingHistogram* overhead =
      t.find_histogram("telemetry.overhead_ms");
  ASSERT_NE(overhead, nullptr);
  EXPECT_EQ(overhead->count(), 2u);
}

// ---- the JSONL sink (fixed clock) ----

TEST(TelemetrySink, JsonlSnapshotMatchesGolden) {
  std::ostringstream jsonl;
  TelemetryConfig cfg;
  cfg.enabled = true;
  Telemetry t(cfg, [] { return 12.5; });
  t.set_header("tool", "test");
  t.set_jsonl_sink(&jsonl);
  t.histogram("lat_ms").observe(2.5);
  t.flush();
  EXPECT_EQ(jsonl.str(),
            "{\"schema\":\"cosparse.telemetry/v1\",\"seq\":0,"
            "\"wall_ms\":12.5,\"iterations\":0,"
            "\"header\":{\"tool\":\"test\"},"
            "\"hist\":{\"lat_ms\":{\"count\":1,\"sum\":2.5,\"min\":2.5,"
            "\"max\":2.5,\"p50\":2.5,\"p90\":2.5,\"p99\":2.5,"
            "\"p999\":2.5}}}\n");
}

TEST(TelemetrySession, FinalizeLeavesEverySnapshotInTheJsonlFile) {
  const std::string jsonl_path = test::unique_temp_path("session.jsonl");
  CliParser cli("unit", "telemetry session test");
  TelemetrySession::add_cli_options(cli);
  const std::string out_arg = "--telemetry-out=" + jsonl_path;
  const char* argv[] = {"unit", "--telemetry-interval=2i", out_arg.c_str()};
  ASSERT_TRUE(cli.parse(3, argv));

  TelemetrySession session;
  session.init(cli, "unit");
  ASSERT_TRUE(session.armed());
  Telemetry& t = *session.telemetry();
  for (std::uint64_t i = 1; i <= 5; ++i) {
    t.histogram("m").observe(static_cast<double>(i));
    t.tick(i);
  }
  EXPECT_EQ(session.finalize(), 0);

  // Snapshots at iterations 2 and 4, plus the final one finalize() takes.
  const Json report = t.report_json();
  EXPECT_EQ(report.find("snapshots")->as_int(), 3);
  std::istringstream in(read_file(jsonl_path));
  std::int64_t lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    EXPECT_EQ(Json::parse(line).find("seq")->as_int(), lines);
  }
  EXPECT_EQ(lines, report.find("snapshots")->as_int());
  std::remove(jsonl_path.c_str());
}

// ---- snapshots omit unused histograms; report_json shape ----

TEST(Telemetry, SnapshotsSkipHistogramsWithNoSamples) {
  std::ostringstream jsonl;
  TelemetryConfig cfg;
  cfg.enabled = true;
  Telemetry t(cfg, [] { return 1.0; });
  t.set_jsonl_sink(&jsonl);
  t.histogram("used").observe(1.0);
  t.histogram("unused");  // created but never observed
  t.flush();
  const Json snap = Json::parse(jsonl.str());
  ASSERT_NE(snap.find("hist"), nullptr);
  EXPECT_NE(snap.find("hist")->find("used"), nullptr);
  EXPECT_EQ(snap.find("hist")->find("unused"), nullptr);
}

TEST(Telemetry, ReportJsonCarriesHeaderSnapshotsAndSloVerdict) {
  SloWatchdog dog;
  dog.add_rule(parse_slo_rule("max.m<1"));
  Telemetry t(TelemetryConfig::parse("1i"), [] { return 0.0; });
  t.set_header("tool", "unit");
  t.set_watchdog(&dog);
  t.histogram("m").observe(5.0);
  t.tick(1);  // snapshot 0: max.m = 5 >= 1 -> violation
  const Json rep = t.report_json();
  EXPECT_EQ(rep.find("schema")->as_string(), "cosparse.telemetry/v1");
  EXPECT_TRUE(rep.find("enabled")->as_bool());
  EXPECT_EQ(rep.find("header")->find("tool")->as_string(), "unit");
  EXPECT_EQ(rep.find("snapshots")->as_int(), 1);
  ASSERT_NE(rep.find("slo"), nullptr);
  EXPECT_TRUE(rep.find("slo")->find("tripped")->as_bool());
  ASSERT_NE(rep.find("hist")->find("m"), nullptr);
}

}  // namespace
}  // namespace cosparse::obs
