// Telemetry bit-neutrality harness.
//
// Telemetry reads wall clocks and simulator state but never writes back
// into the simulation, so the simulated-results subset of a run report —
// everything except the wall-clock-bearing "telemetry" section — must be
// byte-identical between a telemetry-on and a telemetry-off run of the
// same workload, for every sim_threads setting. This is the
// same `obs::results_subset` document `cosparse-prof extract` emits and
// the CI byte-compare diffs; these tests enforce the guarantee in-process.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/semiring.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "runtime/engine.h"
#include "runtime/report.h"
#include "sim/machine.h"
#include "sparse/generate.h"

namespace cosparse {
namespace {

using kernels::PlainSpmv;
using runtime::Engine;
using runtime::EngineOptions;

constexpr Index kDim = 500;
constexpr std::uint64_t kNnz = 6000;

sparse::Coo test_matrix() {
  return sparse::uniform_random(kDim, kDim, kNnz, 17,
                                sparse::ValueDist::kUniform01);
}

/// Auto-deciding engine run across a density ramp (kernel switches,
/// frontier conversions, hw reconfigurations) with an optional telemetry
/// registry attached. Returns the full run-report document.
Json run_report(obs::Telemetry* telemetry, std::uint32_t threads,
                native::ExecMode mode = native::ExecMode::kSim) {
  EngineOptions opts;
  opts.sim_threads = threads;
  opts.telemetry = telemetry;
  opts.exec_mode = mode;
  Engine eng(test_matrix(), sim::SystemConfig::transmuter(4, 4), opts);
  int iter = 0;
  for (const double density : {0.002, 0.03, 0.4, 0.9, 0.01}) {
    const auto x = sparse::random_sparse_vector(kDim, density, 41 + iter++);
    eng.spmv(Engine::Frontier::from_sparse(x), PlainSpmv{});
  }
  return runtime::make_run_report(eng, "telemetry_differential").root();
}

TEST(TelemetryDifferential, ResultsSubsetIsByteIdenticalWithTelemetryOn) {
  obs::Telemetry telemetry(obs::TelemetryConfig::parse("1i"));
  const Json on = run_report(&telemetry, 0);
  const Json off = run_report(nullptr, 0);

  // The instrumented run really did take snapshots and grow a telemetry
  // section — otherwise this test would compare two identical code paths.
  EXPECT_GT(telemetry.snapshots_taken(), 0u);
  EXPECT_NE(on.find("telemetry"), nullptr);
  EXPECT_EQ(off.find("telemetry"), nullptr);

  EXPECT_EQ(obs::results_subset(on).dump(1), obs::results_subset(off).dump(1));
}

TEST(TelemetryDifferential, ParallelEngineStaysBitNeutral) {
  // Host threads never reach the simulator; with telemetry on, every
  // for_tiles() call adds one wall-time sample. The serial telemetry-off
  // report is still the oracle.
  const Json off_serial = run_report(nullptr, 0);
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    obs::Telemetry telemetry(obs::TelemetryConfig::parse("1i"));
    const Json on = run_report(&telemetry, threads);
    EXPECT_EQ(obs::results_subset(on).dump(1),
              obs::results_subset(off_serial).dump(1))
        << threads << " thread(s)";
    // The machine-level instrumentation fired: per-phase wall times were
    // recorded.
    EXPECT_NE(telemetry.find_histogram("sim.phase_ms"), nullptr)
        << threads << " thread(s)";
  }
}

TEST(TelemetryDifferential, WallClockCadenceIsAlsoBitNeutral) {
  // Wall-clock cadence snapshots can fire at arbitrary points relative to
  // the simulation; the simulated results must not care.
  obs::Telemetry telemetry(obs::TelemetryConfig::parse("1ms"));
  const Json on = run_report(&telemetry, 2);
  const Json off = run_report(nullptr, 0);
  EXPECT_EQ(obs::results_subset(on).dump(1), obs::results_subset(off).dump(1));
}

/// The JSONL lines one engine run writes at a per-iteration cadence.
std::vector<Json> exported_lines(native::ExecMode mode,
                                 obs::SloWatchdog* watchdog) {
  std::stringstream jsonl;
  obs::Telemetry telemetry(obs::TelemetryConfig::parse("1i"));
  telemetry.set_jsonl_sink(&jsonl);
  telemetry.set_watchdog(watchdog);
  run_report(&telemetry, 0, mode);
  telemetry.flush();
  std::vector<Json> lines;
  for (std::string line; std::getline(jsonl, line);) {
    lines.push_back(Json::parse(line));
  }
  return lines;
}

std::set<std::string> keys_of(const Json& line) {
  std::set<std::string> keys;
  for (const auto& [key, value] : line.members()) keys.insert(key);
  return keys;
}

TEST(TelemetryDifferential, SnapshotLinesCarryHeaderAndHistogramsOnly) {
  // Per-tile state is run-level and lives in the report's tile_stats; an
  // engine snapshot line holds exactly the stream metadata and digests.
  const std::set<std::string> keys = {"schema",     "seq",    "wall_ms",
                                      "iterations", "header", "hist"};
  for (const auto mode : {native::ExecMode::kSim, native::ExecMode::kNative}) {
    const std::vector<Json> lines = exported_lines(mode, nullptr);
    ASSERT_GE(lines.size(), 6u) << native::to_string(mode);
    for (const Json& line : lines) {
      EXPECT_EQ(keys_of(line), keys) << line.dump();
      EXPECT_EQ(line.find("header")->find("exec_mode") != nullptr,
                mode == native::ExecMode::kNative);
    }
  }

  // A rule that fires on every snapshot adds slo_violations, nothing else.
  obs::SloWatchdog watchdog;
  watchdog.add_rule(obs::parse_slo_rule("max.engine.frontier_density<0"));
  std::set<std::string> violated = keys;
  violated.insert("slo_violations");
  const std::vector<Json> lines =
      exported_lines(native::ExecMode::kSim, &watchdog);
  ASSERT_FALSE(lines.empty());
  for (const Json& line : lines) EXPECT_EQ(keys_of(line), violated);
}

}  // namespace
}  // namespace cosparse
