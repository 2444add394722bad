// Differential harness: host thread counts never reach the simulator.
//
// The oracle is the full run report: make_run_report() serializes every
// observable of a run — cycle counts, global and per-tile Stats, derived
// rates, the region-attributed memory profile and the decision audit
// trail — so byte-equality of the serialized report between a
// sim_threads = 0 engine and one asking for N threads is the strongest
// check we can make. The simulator is serial (Machine::for_tiles,
// DESIGN.md §11); these tests enforce that `sim_threads` cannot change a
// sim-mode result, for every sw/hw configuration pair and a spread of
// thread counts, including under the full auto-reconfiguring decision
// flow.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

#include "kernels/semiring.h"
#include "runtime/engine.h"
#include "runtime/report.h"
#include "sim/machine.h"
#include "sim/profile.h"
#include "sparse/generate.h"

namespace cosparse {
namespace {

using kernels::PlainSpmv;
using runtime::Engine;
using runtime::EngineOptions;
using runtime::SwConfig;

constexpr Index kDim = 600;
constexpr std::uint64_t kNnz = 7200;

sparse::Coo test_matrix() {
  return sparse::uniform_random(kDim, kDim, kNnz, 11,
                                sparse::ValueDist::kUniform01);
}

/// Pinned-configuration engine run -> serialized run report. `threads = 0`
/// asks for no host threads even when COSPARSE_SIM_THREADS is set, so the
/// reference leg of every comparison requests no parallelism at all.
std::string pinned_report(SwConfig sw, sim::HwConfig hw,
                          std::uint32_t threads) {
  EngineOptions opts;
  opts.sw_reconfig = false;
  opts.hw_reconfig = false;
  opts.fixed_sw = sw;
  opts.fixed_hw = hw;
  opts.sim_threads = threads;
  Engine eng(test_matrix(), sim::SystemConfig::transmuter(4, 4), opts);
  sim::MemProfiler prof;
  eng.machine().set_profiler(&prof);
  int iter = 0;
  for (const double density : {0.004, 0.05, 0.6}) {
    const auto x = sparse::random_sparse_vector(kDim, density, 23 + iter++);
    eng.spmv(Engine::Frontier::from_sparse(x), PlainSpmv{});
  }
  return runtime::make_run_report(eng, "differential").to_string();
}

/// Auto-deciding engine run (sw + hw reconfiguration enabled) across a
/// density ramp that crosses the IP/OP decision boundary, so the sequence
/// includes kernel switches, frontier conversions and hardware
/// reconfigurations (cache flushes).
std::string auto_report(std::uint32_t threads) {
  EngineOptions opts;
  opts.sim_threads = threads;
  Engine eng(test_matrix(), sim::SystemConfig::transmuter(4, 4), opts);
  sim::MemProfiler prof;
  eng.machine().set_profiler(&prof);
  int iter = 0;
  for (const double density : {0.0008, 0.003, 0.03, 0.3, 0.9, 0.02, 0.001}) {
    const auto x = sparse::random_sparse_vector(kDim, density, 31 + iter++);
    eng.spmv(Engine::Frontier::from_sparse(x), PlainSpmv{});
  }
  return runtime::make_run_report(eng, "differential").to_string();
}

using ConfigPair = std::pair<SwConfig, sim::HwConfig>;
using Params = std::tuple<ConfigPair, std::uint32_t>;

class DifferentialHarness : public ::testing::TestWithParam<Params> {};

TEST_P(DifferentialHarness, RunReportBitIdenticalToSerial) {
  const auto [cfg, threads] = GetParam();
  const std::string serial = pinned_report(cfg.first, cfg.second, 0);
  const std::string parallel = pinned_report(cfg.first, cfg.second, threads);
  EXPECT_EQ(serial, parallel)
      << "parallel run with " << threads
      << " thread(s) diverged from the serial engine";
}

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  const ConfigPair cfg = std::get<0>(info.param);
  std::string name = cfg.first == SwConfig::kIP ? "IP" : "OP";
  name += sim::to_string(cfg.second);
  name += "x" + std::to_string(std::get<1>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, DifferentialHarness,
    ::testing::Combine(
        ::testing::Values(ConfigPair{SwConfig::kIP, sim::HwConfig::kSC},
                          ConfigPair{SwConfig::kIP, sim::HwConfig::kSCS},
                          ConfigPair{SwConfig::kOP, sim::HwConfig::kPC},
                          ConfigPair{SwConfig::kOP, sim::HwConfig::kPS}),
        ::testing::Values(1u, 2u, 8u)),
    param_name);

TEST(DifferentialHarnessAuto, ReconfiguringSequenceBitIdenticalToSerial) {
  const std::string serial = auto_report(0);
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(serial, auto_report(threads)) << threads << " thread(s)";
  }
}

TEST(DifferentialHarnessAuto, ThreadCountsAgreeWithEachOther) {
  // Transitivity safety net: 2 and 8 threads must also match each other
  // (they do if both match serial, but a direct check localizes failures).
  EXPECT_EQ(auto_report(2), auto_report(8));
}

}  // namespace
}  // namespace cosparse
