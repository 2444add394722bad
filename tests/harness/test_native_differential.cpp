// Differential harness for the native execution backend (DESIGN.md §14).
//
// The guarantee under test: an engine with exec_mode = native produces
// *byte-identical results* to the serial cycle-accurate simulator — same
// output values bit-for-bit, same touched sets, same per-iteration
// decisions, same audit trail — across every sw/hw configuration pair,
// both semirings, several dataset shapes, and native thread counts
// {1, 8}. The oracles are (a) a Digest over every output bit and (b) the
// functional subset of the run report (obs::functional_subset), which is
// exactly what the CI native quickstart gate byte-compares.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/digest.h"
#include "kernels/frontier.h"
#include "kernels/semiring.h"
#include "native/exec_mode.h"
#include "obs/report.h"
#include "runtime/engine.h"
#include "runtime/report.h"
#include "sparse/generate.h"

namespace cosparse {
namespace {

using kernels::PlainSpmv;
using kernels::SsspSemiring;
using runtime::Engine;
using runtime::EngineOptions;
using runtime::SwConfig;

constexpr Index kDim = 600;
constexpr std::uint64_t kNnz = 7200;

enum class Dataset { kUniform, kPowerLaw, kRmat };

const char* to_string(Dataset d) {
  switch (d) {
    case Dataset::kUniform: return "Uniform";
    case Dataset::kPowerLaw: return "PowerLaw";
    default: return "Rmat";
  }
}

sparse::Coo matrix_for(Dataset d) {
  switch (d) {
    case Dataset::kUniform:
      return sparse::uniform_random(kDim, kDim, kNnz, 11,
                                    sparse::ValueDist::kUniform01);
    case Dataset::kPowerLaw:
      return sparse::power_law(kDim, kDim, kNnz, 2.1, 12,
                               sparse::ValueDist::kUniform01);
    default:
      // R-MAT: 2^9 = 512 vertices, heavy hubs and dense columns.
      return sparse::rmat(9, kNnz / 2, 0.55, 0.2, 0.2, 13,
                          sparse::ValueDist::kUniform01);
  }
}

struct RunResult {
  std::string output_digest;  ///< every output bit of every iteration
  std::string functional;     ///< functional_subset of the run report
};

/// Pinned-configuration run: three frontiers spanning the density range.
/// The digest folds in each Output's touched rows and values in row
/// order, which is representation-independent across IP/OP.
template <kernels::Semiring S>
RunResult pinned_run(SwConfig sw, sim::HwConfig hw, native::ExecMode mode,
                     std::uint32_t threads, Dataset dataset, const S& sr) {
  EngineOptions opts;
  opts.sw_reconfig = false;
  opts.hw_reconfig = false;
  opts.fixed_sw = sw;
  opts.fixed_hw = hw;
  opts.sim_threads = threads;
  opts.exec_mode = mode;
  Engine eng(matrix_for(dataset), sim::SystemConfig::transmuter(4, 4), opts);
  Digest d;
  int iter = 0;
  const Index n = eng.dimension();
  for (const double density : {0.004, 0.05, 0.6}) {
    const auto x = sparse::random_sparse_vector(n, density, 23 + iter++);
    const auto out = eng.spmv(Engine::Frontier::from_sparse(x), sr);
    d.update_u64(out.num_touched());
    out.for_each_touched(
        [&d](Index r, Value v) { d.update_index(r); d.update_value(v); });
  }
  RunResult res;
  res.output_digest = d.hex();
  res.functional =
      obs::functional_subset(
          runtime::make_run_report(eng, "native_differential").root())
          .dump(1);
  return res;
}

using ConfigPair = std::pair<SwConfig, sim::HwConfig>;
using Params = std::tuple<ConfigPair, Dataset, std::uint32_t>;

class NativeDifferential : public ::testing::TestWithParam<Params> {};

TEST_P(NativeDifferential, NativeByteIdenticalToSerialSim) {
  const auto [cfg, dataset, threads] = GetParam();
  const RunResult sim = pinned_run(cfg.first, cfg.second,
                                   native::ExecMode::kSim, 0, dataset,
                                   PlainSpmv{});
  const RunResult nat = pinned_run(cfg.first, cfg.second,
                                   native::ExecMode::kNative, threads,
                                   dataset, PlainSpmv{});
  EXPECT_EQ(sim.output_digest, nat.output_digest)
      << "native output values diverged from the serial simulator";
  EXPECT_EQ(sim.functional, nat.functional)
      << "functional report subset diverged (decisions or iterations)";
}

TEST_P(NativeDifferential, TropicalSemiringByteIdenticalToSerialSim) {
  const auto [cfg, dataset, threads] = GetParam();
  const RunResult sim = pinned_run(cfg.first, cfg.second,
                                   native::ExecMode::kSim, 0, dataset,
                                   SsspSemiring{});
  const RunResult nat = pinned_run(cfg.first, cfg.second,
                                   native::ExecMode::kNative, threads,
                                   dataset, SsspSemiring{});
  EXPECT_EQ(sim.output_digest, nat.output_digest);
  EXPECT_EQ(sim.functional, nat.functional);
}

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  const ConfigPair cfg = std::get<0>(info.param);
  std::string name = cfg.first == SwConfig::kIP ? "IP" : "OP";
  name += sim::to_string(cfg.second);
  name += to_string(std::get<1>(info.param));
  name += "x" + std::to_string(std::get<2>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, NativeDifferential,
    ::testing::Combine(
        ::testing::Values(ConfigPair{SwConfig::kIP, sim::HwConfig::kSC},
                          ConfigPair{SwConfig::kIP, sim::HwConfig::kSCS},
                          ConfigPair{SwConfig::kOP, sim::HwConfig::kPC},
                          ConfigPair{SwConfig::kOP, sim::HwConfig::kPS}),
        ::testing::Values(Dataset::kUniform, Dataset::kPowerLaw,
                          Dataset::kRmat),
        ::testing::Values(1u, 8u)),
    param_name);

/// Auto-deciding run across a density ramp that crosses the IP/OP
/// boundary: kernel switches, frontier conversions and hardware
/// reconfigurations must all happen at the same iterations with the same
/// results in both modes.
RunResult auto_run(const sim::SystemConfig& system, native::ExecMode mode,
                   std::uint32_t threads) {
  EngineOptions opts;
  opts.sim_threads = threads;
  opts.exec_mode = mode;
  Engine eng(matrix_for(Dataset::kPowerLaw), system, opts);
  Digest d;
  int iter = 0;
  for (const double density : {0.0008, 0.003, 0.03, 0.3, 0.9, 0.02, 0.001}) {
    const auto x = sparse::random_sparse_vector(kDim, density, 31 + iter++);
    const auto out = eng.spmv(Engine::Frontier::from_sparse(x), PlainSpmv{});
    d.update_u64(out.num_touched());
    out.for_each_touched(
        [&d](Index r, Value v) { d.update_index(r); d.update_value(v); });
  }
  RunResult res;
  res.output_digest = d.hex();
  res.functional = obs::functional_subset(
                       runtime::make_run_report(eng, "native_differential")
                           .root())
                       .dump(1);
  return res;
}

TEST(NativeDifferentialAuto, ReconfiguringSequenceByteIdenticalToSerialSim) {
  for (const auto& system : {sim::SystemConfig::transmuter(4, 4),
                             sim::SystemConfig::transmuter(4, 8)}) {
    const RunResult sim = auto_run(system, native::ExecMode::kSim, 0);
    for (const std::uint32_t threads : {1u, 8u}) {
      const RunResult nat =
          auto_run(system, native::ExecMode::kNative, threads);
      EXPECT_EQ(sim.output_digest, nat.output_digest)
          << system.name() << ", " << threads << " native thread(s)";
      EXPECT_EQ(sim.functional, nat.functional)
          << system.name() << ", " << threads << " native thread(s)";
    }
  }
}

TEST(NativeDifferentialAuto, NativeDecisionCountersMatchAudit) {
  EngineOptions opts;
  opts.exec_mode = native::ExecMode::kNative;
  opts.sim_threads = 0;
  Engine eng(matrix_for(Dataset::kUniform),
             sim::SystemConfig::transmuter(4, 4), opts);
  int iter = 0;
  std::size_t pull_expected = 0;
  std::size_t push_expected = 0;
  for (const double density : {0.001, 0.4, 0.002, 0.7}) {
    const auto x = sparse::random_sparse_vector(kDim, density, 61 + iter++);
    eng.spmv(Engine::Frontier::from_sparse(x), PlainSpmv{});
    (eng.iterations().back().sw == SwConfig::kIP ? pull_expected
                                                 : push_expected)++;
  }
  EXPECT_EQ(eng.native_decisions().pulls(), pull_expected);
  EXPECT_EQ(eng.native_decisions().pushes(), push_expected);
  // Every iteration record in native mode carries zero cycles/energy.
  for (const auto& rec : eng.iterations()) {
    EXPECT_EQ(rec.cycles, 0u);
    EXPECT_EQ(rec.convert_cycles, 0u);
    EXPECT_EQ(rec.energy_pj, 0.0);
  }
  // And the report gains the native section instead of cycle totals.
  const Json rep =
      runtime::make_run_report(eng, "native_differential").root();
  ASSERT_NE(rep.find("native"), nullptr);
  EXPECT_EQ(rep.find("totals"), nullptr);
  EXPECT_EQ(rep.find("stats"), nullptr);
  const Json* mode = rep.find("config")->find("engine")->find("exec_mode");
  ASSERT_NE(mode, nullptr);
  EXPECT_EQ(mode->as_string(), "native");
}

}  // namespace
}  // namespace cosparse
