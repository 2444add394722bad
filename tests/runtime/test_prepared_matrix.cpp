// PreparedMatrix: an engine sharing a prepared matrix is indistinguishable
// from one that prepared its own, alone or concurrently, and a matrix
// prepared for another system or layout is rejected.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "common/digest.h"
#include "common/error.h"
#include "kernels/semiring.h"
#include "obs/report.h"
#include "runtime/engine.h"
#include "runtime/report.h"
#include "sparse/generate.h"

namespace cosparse::runtime {
namespace {

constexpr Index kDim = 1500;

const sim::SystemConfig kSystem = sim::SystemConfig::transmuter(2, 8);

sparse::Coo test_matrix() {
  return sparse::power_law(kDim, kDim, 24000, 2.1, 5,
                           sparse::ValueDist::kUniform01);
}

EngineOptions options(native::ExecMode mode) {
  EngineOptions opts;
  opts.exec_mode = mode;
  opts.sim_threads = 0;
  return opts;
}

struct RunResult {
  std::string output_digest;  ///< every output bit of every iteration
  std::string functional;     ///< functional_subset of the run report
  std::string cycle_sections; ///< iterations (with cycles), stats, totals
};

/// A density ramp that crosses the IP/OP boundary, so both IP layouts, the
/// OP layout, conversions and reconfigurations all run.
RunResult run(Engine& eng) {
  Digest d;
  int iter = 0;
  for (const double density : {0.001, 0.01, 0.2, 0.9, 0.05, 0.002}) {
    const auto x = sparse::random_sparse_vector(kDim, density, 40 + iter++);
    const auto out =
        eng.spmv(Engine::Frontier::from_sparse(x), kernels::PlainSpmv{});
    d.update_u64(out.num_touched());
    out.for_each_touched(
        [&d](Index r, Value v) { d.update_index(r); d.update_value(v); });
  }
  const Json report = make_run_report(eng, "prepared_matrix").root();
  RunResult res;
  res.output_digest = d.hex();
  res.functional = obs::functional_subset(report).dump(1);
  for (const char* key : {"iterations", "stats", "tile_stats", "totals"}) {
    if (const Json* v = report.find(key); v != nullptr)
      res.cycle_sections += v->dump(1);
  }
  return res;
}

RunResult run_from_adjacency(native::ExecMode mode) {
  Engine eng(test_matrix(), kSystem, options(mode));
  return run(eng);
}

class PreparedMatrixModes
    : public ::testing::TestWithParam<native::ExecMode> {};

TEST_P(PreparedMatrixModes, SharedPreparedMatchesAdjacencyBuilt) {
  const native::ExecMode mode = GetParam();
  const RunResult own = run_from_adjacency(mode);
  const auto prepared = prepare_matrix(test_matrix(), kSystem);
  Engine eng(prepared, kSystem, options(mode));
  const RunResult shared = run(eng);
  EXPECT_EQ(own.output_digest, shared.output_digest);
  EXPECT_EQ(own.functional, shared.functional);
  // Sim mode: identical cycles and Stats, globally and per tile.
  EXPECT_EQ(own.cycle_sections, shared.cycle_sections);
  if (mode == native::ExecMode::kSim) {
    Engine again(prepared, kSystem, options(mode));
    EXPECT_EQ(run(again).cycle_sections, own.cycle_sections)
        << "a second engine on the same PreparedMatrix diverged";
  }
}

TEST_P(PreparedMatrixModes, TwoThreadsOnOnePreparedMatchAlone) {
  const native::ExecMode mode = GetParam();
  const RunResult alone = run_from_adjacency(mode);
  const auto prepared = prepare_matrix(test_matrix(), kSystem);
  RunResult results[2];
  std::thread workers[2];
  for (int i = 0; i < 2; ++i) {
    workers[i] = std::thread([&prepared, &results, mode, i] {
      Engine eng(prepared, kSystem, options(mode));
      results[i] = run(eng);
    });
  }
  for (std::thread& w : workers) w.join();
  for (const RunResult& r : results) {
    EXPECT_EQ(r.output_digest, alone.output_digest);
    EXPECT_EQ(r.functional, alone.functional);
    EXPECT_EQ(r.cycle_sections, alone.cycle_sections);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, PreparedMatrixModes,
                         ::testing::Values(native::ExecMode::kSim,
                                           native::ExecMode::kNative),
                         [](const auto& info) {
                           return std::string(native::to_string(info.param));
                         });

TEST(PreparedMatrix, RecordsTheShapeItWasBuiltFor) {
  const auto p = prepare_matrix(test_matrix(), kSystem, false, false);
  EXPECT_EQ(p->num_pes, kSystem.num_pes());
  EXPECT_EQ(p->num_tiles, kSystem.num_tiles);
  EXPECT_EQ(p->vblock_cols, 0u);
  EXPECT_FALSE(p->nnz_balanced);
  EXPECT_EQ(p->ip_sc.rows(), kDim);
  EXPECT_EQ(p->op.nnz(), p->ip_scs.nnz());
}

TEST(PreparedMatrix, RejectsMismatchedSystemOrLayout) {
  const auto prepared = prepare_matrix(test_matrix(), kSystem);
  // Same PE count, different tiling.
  EXPECT_THROW(
      Engine(prepared, sim::SystemConfig::transmuter(4, 4), EngineOptions{}),
      Error);
  EXPECT_THROW(
      Engine(prepared, sim::SystemConfig::transmuter(2, 4), EngineOptions{}),
      Error);
  EngineOptions unbalanced;
  unbalanced.nnz_balanced = false;
  EXPECT_THROW(Engine(prepared, kSystem, unbalanced), Error);
  EngineOptions unblocked;
  unblocked.vblocked = false;
  EXPECT_THROW(Engine(prepared, kSystem, unblocked), Error);
  EXPECT_THROW(Engine(nullptr, kSystem, EngineOptions{}), Error);
  EXPECT_NO_THROW(Engine(prepared, kSystem, EngineOptions{}));
}

}  // namespace
}  // namespace cosparse::runtime
