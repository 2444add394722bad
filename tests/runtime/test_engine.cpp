#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "kernels/semiring.h"
#include "sparse/generate.h"

namespace cosparse::runtime {
namespace {

using kernels::DenseFrontier;
using kernels::PlainSpmv;
using sparse::Coo;
using sparse::SparseVector;

Coo test_matrix(Index n = 2000, std::uint64_t nnz = 30000,
                std::uint64_t seed = 1) {
  return sparse::uniform_random(n, n, nnz, seed,
                                sparse::ValueDist::kUniform01);
}

/// Engine computes y = A^T x; the reference must transpose too.
sparse::DenseVector reference(const Coo& a, const SparseVector& x) {
  sparse::DenseVector y(a.cols(), 0.0);
  sparse::DenseVector xd = sparse::to_dense(x, 0.0);
  for (const auto& t : a.triplets()) {
    y[t.col] += t.value * xd[t.row];
  }
  return y;
}

TEST(Engine, SparseFrontierRunsOpAndMatchesReference) {
  const Coo a = test_matrix();
  Engine eng(a, sim::SystemConfig::transmuter(2, 8));
  const SparseVector x = sparse::random_sparse_vector(2000, 0.005, 2);
  const auto out = eng.spmv(Engine::Frontier::from_sparse(x), PlainSpmv{});
  EXPECT_FALSE(out.dense);
  EXPECT_EQ(out.decision.sw, SwConfig::kOP);
  const auto want = reference(a, x);
  out.for_each_touched(
      [&](Index r, Value v) { EXPECT_NEAR(v, want[r], 1e-9); });
}

TEST(Engine, DenseFrontierRunsIpAndMatchesReference) {
  const Coo a = test_matrix();
  Engine eng(a, sim::SystemConfig::transmuter(2, 8));
  const SparseVector x = sparse::random_sparse_vector(2000, 0.5, 3);
  const auto out = eng.spmv(
      Engine::Frontier::from_dense(DenseFrontier::from_sparse(x, 0.0)),
      PlainSpmv{});
  EXPECT_TRUE(out.dense);
  EXPECT_EQ(out.decision.sw, SwConfig::kIP);
  const auto want = reference(a, x);
  out.for_each_touched(
      [&](Index r, Value v) { EXPECT_NEAR(v, want[r], 1e-9); });
}

TEST(Engine, ConvertsFormatOnDataflowMismatch) {
  const Coo a = test_matrix();
  Engine eng(a, sim::SystemConfig::transmuter(2, 8));
  // Dense-formatted frontier whose density demands OP.
  const SparseVector x = sparse::random_sparse_vector(2000, 0.001, 4);
  const auto out = eng.spmv(
      Engine::Frontier::from_dense(DenseFrontier::from_sparse(x, 0.0)),
      PlainSpmv{});
  EXPECT_EQ(out.decision.sw, SwConfig::kOP);
  ASSERT_EQ(eng.iterations().size(), 1u);
  EXPECT_TRUE(eng.iterations()[0].converted_frontier);
  EXPECT_GT(eng.iterations()[0].convert_cycles, 0u);
  const auto want = reference(a, x);
  out.for_each_touched(
      [&](Index r, Value v) { EXPECT_NEAR(v, want[r], 1e-9); });
}

TEST(Engine, NoConversionWhenFormatsMatch) {
  const Coo a = test_matrix();
  Engine eng(a, sim::SystemConfig::transmuter(2, 8));
  const SparseVector x = sparse::random_sparse_vector(2000, 0.001, 5);
  eng.spmv(Engine::Frontier::from_sparse(x), PlainSpmv{});
  EXPECT_FALSE(eng.iterations()[0].converted_frontier);
  EXPECT_EQ(eng.iterations()[0].convert_cycles, 0u);
}

TEST(Engine, HardwareReconfiguresAcrossIterations) {
  const Coo a = test_matrix();
  Engine eng(a, sim::SystemConfig::transmuter(2, 8));
  // Iteration 1: sparse -> OP/PC|PS. Iteration 2: dense -> IP/SC|SCS.
  eng.spmv(Engine::Frontier::from_sparse(
               sparse::random_sparse_vector(2000, 0.001, 6)),
           PlainSpmv{});
  eng.spmv(Engine::Frontier::from_dense(DenseFrontier::from_sparse(
               sparse::random_sparse_vector(2000, 0.6, 7), 0.0)),
           PlainSpmv{});
  ASSERT_EQ(eng.iterations().size(), 2u);
  EXPECT_EQ(eng.iterations()[0].sw, SwConfig::kOP);
  EXPECT_EQ(eng.iterations()[1].sw, SwConfig::kIP);
  EXPECT_TRUE(eng.iterations()[1].sw_switched);
  EXPECT_TRUE(eng.iterations()[1].hw_switched);
  EXPECT_EQ(eng.machine().stats().reconfigurations, 2u);  // initial SC->PC, PC->SC
}

TEST(Engine, FixedSwDisablesSoftwareReconfig) {
  const Coo a = test_matrix();
  EngineOptions opts;
  opts.sw_reconfig = false;
  opts.fixed_sw = SwConfig::kIP;
  Engine eng(a, sim::SystemConfig::transmuter(2, 8), opts);
  // Even a very sparse frontier must run IP.
  const auto out = eng.spmv(Engine::Frontier::from_sparse(
                                sparse::random_sparse_vector(2000, 0.001, 8)),
                            PlainSpmv{});
  EXPECT_TRUE(out.dense);
  EXPECT_EQ(eng.iterations()[0].sw, SwConfig::kIP);
}

TEST(Engine, FixedHwPinsConfiguration) {
  const Coo a = test_matrix();
  EngineOptions opts;
  opts.hw_reconfig = false;
  opts.fixed_hw = sim::HwConfig::kSCS;
  opts.sw_reconfig = false;
  opts.fixed_sw = SwConfig::kIP;
  Engine eng(a, sim::SystemConfig::transmuter(2, 8), opts);
  eng.spmv(Engine::Frontier::from_dense(DenseFrontier::from_sparse(
               sparse::random_sparse_vector(2000, 0.02, 9), 0.0)),
           PlainSpmv{});
  EXPECT_EQ(eng.iterations()[0].hw, sim::HwConfig::kSCS);
  EXPECT_EQ(eng.machine().hw(), sim::HwConfig::kSCS);
}

TEST(Engine, CacheOnlyBaselineMapping) {
  const Coo a = test_matrix();
  EngineOptions opts;
  opts.hw_reconfig = false;  // no fixed_hw: IP->SC, OP->PC
  Engine eng(a, sim::SystemConfig::transmuter(2, 8), opts);
  eng.spmv(Engine::Frontier::from_sparse(
               sparse::random_sparse_vector(2000, 0.001, 10)),
           PlainSpmv{});
  EXPECT_EQ(eng.iterations()[0].hw, sim::HwConfig::kPC);
  eng.spmv(Engine::Frontier::from_dense(DenseFrontier::from_sparse(
               sparse::random_sparse_vector(2000, 0.5, 11), 0.0)),
           PlainSpmv{});
  EXPECT_EQ(eng.iterations()[1].hw, sim::HwConfig::kSC);
}

TEST(Engine, IterationLogCyclesAndEnergyPositive) {
  const Coo a = test_matrix();
  Engine eng(a, sim::SystemConfig::transmuter(2, 8));
  eng.spmv(Engine::Frontier::from_sparse(
               sparse::random_sparse_vector(2000, 0.01, 12)),
           PlainSpmv{});
  const auto& rec = eng.iterations()[0];
  EXPECT_GT(rec.cycles, 0u);
  EXPECT_GT(rec.energy_pj, 0.0);
  EXPECT_NEAR(rec.density, 0.01, 1e-6);
}

TEST(Engine, ChargeVectorPassAdvancesClock) {
  const Coo a = test_matrix(100, 500);
  Engine eng(a, sim::SystemConfig::transmuter(2, 4));
  const Cycles before = eng.total_cycles();
  eng.charge_vector_pass(100000, 2, 16);
  EXPECT_GT(eng.total_cycles(), before);
}

TEST(Engine, EmptyFrontierProducesEmptyOutput) {
  const Coo a = test_matrix(100, 500);
  Engine eng(a, sim::SystemConfig::transmuter(2, 4));
  const auto out =
      eng.spmv(Engine::Frontier::from_sparse(SparseVector(100)), PlainSpmv{});
  EXPECT_EQ(out.num_touched(), 0u);
}

/// Every touched (row, value) pair and the cycle count, as one string.
std::string outcome(const Engine::Output& out, const Engine& eng) {
  std::ostringstream os;
  os << std::hexfloat;
  out.for_each_touched([&](Index r, Value v) { os << r << ':' << v << ' '; });
  os << "cycles=" << eng.total_cycles();
  return os.str();
}

TEST(Engine, MismatchedFrontierThrowsAndLeavesEngineUntouched) {
  // A frontier of another dimension, or a dense one whose activity flags
  // do not match its values, would be staged out of bounds. spmv must
  // reject it before staging or logging anything: afterwards the engine
  // (its staged buffers' simulated addresses included) must behave like a
  // fresh engine running only the valid calls.
  constexpr Index kN = 100;
  const Coo a = test_matrix(kN, 800);
  const auto valid_sparse = Engine::Frontier::from_sparse(
      sparse::random_sparse_vector(kN, 0.05, 41));
  const auto valid_dense = Engine::Frontier::from_dense(
      DenseFrontier::from_sparse(sparse::random_sparse_vector(kN, 0.6, 42),
                                 0.0));

  std::vector<std::pair<std::string, Engine::Frontier>> bad;
  {
    // Dense enough to be decided IP against the engine's 100 vertices.
    SparseVector wide(100000);
    for (Index i = 0; i < 90; ++i) wide.push_back(i * 1000 + 7, 1.0);
    bad.emplace_back("sparse, too wide", Engine::Frontier::from_sparse(wide));
    bad.emplace_back("sparse, too narrow", Engine::Frontier::from_sparse(
                                               SparseVector(kN - 1)));
    DenseFrontier big(100000, 0.0);
    for (Index i = 0; i < 90; ++i) big.set(i * 1000 + 7, 1.0);
    bad.emplace_back("dense, too wide", Engine::Frontier::from_dense(big));
    DenseFrontier short_flags(kN, 0.0);
    for (Index i = 0; i < kN; i += 2) short_flags.set(i, 1.0);
    short_flags.active.resize(kN / 2);
    bad.emplace_back("dense, short activity flags",
                     Engine::Frontier::from_dense(short_flags));
  }

  for (const auto mode : {native::ExecMode::kSim, native::ExecMode::kNative}) {
    EngineOptions opts;
    opts.exec_mode = mode;
    opts.sim_threads = 0;
    Engine fresh(a, sim::SystemConfig::transmuter(2, 4), opts);
    const std::string want_first =
        outcome(fresh.spmv(valid_sparse, PlainSpmv{}), fresh);
    const std::string want_second =
        outcome(fresh.spmv(valid_dense, PlainSpmv{}), fresh);

    for (const auto& [what, frontier] : bad) {
      SCOPED_TRACE(what + (mode == native::ExecMode::kSim ? " (sim)"
                                                          : " (native)"));
      Engine eng(a, sim::SystemConfig::transmuter(2, 4), opts);
      EXPECT_EQ(outcome(eng.spmv(valid_sparse, PlainSpmv{}), eng),
                want_first);
      EXPECT_THROW(eng.spmv(frontier, PlainSpmv{}), Error);
      EXPECT_EQ(eng.iterations().size(), 1U);
      EXPECT_EQ(outcome(eng.spmv(valid_dense, PlainSpmv{}), eng),
                want_second);
    }
  }
}

}  // namespace
}  // namespace cosparse::runtime
