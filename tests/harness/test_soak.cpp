// Soak test for the simulator (ctest -L soak; built only under
// -DCOSPARSE_SOAK=ON and excluded from the default suite).
//
// A 64-tile machine runs ten thousand PageRank-style SpMV iterations with
// sim_threads set (which a sim-mode engine ignores). The point is
// longevity, not correctness of a single step (the differential and
// property harnesses cover that): the clock must advance monotonically on
// every iteration, and Stats counters must never run backwards or wrap.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "kernels/frontier.h"
#include "kernels/semiring.h"
#include "runtime/engine.h"
#include "sim/machine.h"
#include "sparse/generate.h"

namespace cosparse {
namespace {

TEST(SoakParallelSim, TenThousandIterationsOn64Tiles) {
  constexpr Index kVertices = 2000;
  constexpr std::uint64_t kEdges = 10000;
  constexpr int kIterations = 10000;

  const auto m = sparse::power_law(kVertices, kVertices, kEdges, 2.3, 97,
                                   sparse::ValueDist::kUniform01);
  runtime::EngineOptions opts;
  opts.sim_threads = 4;
  runtime::Engine eng(m, sim::SystemConfig::transmuter(64, 2), opts);

  // PageRank iterates on a dense rank vector: every vertex stays active.
  auto frontier = runtime::Engine::Frontier::from_dense(
      kernels::DenseFrontier::from_sparse(
          sparse::random_sparse_vector(kVertices, 1.0, 5), 0.0));

  const kernels::PageRankSemiring sr;
  Cycles prev_cycles = eng.total_cycles();
  sim::Stats prev_stats = eng.machine().stats();
  for (int it = 0; it < kIterations; ++it) {
    const auto out = eng.spmv(frontier, sr);
    ASSERT_TRUE(out.dense) << "dense frontier must select IP";

    const Cycles now = eng.total_cycles();
    ASSERT_GT(now, prev_cycles) << "clock stalled at iteration " << it;
    prev_cycles = now;

    // Counters are cumulative: a decrease means a counter ran backwards or
    // wrapped. Spot-check the high-traffic ones every iteration.
    const sim::Stats s = eng.machine().stats();
    ASSERT_GE(s.l1_hits, prev_stats.l1_hits) << "iteration " << it;
    ASSERT_GE(s.l2_hits, prev_stats.l2_hits) << "iteration " << it;
    ASSERT_GE(s.dram_read_bytes, prev_stats.dram_read_bytes)
        << "iteration " << it;
    ASSERT_GE(s.xbar_transfers, prev_stats.xbar_transfers)
        << "iteration " << it;
    ASSERT_GE(s.pe_compute_cycles, prev_stats.pe_compute_cycles)
        << "iteration " << it;
    prev_stats = s;

    // Feed the produced ranks back in, as the PageRank driver would (the
    // touched bitmap stays full under a dense frontier, so every vertex
    // remains active and the decision engine keeps choosing IP).
    if (it % 100 == 99) {
      kernels::DenseFrontier next(kVertices, 0.0);
      for (Index r = 0; r < kVertices; ++r) next.set(r, out.ip.y[r]);
      frontier = runtime::Engine::Frontier::from_dense(std::move(next));
    }
  }

  EXPECT_EQ(eng.iterations().size(), static_cast<std::size_t>(kIterations));
  EXPECT_TRUE(std::isfinite(eng.total_energy_pj()));
  // Far below the uint64 horizon: wrap-around would show up as a huge or
  // tiny total, not a plausible one.
  EXPECT_LT(eng.total_cycles(), std::uint64_t{1} << 62);
}

}  // namespace
}  // namespace cosparse
