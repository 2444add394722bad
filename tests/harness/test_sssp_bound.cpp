// SSSP's settled bound (DESIGN.md §14 item 9). graph::sssp declares vertex v
// settled (graph::mark_sssp_settled) when dist[v] <= fl(xmin + min_weight),
// xmin being the frontier's smallest value and min_weight the lightest
// stored value of G^T: every candidate x + w is at least that sum, so the
// apply would reject v anyway, and a native `min` pull skips its row.
// Checked here:
//   - SsspBoundProperty: on seeded generated graphs with integer weights
//     1-32, zero weights, fractional weights and a DAG with negative
//     weights, native SSSP at 0/3/8 threads equals the serial simulator
//     and Dijkstra bit for bit, distances and iteration logs, with the
//     engine's own decisions and pinned to the pull on SC and on SCS;
//     every row the bound settles has an unmasked simulated candidate no
//     lower than its distance; PreparedMatrix::min_weight is the lightest
//     stored value.
//   - SsspBoundDifferential: the same whole-run check on the Table III
//     stand-ins from two sources other than the hub each.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "../graph/host_reference.h"
#include "common/error.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "kernels/address_map.h"
#include "kernels/frontier.h"
#include "kernels/ip_spmv.h"
#include "kernels/semiring.h"
#include "pull_differential.h"
#include "runtime/engine.h"
#include "sim/machine.h"
#include "sparse/datasets.h"
#include "sparse/generate.h"

namespace cosparse {
namespace {

using kernels::DenseFrontier;
using kernels::SsspSemiring;
using runtime::Engine;

const sim::SystemConfig kSys = sim::SystemConfig::transmuter(4, 4);

/// The vertex with the k-th highest out-degree; k = 0 is the hub.
Index by_degree(const sparse::Coo& adj, std::size_t k) {
  std::vector<Index> deg(adj.rows(), 0);
  for (const auto& t : adj.triplets()) ++deg[t.row];
  std::vector<Index> order(adj.rows());
  for (Index v = 0; v < adj.rows(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(),
                   [&](Index a, Index b) { return deg[a] > deg[b]; });
  return order[k];
}

Index hub(const sparse::Coo& adj) { return by_degree(adj, 0); }

/// `m` with every value replaced by `value(old, rng)`.
template <class Fn>
sparse::Coo reweighted(const sparse::Coo& m, std::uint64_t seed, Fn value) {
  Rng rng(seed);
  std::vector<sparse::Triplet> t = m.triplets();
  for (auto& e : t) e.value = value(e.value, rng);
  return {m.rows(), m.cols(), std::move(t)};
}

/// Power-law graphs of ~1000 vertices weighted 1-32, the range of the
/// dataset registry's stand-ins (1-16 per edge, duplicates summed).
sparse::Coo integer_weights(std::uint64_t seed) {
  return reweighted(
      sparse::rmat(10, 8000 + seed * 1000, 0.57, 0.19, 0.19, seed),
      seed, [](Value, Rng& rng) {
        return static_cast<Value>(1 + rng.next_below(32));
      });
}

/// A quarter of the edges weigh zero, so the bound is the frontier minimum.
sparse::Coo zero_weights(std::uint64_t seed) {
  return reweighted(integer_weights(seed), seed, [](Value w, Rng& rng) {
    return rng.next_below(4) == 0 ? 0.0 : w;
  });
}

/// Weights in (0, 1]: sums round, so the bound is a rounded sum too.
sparse::Coo fractional_weights(std::uint64_t seed) {
  return sparse::rmat(10, 8000 + seed * 1000, 0.57, 0.19, 0.19, seed,
                      sparse::ValueDist::kUniform01);
}

/// Only the edges u -> v with u < v, weighted -1 to 14.75 in steps of
/// 0.25: no cycle, so the distances from vertex 0 are finite, and the bound
/// lies below the frontier minimum.
sparse::Coo negative_dag(std::uint64_t seed) {
  const sparse::Coo m = sparse::uniform_random(
      900, 900, 9000 + seed * 500, seed, sparse::ValueDist::kOnes);
  std::vector<sparse::Triplet> t;
  Rng rng(seed);
  for (const auto& e : m.triplets()) {
    if (e.row >= e.col) continue;
    t.push_back({e.row, e.col,
                 static_cast<Value>(rng.next_below(64)) * 0.25 - 1.0});
  }
  return {m.rows(), m.cols(), std::move(t)};
}

/// Whole native SSSP runs against the simulator (pull_differential.h) and
/// Dijkstra, bit for bit.
void check_sssp(const sparse::Coo& adj, Index source) {
  const auto dist = harness::check_native(adj, kSys, [&](Engine& eng) {
    return harness::bits(graph::sssp(eng, source).dist);
  });
  EXPECT_EQ(dist,
            harness::bits(graph::testing::reference_sssp(adj, source)));
}

/// Drives SSSP pull by pull through the simulator's unmasked kernel and
/// checks graph::mark_sssp_settled against it: every row it settles gets
/// no candidate below its distance. Returns how many touched rows it
/// settled.
std::size_t check_bound_against_sim(const sparse::Coo& adj, Index source) {
  const auto prepared = runtime::prepare_matrix(adj, kSys);
  const Index n = adj.rows();
  const SsspSemiring sr;
  std::vector<Value> dist(n, kernels::kInf);
  dist[source] = 0.0;
  DenseFrontier x(n, sr.vector_identity());
  x.set(source, 0.0);
  Value xmin = 0.0;
  std::vector<std::uint8_t> settled(n);
  std::size_t settled_touched = 0;
  for (Index it = 0; it < n && x.num_active > 0; ++it) {
    graph::mark_sssp_settled(dist, xmin, prepared->min_weight, settled);
    sim::Machine machine(kSys, sim::HwConfig::kSC);
    kernels::AddressMap amap(machine);
    const auto y =
        kernels::run_inner_product(machine, amap, prepared->ip_sc, x, sr);
    DenseFrontier next(n, sr.vector_identity());
    xmin = kernels::kInf;
    for (Index r = 0; r < n; ++r) {
      if (y.touched[r] == 0) continue;
      if (settled[r] != 0) {
        ++settled_touched;
        EXPECT_GE(y.y[r], dist[r])
            << "iteration " << it << ", row " << r
            << ": settled but a candidate improves it";
      } else if (y.y[r] < dist[r]) {
        dist[r] = y.y[r];
        next.set(r, y.y[r]);
        xmin = std::min(xmin, y.y[r]);
      }
    }
    x = std::move(next);
  }
  EXPECT_EQ(harness::bits(dist),
            harness::bits(graph::testing::reference_sssp(adj, source)));
  return settled_touched;
}

TEST(SsspBoundProperty, MinWeightIsTheLightestStoredValue) {
  const sparse::Coo m(3, 3, {{0, 1, 4.5}, {1, 2, -2.25}, {2, 0, 7.0}});
  EXPECT_EQ(runtime::prepare_matrix(m, kSys)->min_weight, -2.25);
  EXPECT_EQ(runtime::prepare_matrix(sparse::Coo(3, 3, {}), kSys)->min_weight,
            std::numeric_limits<Value>::infinity());
  const sparse::Coo g = integer_weights(1);
  Value lightest = kernels::kInf;
  for (const auto& t : g.triplets()) lightest = std::min(lightest, t.value);
  const Engine eng(g, kSys);
  EXPECT_EQ(eng.min_weight(), lightest);
}

TEST(SsspBoundProperty, MarkSettledComparesWithTheRoundedSum) {
  const Value bound = 0.1 + 0.2;  // rounds up to 0.30000000000000004
  const std::vector<Value> dist = {0.0, bound,
                                   std::nextafter(bound, kernels::kInf),
                                   kernels::kInf};
  std::vector<std::uint8_t> settled(dist.size(), 7);
  graph::mark_sssp_settled(dist, 0.1, 0.2, settled);
  EXPECT_EQ(settled, (std::vector<std::uint8_t>{1, 1, 0, 0}));
  std::vector<std::uint8_t> short_mask(dist.size() - 1);
  EXPECT_THROW(graph::mark_sssp_settled(dist, 0.1, 0.2, short_mask), Error);
}

TEST(SsspBoundProperty, IntegerWeightsMatchSimAndReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const sparse::Coo adj = integer_weights(seed);
    check_sssp(adj, hub(adj));
  }
}

TEST(SsspBoundProperty, ZeroWeightsMatchSimAndReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const sparse::Coo adj = zero_weights(seed);
    check_sssp(adj, hub(adj));
  }
}

TEST(SsspBoundProperty, FractionalWeightsMatchSimAndReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const sparse::Coo adj = fractional_weights(seed);
    check_sssp(adj, hub(adj));
  }
}

TEST(SsspBoundProperty, NegativeWeightsOnADagMatchSimAndReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_sssp(negative_dag(seed), 0);
  }
}

TEST(SsspBoundProperty, SettledRowsHaveNoImprovingSimCandidate) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const sparse::Coo& adj :
         {integer_weights(seed), zero_weights(seed), fractional_weights(seed)}) {
      EXPECT_GT(check_bound_against_sim(adj, hub(adj)), 0U)
          << "the bound settled no touched row";
    }
    EXPECT_GT(check_bound_against_sim(negative_dag(seed), 0), 0U)
        << "the bound settled no touched row";
  }
}

// ---------------------------------------------------------------------------
// Whole runs on the stand-ins.

struct StandIn {
  const char* name;
  unsigned scale;  ///< ~700-1600 vertices each
};

// Keeps the discovered test names stable (see GatherPullDifferential).
void PrintTo(const StandIn& s, std::ostream* os) {
  *os << s.name << "/" << s.scale;
}

class SsspBoundDifferential : public ::testing::TestWithParam<StandIn> {};

// GatherPullDifferential.Sssp runs the same check from the hub.
TEST_P(SsspBoundDifferential, NonHubSourcesMatchSimAndReference) {
  const sparse::Graph g =
      sparse::DatasetRegistry{}.load(GetParam().name, GetParam().scale);
  for (const Index source : {by_degree(g.adjacency(), 10), Index{0}}) {
    SCOPED_TRACE("source " + std::to_string(source));
    check_sssp(g.adjacency(), source);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StandIns, SsspBoundDifferential,
    ::testing::Values(StandIn{"livejournal", 4096}, StandIn{"pokec", 1024},
                      StandIn{"youtube", 1024}, StandIn{"twitter", 64},
                      StandIn{"vsp", 32}),
    [](const ::testing::TestParamInfo<StandIn>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cosparse
