// The native push of a selecting reduction (BFS, SSSP, CC) scatters into a
// dense per-stripe accumulator instead of replaying the simulator's heap
// merge (DESIGN.md §14 item 7). The oracle is the simulator itself:
// ScatterPushProperty pins the kernel byte for byte — same rows, same
// order, same value bits — over both OP hardware configs, two system
// shapes, four thread counts and frontiers from empty to all-active;
// ScatterPushDifferential runs whole native BFS, SSSP and CC on the
// Table III stand-ins against the serial simulator and the textbook
// references, with pushes in every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../graph/host_reference.h"
#include "graph/algorithms.h"
#include "kernels/address_map.h"
#include "kernels/op_spmv.h"
#include "kernels/partition.h"
#include "kernels/semiring.h"
#include "native/spmv.h"
#include "runtime/engine.h"
#include "sim/machine.h"
#include "sim/parallel.h"
#include "sparse/datasets.h"
#include "sparse/generate.h"

namespace cosparse {
namespace {

using kernels::BfsSemiring;
using kernels::SsspSemiring;
using runtime::Engine;

/// Same rows, same order, same value bits.
void expect_same_bits(const sparse::SparseVector& want,
                      const sparse::SparseVector& got,
                      const std::string& what) {
  ASSERT_EQ(want.dimension(), got.dimension()) << what;
  ASSERT_EQ(want.nnz(), got.nnz()) << what;
  for (std::size_t i = 0; i < want.nnz(); ++i) {
    const sparse::VectorEntry& w = want.entries()[i];
    const sparse::VectorEntry& g = got.entries()[i];
    ASSERT_EQ(w.index, g.index) << what << ", entry " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(w.value),
              std::bit_cast<std::uint64_t>(g.value))
        << what << ", row " << w.index;
  }
}

/// Frontier over `indices` (ascending) with tie-heavy values: small
/// non-negative integers, +0 included, and every ninth vertex at +inf.
sparse::SparseVector frontier(Index n, const std::vector<Index>& indices) {
  sparse::SparseVector x(n);
  for (const Index i : indices) {
    x.push_back(i, i % 9 == 8 ? kernels::kInf : static_cast<Value>(i % 4));
  }
  return x;
}

/// The frontier shapes a push meets: empty, one hub, one vertex whose
/// column is empty in some stripes but not all, three vertices (few hits
/// arriving out of row order), 1 %, 20 % and all-active.
std::vector<std::pair<std::string, sparse::SparseVector>> frontiers(
    const kernels::OpStripedMatrix& striped) {
  const Index n = striped.cols();
  Index hub = 0;
  std::size_t hub_nnz = 0;
  std::optional<Index> split;
  for (Index c = 0; c < n; ++c) {
    std::size_t nnz = 0, empty_stripes = 0;
    for (const auto& s : striped.stripes()) {
      nnz += s.col_end(c) - s.col_begin(c);
      empty_stripes += s.col_end(c) == s.col_begin(c) ? 1 : 0;
    }
    if (nnz > hub_nnz) {
      hub = c;
      hub_nnz = nnz;
    }
    if (!split && nnz > 0 && empty_stripes > 0) split = c;
  }
  EXPECT_TRUE(split.has_value()) << "no column is empty in only some stripes";
  const auto random = [&](double density, std::uint64_t seed) {
    const auto picked = sparse::random_sparse_vector(n, density, seed);
    std::vector<Index> idx;
    for (const auto& e : picked.entries()) idx.push_back(e.index);
    return frontier(n, idx);
  };
  std::vector<Index> all(n);
  for (Index i = 0; i < n; ++i) all[i] = i;
  return {{"empty", frontier(n, {})},
          {"hub", frontier(n, {hub})},
          {"split column", frontier(n, {split.value_or(0)})},
          {"3 vertices", random(3.0 / n, 4)},
          {"1%", random(0.01, 5)},
          {"20%", random(0.2, 6)},
          {"all-active", frontier(n, all)}};
}

template <kernels::Semiring S>
void check_against_sim(const S& sr) {
  // Integer weights make SSSP sums tie often; ties must keep their bits.
  // Stripes of 512-1024 rows make the few-hit frontiers take the sort.
  const sparse::Coo m = sparse::power_law(4096, 4096, 24576, 2.1, 12,
                                          sparse::ValueDist::kUniformInt);
  std::vector<std::optional<sim::ParallelExecutor>> pools(4);
  const std::uint32_t threads[] = {0, 1, 3, 8};
  for (std::size_t t = 1; t < pools.size(); ++t) pools[t].emplace(threads[t]);
  for (const auto& system : {sim::SystemConfig::transmuter(4, 4),
                             sim::SystemConfig::transmuter(8, 8)}) {
    const auto striped =
        kernels::OpStripedMatrix::build(m, system.num_tiles, true);
    for (const auto hw : {sim::HwConfig::kPC, sim::HwConfig::kPS}) {
      for (const auto& [name, x] : frontiers(striped)) {
        sim::Machine machine(system, hw);
        kernels::AddressMap amap(machine);
        const auto want =
            kernels::run_outer_product(machine, amap, striped, x, nullptr, sr);
        for (std::size_t t = 0; t < pools.size(); ++t) {
          sim::ParallelExecutor* exec = pools[t] ? &*pools[t] : nullptr;
          const auto got = native::push_spmsv(system, hw, exec, striped, x,
                                              nullptr, sr);
          expect_same_bits(want.y, got.y,
                           system.name() + " " + sim::to_string(hw) + " " +
                               name + " frontier, " +
                               std::to_string(threads[t]) + " threads");
        }
      }
    }
  }
}

TEST(ScatterPushProperty, BfsMatchesSimHeapMergeBitForBit) {
  check_against_sim(BfsSemiring{});
}

TEST(ScatterPushProperty, SsspMatchesSimHeapMergeBitForBit) {
  check_against_sim(SsspSemiring{});
}

TEST(ScatterPushProperty, SeededMatricesMatchSim) {
  // Generated shapes with dense hub columns and empty slices, at random
  // densities; one thread count per seed keeps the sweep cheap.
  const auto system = sim::SystemConfig::transmuter(4, 4);
  sim::ParallelExecutor exec(3);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Index n = 64 + static_cast<Index>(seed * 37 % 400);
    const std::uint64_t nnz = n * (2 + seed % 9);
    const sparse::Coo m =
        seed % 2 == 0
            ? sparse::rmat(9, nnz, 0.6, 0.15, 0.15, seed,
                           sparse::ValueDist::kUniformInt)
            : sparse::with_empty_slices(
                  sparse::uniform_random(n, n, nnz, seed,
                                         sparse::ValueDist::kUniform01),
                  0.3, 0.3, seed);
    const auto striped =
        kernels::OpStripedMatrix::build(m, system.num_tiles, true);
    const auto x = sparse::random_sparse_vector(
        m.cols(), 0.002 + static_cast<double>(seed % 10) / 10.0, seed ^ 0x5ca7);
    const auto hw = seed % 4 < 2 ? sim::HwConfig::kPC : sim::HwConfig::kPS;
    sim::ParallelExecutor* pool = seed % 3 == 0 ? nullptr : &exec;
    sim::Machine machine(system, hw);
    kernels::AddressMap amap(machine);
    expect_same_bits(
        kernels::run_outer_product(machine, amap, striped, x, nullptr,
                                   SsspSemiring{})
            .y,
        native::push_spmsv(system, hw, pool, striped, x, nullptr,
                           SsspSemiring{})
            .y,
        "seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Whole algorithms on the stand-ins.

struct StandIn {
  const char* name;
  unsigned scale;  ///< ~700-1600 vertices each
};

// Without this, gtest prints the raw bytes of the name pointer and the
// padding, so the discovered test names change from build to build.
void PrintTo(const StandIn& s, std::ostream* os) {
  *os << s.name << "/" << s.scale;
}

class ScatterPushDifferential : public ::testing::TestWithParam<StandIn> {
 protected:
  /// `pinned` fixes every iteration to the push (OP on PC); otherwise the
  /// engine decides per iteration.
  static Engine engine(const sparse::Coo& adj, native::ExecMode mode,
                       std::uint32_t threads, bool pinned) {
    runtime::EngineOptions opts;
    opts.exec_mode = mode;
    opts.sim_threads = threads;
    if (pinned) {
      opts.sw_reconfig = false;
      opts.hw_reconfig = false;
      opts.fixed_sw = runtime::SwConfig::kOP;
      opts.fixed_hw = sim::HwConfig::kPC;
    }
    return Engine(adj, sim::SystemConfig::transmuter(4, 4), opts);
  }

  /// Per-iteration decisions and frontier sizes, mode-independent.
  static std::string decisions(const Engine& eng) {
    std::string s;
    for (const auto& r : eng.iterations()) {
      s += std::string(runtime::to_string(r.sw)) + sim::to_string(r.hw) +
           ":" + std::to_string(r.frontier_nnz) + " ";
    }
    return s;
  }

  /// Runs `algo` in sim mode, then native at 0, 3 and 8 host threads:
  /// every native result, decision sequence and push count must equal
  /// the simulator's.
  template <class Algo>
  static auto check_mode(const sparse::Coo& adj, Algo algo, bool pinned) {
    Engine sim = engine(adj, native::ExecMode::kSim, 0, pinned);
    const auto want = algo(sim);
    std::size_t sim_pushes = 0;
    for (const auto& r : sim.iterations()) {
      sim_pushes += r.sw == runtime::SwConfig::kOP ? 1 : 0;
    }
    if (pinned) EXPECT_GT(sim_pushes, 0U);
    for (const std::uint32_t threads : {0U, 3U, 8U}) {
      const std::string what = std::string(pinned ? "pinned" : "decided") +
                               ", " + std::to_string(threads) +
                               " native threads";
      Engine nat = engine(adj, native::ExecMode::kNative, threads, pinned);
      EXPECT_EQ(algo(nat), want) << what;
      EXPECT_EQ(decisions(nat), decisions(sim)) << what;
      EXPECT_EQ(nat.native_decisions().pushes(), sim_pushes) << what;
    }
    return want;
  }

  /// check_mode with the engine's own decisions, which push on every
  /// stand-in except vsp's CC (it converges in three all-active pulls),
  /// and pinned to the push, dense frontiers included; both must agree.
  template <class Algo>
  static auto check_native(const sparse::Coo& adj, Algo algo) {
    const auto decided = check_mode(adj, algo, false);
    EXPECT_EQ(check_mode(adj, algo, true), decided)
        << "pinned push changed the result";
    return decided;
  }

  static Index hub(const sparse::Graph& g) {
    const auto& deg = g.out_degrees();
    return static_cast<Index>(std::max_element(deg.begin(), deg.end()) -
                              deg.begin());
  }

  sparse::Graph load() const {
    return sparse::DatasetRegistry{}.load(GetParam().name, GetParam().scale);
  }
};

TEST_P(ScatterPushDifferential, Bfs) {
  const sparse::Graph g = load();
  const Index source = hub(g);
  const auto levels = check_native(g.adjacency(), [&](Engine& eng) {
    return graph::bfs(eng, source).level;
  });
  EXPECT_EQ(levels, graph::testing::reference_bfs(g.adjacency(), source));
}

TEST_P(ScatterPushDifferential, Sssp) {
  const sparse::Graph g = load();
  const Index source = hub(g);
  // Distance bits: integer weights make every sum exact, so the
  // reference's doubles must match bit for bit too.
  const auto bits = [](const std::vector<Value>& v) {
    std::vector<std::uint64_t> b;
    for (const Value d : v) b.push_back(std::bit_cast<std::uint64_t>(d));
    return b;
  };
  const auto dist = check_native(g.adjacency(), [&](Engine& eng) {
    return bits(graph::sssp(eng, source).dist);
  });
  EXPECT_EQ(dist, bits(graph::testing::reference_sssp(g.adjacency(), source)));
}

TEST_P(ScatterPushDifferential, Cc) {
  const sparse::Coo sym = sparse::symmetrize(load().adjacency());
  const auto labels = check_native(sym, [](Engine& eng) {
    return graph::connected_components(eng).component;
  });
  EXPECT_EQ(labels, graph::testing::reference_cc(sym));
}

INSTANTIATE_TEST_SUITE_P(
    StandIns, ScatterPushDifferential,
    ::testing::Values(StandIn{"livejournal", 4096}, StandIn{"pokec", 1024},
                      StandIn{"youtube", 1024}, StandIn{"twitter", 64},
                      StandIn{"vsp", 32}),
    [](const ::testing::TestParamInfo<StandIn>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cosparse
