// The native pull of a selecting reduction (BFS, SSSP, CC) walks the
// single-vblock layout row by row instead of streaming it through the
// shared element loop (DESIGN.md §14 item 6). The oracle is the simulator
// itself: GatherPullProperty pins the row loop bit for bit against
// run_inner_product<sim::Machine> — on the SC layout, and against the
// simulator's multi-vblock SCS layout, which the engine never hands the
// row loop — for the three semirings, partial and all-active frontiers,
// four settled masks and three thread counts; GatherPullDifferential runs
// whole native BFS, SSSP and CC on the Table III stand-ins against the
// serial simulator and the textbook references, with pulls in every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../graph/host_reference.h"
#include "common/error.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "kernels/address_map.h"
#include "kernels/frontier.h"
#include "kernels/ip_spmv.h"
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
using kernels::DenseFrontier;
using kernels::IpPartitionedMatrix;
using kernels::SsspSemiring;
using runtime::Engine;

const sim::SystemConfig kSys = sim::SystemConfig::transmuter(4, 4);
constexpr Index kN = 1200;

std::vector<std::uint8_t> random_mask(double settled_share,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> mask(kN);
  for (auto& m : mask) m = rng.next_double() < settled_share ? 1 : 0;
  return mask;
}

/// No mask, then the masks of the settled-row tests: none settled (a
/// non-empty mask that must change nothing), most, a few and all settled.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> masks() {
  return {{"no mask", {}},
          {"none settled", std::vector<std::uint8_t>(kN, 0)},
          {"90% settled", random_mask(0.9, 7)},
          {"20% settled", random_mask(0.2, 8)},
          {"all settled", std::vector<std::uint8_t>(kN, 1)}};
}

/// Frontier values the three algorithms hand the pull: BFS levels (one
/// depth), SSSP distances (small integers, ties and +0 included) and CC
/// labels (vertex ids).
enum class Values { kLevel, kDistance, kLabel };

DenseFrontier frontier(double density, std::uint64_t seed, Values values) {
  const auto picked = sparse::random_sparse_vector(kN, density, seed);
  DenseFrontier f(kN, kernels::kInf);
  for (const auto& e : picked.entries()) {
    const Index i = e.index;
    f.set(i, values == Values::kLevel      ? 3.0
             : values == Values::kDistance ? static_cast<Value>(i % 5)
                                           : static_cast<Value>(i));
  }
  return f;
}

/// Every row the mask leaves computed equals the simulator's bits and
/// touched flag; every settled row is reduce_identity and untouched.
void expect_rows(const kernels::IpResult& want, const kernels::IpResult& got,
                 const std::vector<std::uint8_t>& settled, Value identity,
                 const std::string& what) {
  ASSERT_EQ(got.y.dimension(), want.y.dimension()) << what;
  std::size_t want_touched = 0;
  for (Index r = 0; r < want.y.dimension(); ++r) {
    const bool skip = !settled.empty() && settled[r] != 0;
    const Value y = skip ? identity : want.y[r];
    const std::uint8_t touched = skip ? 0 : want.touched[r];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.y[r]),
              std::bit_cast<std::uint64_t>(y))
        << what << ", row " << r;
    ASSERT_EQ(got.touched[r], touched) << what << ", row " << r;
    want_touched += touched;
  }
  EXPECT_EQ(got.num_touched, want_touched) << what;
}

template <kernels::Semiring S>
void check_against_sim(const S& sr, Values values) {
  static_assert(native::kOrderFree<S>);
  // Integer weights make SSSP sums tie often; ties must keep their bits.
  // Empty slices give rows with no elements at all.
  const sparse::Coo m = sparse::with_empty_slices(
      sparse::power_law(kN, kN, 16000, 2.1, 12,
                        sparse::ValueDist::kUniformInt),
      0.1, 0.1, 13);
  const auto sc = IpPartitionedMatrix::build(m, kSys.num_pes(), 0, true);
  const auto scs = IpPartitionedMatrix::build(m, kSys.num_pes(), 96, true);
  ASSERT_EQ(sc.num_vblocks(), 1U);
  ASSERT_GT(scs.num_vblocks(), 1U);
  const std::pair<std::string, DenseFrontier> frontiers[] = {
      {"one vertex", frontier(1.0 / kN, 4, values)},
      {"5%", frontier(0.05, 5, values)},
      {"40%", frontier(0.4, 6, values)},
      {"all-active", frontier(1.0, 0, values)}};
  ASSERT_TRUE(frontiers[3].second.all_active());
  std::vector<std::optional<sim::ParallelExecutor>> pools(3);
  const std::uint32_t threads[] = {0, 3, 8};
  for (std::size_t t = 1; t < pools.size(); ++t) pools[t].emplace(threads[t]);
  for (const auto& [layout, sim_part, hw] :
       {std::tuple{"SC", &sc, sim::HwConfig::kSC},
        std::tuple{"SCS", &scs, sim::HwConfig::kSCS}}) {
    for (const auto& [name, x] : frontiers) {
      sim::Machine machine(kSys, hw);
      kernels::AddressMap amap(machine);
      const auto want =
          kernels::run_inner_product(machine, amap, *sim_part, x, sr);
      for (const auto& [mask_name, settled] : masks()) {
        for (std::size_t t = 0; t < pools.size(); ++t) {
          sim::ParallelExecutor* exec = pools[t] ? &*pools[t] : nullptr;
          const auto got =
              native::pull_spmv(kSys, hw, exec, sc, x, sr, settled);
          expect_rows(want, got, settled, sr.reduce_identity(),
                      std::string(layout) + " " + name + " frontier, " +
                          mask_name + ", " + std::to_string(threads[t]) +
                          " threads");
        }
      }
    }
  }
}

TEST(GatherPullProperty, BfsMatchesSimBitForBit) {
  check_against_sim(BfsSemiring{}, Values::kLevel);
}

TEST(GatherPullProperty, SsspMatchesSimBitForBit) {
  check_against_sim(SsspSemiring{}, Values::kDistance);
}

TEST(GatherPullProperty, CcLabelsMatchSimBitForBit) {
  check_against_sim(BfsSemiring{}, Values::kLabel);
}

TEST(GatherPullProperty, SeededMatricesMatchSim) {
  // Generated shapes with hub rows and empty slices, at random densities;
  // one thread count per seed keeps the sweep cheap.
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
    const auto sc = IpPartitionedMatrix::build(m, kSys.num_pes(), 0, true);
    const auto x = DenseFrontier::from_sparse(
        sparse::random_sparse_vector(
            m.cols(), 0.002 + static_cast<double>(seed % 10) / 10.0,
            seed ^ 0x5ca7),
        SsspSemiring{}.vector_identity());
    sim::Machine machine(kSys, sim::HwConfig::kSC);
    kernels::AddressMap amap(machine);
    const auto want =
        kernels::run_inner_product(machine, amap, sc, x, SsspSemiring{});
    sim::ParallelExecutor* pool = seed % 3 == 0 ? nullptr : &exec;
    expect_rows(want,
                native::pull_spmv(kSys, sim::HwConfig::kSC, pool, sc, x,
                                  SsspSemiring{}),
                {}, SsspSemiring{}.reduce_identity(),
                "seed " + std::to_string(seed));
  }
}

TEST(GatherPullProperty, MultiVblockLayoutThrows) {
  const sparse::Coo m = sparse::power_law(kN, kN, 16000, 2.1, 12,
                                          sparse::ValueDist::kUniformInt);
  const auto scs = IpPartitionedMatrix::build(m, kSys.num_pes(), 96, true);
  ASSERT_GT(scs.num_vblocks(), 1U);
  EXPECT_TRUE(scs.row_offsets().empty());
  const auto x = frontier(0.4, 6, Values::kLevel);
  EXPECT_THROW((void)native::pull_spmv(kSys, sim::HwConfig::kSCS, nullptr, scs,
                                       x, BfsSemiring{}),
               Error);
  // A summing semiring still streams the vblocked layout.
  EXPECT_NO_THROW((void)native::pull_spmv(kSys, sim::HwConfig::kSCS, nullptr,
                                          scs, x, kernels::PlainSpmv{}));
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

class GatherPullDifferential : public ::testing::TestWithParam<StandIn> {
 protected:
  /// `pinned` fixes every iteration to the pull on that config; otherwise
  /// the engine decides per iteration.
  static Engine engine(const sparse::Coo& adj, native::ExecMode mode,
                       std::uint32_t threads,
                       std::optional<sim::HwConfig> pinned) {
    runtime::EngineOptions opts;
    opts.exec_mode = mode;
    opts.sim_threads = threads;
    if (pinned) {
      opts.sw_reconfig = false;
      opts.hw_reconfig = false;
      opts.fixed_sw = runtime::SwConfig::kIP;
      opts.fixed_hw = *pinned;
    }
    return Engine(adj, kSys, opts);
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
  /// every native result, decision sequence and pull count must equal
  /// the simulator's.
  template <class Algo>
  static auto check_mode(const sparse::Coo& adj, Algo algo,
                         std::optional<sim::HwConfig> pinned) {
    Engine sim = engine(adj, native::ExecMode::kSim, 0, pinned);
    const auto want = algo(sim);
    std::size_t sim_pulls = 0;
    for (const auto& r : sim.iterations()) {
      sim_pulls += r.sw == runtime::SwConfig::kIP ? 1 : 0;
    }
    EXPECT_GT(sim_pulls, 0U);
    for (const std::uint32_t threads : {0U, 3U, 8U}) {
      const std::string what =
          std::string(pinned ? sim::to_string(*pinned) : "decided") + ", " +
          std::to_string(threads) + " native threads";
      Engine nat = engine(adj, native::ExecMode::kNative, threads, pinned);
      EXPECT_EQ(algo(nat), want) << what;
      EXPECT_EQ(decisions(nat), decisions(sim)) << what;
      EXPECT_EQ(nat.native_decisions().pulls(), sim_pulls) << what;
    }
    return want;
  }

  /// check_mode with the engine's own decisions and pinned to the pull on
  /// SC and on SCS, sparse frontiers included; all three must agree.
  template <class Algo>
  static auto check_native(const sparse::Coo& adj, Algo algo) {
    const auto decided = check_mode(adj, algo, std::nullopt);
    for (const auto hw : {sim::HwConfig::kSC, sim::HwConfig::kSCS}) {
      EXPECT_EQ(check_mode(adj, algo, hw), decided)
          << "pinned " << sim::to_string(hw) << " pull changed the result";
    }
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

TEST_P(GatherPullDifferential, Bfs) {
  const sparse::Graph g = load();
  const Index source = hub(g);
  const auto levels = check_native(g.adjacency(), [&](Engine& eng) {
    return graph::bfs(eng, source).level;
  });
  EXPECT_EQ(levels, graph::testing::reference_bfs(g.adjacency(), source));
}

TEST_P(GatherPullDifferential, Sssp) {
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

TEST_P(GatherPullDifferential, Cc) {
  const sparse::Coo sym = sparse::symmetrize(load().adjacency());
  const auto labels = check_native(sym, [](Engine& eng) {
    return graph::connected_components(eng).component;
  });
  EXPECT_EQ(labels, graph::testing::reference_cc(sym));
}

INSTANTIATE_TEST_SUITE_P(
    StandIns, GatherPullDifferential,
    ::testing::Values(StandIn{"livejournal", 4096}, StandIn{"pokec", 1024},
                      StandIn{"youtube", 1024}, StandIn{"twitter", 64},
                      StandIn{"vsp", 32}),
    [](const ::testing::TestParamInfo<StandIn>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cosparse
