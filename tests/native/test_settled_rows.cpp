// Settled-row skipping in the pull (DESIGN.md §14 item 6). A caller may
// declare rows whose output cannot change its result; a selecting
// reduction's native pull (native::detail::gather_rows) then skips them,
// every other kernel ignores the declaration. Checked here: masked native `min` pulls agree
// bit-for-bit with the simulator's unmasked pull on every unsettled row,
// on the SC layout and on the vblocked SCS layout, and leave settled rows
// at reduce_identity and untouched; a summing semiring's native pull
// ignores the mask; a simulated engine run is indistinguishable with and
// without one, cycles and counters included; and native BFS, which passes
// its visited set, still matches the simulator and a queue BFS on the
// Table III stand-ins.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "../graph/host_reference.h"
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
using kernels::PageRankSemiring;
using kernels::SsspSemiring;

const sim::SystemConfig kSys = sim::SystemConfig::transmuter(4, 4);
constexpr Index kN = 600;

std::vector<std::uint8_t> random_mask(Index n, double settled_share,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> mask(n);
  for (auto& m : mask) m = rng.next_double() < settled_share ? 1 : 0;
  return mask;
}

/// The masks every layout/frontier/semiring combination faces: none
/// settled (a non-empty mask that must change nothing), most settled, a
/// few settled, and all settled.
std::vector<std::vector<std::uint8_t>> masks() {
  return {std::vector<std::uint8_t>(kN, 0), random_mask(kN, 0.9, 7),
          random_mask(kN, 0.2, 8), std::vector<std::uint8_t>(kN, 1)};
}

struct Layout {
  const char* name;
  sim::HwConfig hw;
  Index vblock_cols;
};
constexpr Layout kLayouts[] = {{"SC", sim::HwConfig::kSC, 0},
                               {"SCS", sim::HwConfig::kSCS, 64}};

template <kernels::Semiring S>
kernels::IpResult sim_pull(const IpPartitionedMatrix& part, sim::HwConfig hw,
                           const DenseFrontier& x, const S& sr) {
  sim::Machine machine(kSys, hw);
  kernels::AddressMap amap(machine);
  return kernels::run_inner_product(machine, amap, part, x, sr);
}

/// Masked native pulls at 0, 3 and 8 host threads against the simulator's
/// unmasked pull on `part`. A selecting reduction's native pull reads `sc`
/// (the single-vblock layout the engine hands it under either IP config)
/// and leaves settled rows at reduce_identity and untouched; any other
/// semiring's reads `part` and must ignore the mask.
template <kernels::Semiring S>
void check_masked_pull(const IpPartitionedMatrix& sc,
                       const IpPartitionedMatrix& part, sim::HwConfig hw,
                       const DenseFrontier& x, const S& sr) {
  constexpr bool kSkips = native::kOrderFree<S>;
  const IpPartitionedMatrix& native_part = kSkips ? sc : part;
  const auto full = sim_pull(part, hw, x, sr);
  const auto identity_bits = std::bit_cast<std::uint64_t>(sr.reduce_identity());
  for (const auto& settled : masks()) {
    for (const std::uint32_t threads : {0U, 3U, 8U}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      std::optional<sim::ParallelExecutor> exec;
      if (threads > 0) exec.emplace(threads);
      sim::ParallelExecutor* const ex = exec ? &*exec : nullptr;
      const auto masked =
          native::pull_spmv(kSys, hw, ex, native_part, x, sr, settled);
      std::size_t want_touched = 0;
      std::size_t bad_unsettled = 0;
      std::size_t bad_settled = 0;
      for (Index r = 0; r < kN; ++r) {
        const auto bits = std::bit_cast<std::uint64_t>(masked.y[r]);
        if (kSkips && settled[r] != 0) {
          if (bits != identity_bits || masked.touched[r] != 0) ++bad_settled;
        } else {
          if (bits != std::bit_cast<std::uint64_t>(full.y[r]) ||
              masked.touched[r] != full.touched[r]) {
            ++bad_unsettled;
          }
          want_touched += full.touched[r];
        }
      }
      EXPECT_EQ(bad_unsettled, 0U) << "computed rows diverged from sim";
      EXPECT_EQ(bad_settled, 0U) << "settled rows were written";
      EXPECT_EQ(masked.num_touched, want_touched);
    }
  }
}

template <kernels::Semiring S>
void check_all_frontiers(const S& sr) {
  const auto m =
      sparse::power_law(kN, kN, 9000, 2.1, 31, sparse::ValueDist::kUniform01);
  const DenseFrontier partial = DenseFrontier::from_sparse(
      sparse::random_sparse_vector(kN, 0.4, 32), sr.vector_identity());
  const DenseFrontier all_active =
      DenseFrontier::from_dense(sparse::random_dense_vector(kN, 33));
  ASSERT_TRUE(all_active.all_active());
  const auto sc = IpPartitionedMatrix::build(m, kSys.num_pes(), 0, true);
  for (const Layout& layout : kLayouts) {
    SCOPED_TRACE(layout.name);
    const auto part = IpPartitionedMatrix::build(m, kSys.num_pes(),
                                                 layout.vblock_cols, true);
    if (layout.vblock_cols > 0) ASSERT_GT(part.num_vblocks(), 1U);
    {
      SCOPED_TRACE("partial frontier");
      check_masked_pull(sc, part, layout.hw, partial, sr);
    }
    {
      SCOPED_TRACE("all-active frontier");
      check_masked_pull(sc, part, layout.hw, all_active, sr);
    }
  }
}

TEST(SettledRowsProperty, NativeBfsPullSkipsOnlySettledRows) {
  check_all_frontiers(BfsSemiring{});
}

TEST(SettledRowsProperty, NativeSsspPullSkipsOnlySettledRows) {
  check_all_frontiers(SsspSemiring{});
}

TEST(SettledRowsProperty, NativePageRankPullIgnoresTheMask) {
  check_all_frontiers(PageRankSemiring{});
}

/// One simulated engine pull pinned to `hw`, with an optional mask.
struct SimRun {
  runtime::Engine::Output out;
  Cycles cycles = 0;
  std::string stats;
};

SimRun sim_engine_pull(const sparse::Coo& m, sim::HwConfig hw,
                       const DenseFrontier& x,
                       std::span<const std::uint8_t> settled) {
  runtime::EngineOptions opts;
  opts.sw_reconfig = false;
  opts.hw_reconfig = false;
  opts.fixed_sw = runtime::SwConfig::kIP;
  opts.fixed_hw = hw;
  runtime::Engine eng(m, kSys, opts);
  SimRun run;
  run.out = eng.spmv(runtime::Engine::Frontier::from_dense(x), BfsSemiring{},
                     nullptr, settled);
  run.cycles = eng.total_cycles();
  run.stats = eng.machine().stats().to_json().dump();
  return run;
}

TEST(SettledRowsProperty, SimulatorIgnoresTheMask) {
  const auto m =
      sparse::power_law(kN, kN, 9000, 2.1, 41, sparse::ValueDist::kUniform01);
  const DenseFrontier x = DenseFrontier::from_sparse(
      sparse::random_sparse_vector(kN, 0.4, 42), BfsSemiring{}.vector_identity());
  const auto settled = random_mask(kN, 0.9, 43);
  for (const Layout& layout : kLayouts) {
    SCOPED_TRACE(layout.name);
    const SimRun plain = sim_engine_pull(m, layout.hw, x, {});
    const SimRun masked = sim_engine_pull(m, layout.hw, x, settled);
    ASSERT_TRUE(plain.out.dense);
    EXPECT_EQ(plain.out.decision.hw, layout.hw);
    EXPECT_GT(plain.cycles, 0U);
    EXPECT_EQ(masked.cycles, plain.cycles);
    EXPECT_EQ(masked.stats, plain.stats);
    EXPECT_EQ(masked.out.ip.num_touched, plain.out.ip.num_touched);
    EXPECT_EQ(masked.out.ip.touched, plain.out.ip.touched);
    for (Index r = 0; r < kN; ++r) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(masked.out.ip.y[r]),
                std::bit_cast<std::uint64_t>(plain.out.ip.y[r]))
          << "row " << r;
    }
  }
}

/// Native BFS (which declares its visited vertices settled) against sim
/// and a queue BFS, at scales where some levels are dense enough to pull.
TEST(SettledRowsDifferential, NativeBfsMatchesSimAndReferenceOnStandIns) {
  struct StandIn {
    const char* name;
    unsigned scale;
  };
  const StandIn stand_ins[] = {{"twitter", 32}, {"vsp", 32},
                               {"youtube", 128}, {"pokec", 256},
                               {"livejournal", 512}};
  sparse::DatasetRegistry reg;
  for (const StandIn& s : stand_ins) {
    SCOPED_TRACE(s.name);
    const auto g = reg.load(s.name, s.scale);
    const Index source = 3;
    const auto want = graph::testing::reference_bfs(g.adjacency(), source);

    runtime::Engine sim_eng(g.adjacency(), kSys);
    const auto sim_res = graph::bfs(sim_eng, source);
    EXPECT_EQ(sim_res.level, want);

    for (const std::uint32_t threads : {0U, 3U, 8U}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      runtime::EngineOptions opts;
      opts.exec_mode = native::ExecMode::kNative;
      opts.sim_threads = threads;
      runtime::Engine eng(g.adjacency(), kSys, opts);
      const auto res = graph::bfs(eng, source);
      EXPECT_EQ(res.level, want);
      EXPECT_GT(eng.native_decisions().pulls(), 0U)
          << "no pull iteration: the mask was never exercised";
      ASSERT_EQ(res.stats.iterations, sim_res.stats.iterations);
      for (std::size_t i = 0; i < res.stats.per_iteration.size(); ++i) {
        EXPECT_EQ(res.stats.per_iteration[i].frontier_nnz,
                  sim_res.stats.per_iteration[i].frontier_nnz);
        EXPECT_EQ(res.stats.per_iteration[i].sw,
                  sim_res.stats.per_iteration[i].sw);
      }
    }
  }
}

}  // namespace
}  // namespace cosparse
