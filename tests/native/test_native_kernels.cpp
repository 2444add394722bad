// Native kernel correctness: the results-only host kernels must agree
// *bitwise* with the cycle-accurate simulator and with the scalar
// reference, including the edge cases the accumulator merge is most
// likely to get wrong — tropical (min-plus) semirings, empty frontiers,
// all-zero rows, power-law matrices with duplicate column indices, and
// several vblocks per tile — plus the schedule contract of the two
// machine types (for_tile_steps, pe_burst).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../kernels/reference.h"
#include "common/digest.h"
#include "kernels/address_map.h"
#include "kernels/frontier.h"
#include "kernels/ip_spmv.h"
#include "kernels/op_spmv.h"
#include "kernels/partition.h"
#include "kernels/region_plan.h"
#include "kernels/semiring.h"
#include "native/host_machine.h"
#include "native/spmv.h"
#include "sim/machine.h"
#include "sim/parallel.h"
#include "sparse/generate.h"

namespace cosparse {
namespace {

using kernels::CfSemiring;
using kernels::DenseFrontier;
using kernels::PlainSpmv;
using kernels::SsspSemiring;
using kernels::testing::reference_spmv;

std::string digest_ip(const kernels::IpResult& r) {
  Digest d;
  d.update_u64(r.num_touched);
  for (Index i = 0; i < r.y.dimension(); ++i) {
    d.update_u64(r.touched[i]);
    d.update_value(r.y[i]);
  }
  return d.hex();
}

std::string digest_op(const kernels::OpResult& r) {
  Digest d;
  d.update_u64(r.y.nnz());
  for (const auto& e : r.y.entries()) {
    d.update_index(e.index);
    d.update_value(e.value);
  }
  return d.hex();
}

const sim::SystemConfig kSys = sim::SystemConfig::transmuter(4, 4);

template <kernels::Semiring S>
kernels::IpResult sim_pull(const kernels::IpPartitionedMatrix& part,
                           const DenseFrontier& x, sim::HwConfig hw,
                           const S& sr) {
  sim::Machine machine(kSys, hw);
  kernels::AddressMap amap(machine);
  return kernels::run_inner_product(machine, amap, part, x, sr);
}

template <kernels::Semiring S>
kernels::OpResult sim_push(const kernels::OpStripedMatrix& striped,
                           const sparse::SparseVector& x, sim::HwConfig hw,
                           const S& sr) {
  sim::Machine machine(kSys, hw);
  kernels::AddressMap amap(machine);
  return kernels::run_outer_product(machine, amap, striped, x, nullptr, sr);
}

/// Runs pull through sim and native — serially and on 1, 3 and 8 threads
/// (3 splits the 4 tiles unevenly) — and checks every leg is bitwise
/// identical to sim, returning the digest.
template <kernels::Semiring S>
std::string check_pull_part(const kernels::IpPartitionedMatrix& part,
                            const DenseFrontier& x, sim::HwConfig hw,
                            const S& sr) {
  const std::string sim = digest_ip(sim_pull(part, x, hw, sr));
  EXPECT_EQ(sim, digest_ip(native::pull_spmv(kSys, hw, nullptr, part, x, sr)))
      << "native serial pull diverged from sim";
  for (const std::uint32_t threads : {1U, 3U, 8U}) {
    sim::ParallelExecutor exec(threads);
    EXPECT_EQ(sim, digest_ip(native::pull_spmv(kSys, hw, &exec, part, x, sr)))
        << "native " << threads << "-thread pull diverged from sim";
  }
  return sim;
}

/// check_pull_part over the layout the engine uses for `hw`.
template <kernels::Semiring S>
std::string check_pull(const sparse::Coo& m, const DenseFrontier& x,
                       sim::HwConfig hw, const S& sr) {
  const Index vb =
      hw == sim::HwConfig::kSCS ? kernels::default_vblock_cols(kSys) : 0;
  const auto part =
      kernels::IpPartitionedMatrix::build(m, kSys.num_pes(), vb, true);
  return check_pull_part(part, x, hw, sr);
}

template <kernels::Semiring S>
std::string check_push(const sparse::Coo& m, const sparse::SparseVector& x,
                       sim::HwConfig hw, const S& sr) {
  const auto striped = kernels::OpStripedMatrix::build(m, kSys.num_tiles, true);
  const std::string sim = digest_op(sim_push(striped, x, hw, sr));
  EXPECT_EQ(sim, digest_op(native::push_spmsv(kSys, hw, nullptr, striped, x,
                                              nullptr, sr)))
      << "native serial push diverged from sim";
  sim::ParallelExecutor exec(8);
  EXPECT_EQ(sim, digest_op(native::push_spmsv(kSys, hw, &exec, striped, x,
                                              nullptr, sr)))
      << "native 8-thread push diverged from sim";
  return sim;
}

TEST(NativeKernels, PullMatchesSimAllHwConfigs) {
  const auto m =
      sparse::uniform_random(300, 300, 3600, 5, sparse::ValueDist::kUniform01);
  const auto x = DenseFrontier::from_sparse(
      sparse::random_sparse_vector(300, 0.3, 6), PlainSpmv{}.vector_identity());
  for (const auto hw : {sim::HwConfig::kSC, sim::HwConfig::kSCS}) {
    check_pull(m, x, hw, PlainSpmv{});
  }
}

TEST(NativeKernels, PullMatchesSimAcrossVblocks) {
  // Every vblock is one step of for_tile_steps: the simulator runs all
  // tiles' vblock 0, then vblock 1, ...; the host runs a tile's vblocks in
  // order inside one task. Rows collect one partial sum per vblock, so a
  // wrong step order changes PlainSpmv's rounding. CfSemiring adds the
  // kUsesDst finalize pass.
  constexpr Index kN = 600;
  const auto m =
      sparse::power_law(kN, kN, 9000, 2.1, 31, sparse::ValueDist::kUniform01);
  const auto part = kernels::IpPartitionedMatrix::build(m, kSys.num_pes(),
                                                        /*vblock_cols=*/64,
                                                        true);
  ASSERT_EQ(part.num_vblocks(), 10U);
  const auto frontier = [&](Value identity, std::uint64_t seed) {
    return DenseFrontier::from_sparse(
        sparse::random_sparse_vector(kN, 0.4, seed), identity);
  };
  check_pull_part(part, frontier(PlainSpmv{}.vector_identity(), 32),
                  sim::HwConfig::kSCS, PlainSpmv{});
  check_pull_part(part, frontier(SsspSemiring{}.vector_identity(), 33),
                  sim::HwConfig::kSCS, SsspSemiring{});
  check_pull_part(part, frontier(CfSemiring{}.vector_identity(), 34),
                  sim::HwConfig::kSCS, CfSemiring{});

  // Wider than one default (SPM-sized) vblock, all-active frontier.
  constexpr Index kWide = 3000;
  const auto wide = sparse::uniform_random(kWide, kWide, 24000, 35,
                                           sparse::ValueDist::kUniform01);
  const auto wide_part = kernels::IpPartitionedMatrix::build(
      wide, kSys.num_pes(), kernels::default_vblock_cols(kSys), true);
  ASSERT_GE(wide_part.num_vblocks(), 3U);
  check_pull_part(wide_part,
                  DenseFrontier::from_dense(sparse::DenseVector(kWide, 0.5)),
                  sim::HwConfig::kSCS, PlainSpmv{});
}

TEST(TileSchedule, SimulatorRunsStepMajorWithTilesAscending) {
  sim::Machine machine(kSys, sim::HwConfig::kSCS);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> visits;
  machine.for_tile_steps(3, [&](std::uint32_t tile, std::uint32_t step) {
    visits.emplace_back(tile, step);
  });
  std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
  for (std::uint32_t step = 0; step < 3; ++step) {
    for (std::uint32_t tile = 0; tile < kSys.num_tiles; ++tile) {
      want.emplace_back(tile, step);
    }
  }
  EXPECT_EQ(visits, want);
}

TEST(TileSchedule, HostVisitsEveryTileStepOnceStepsAscending) {
  constexpr std::uint32_t kSteps = 5;
  const std::vector<std::uint32_t> ascending = {0, 1, 2, 3, 4};
  for (const std::uint32_t threads : {0U, 1U, 3U, 8U}) {
    std::optional<sim::ParallelExecutor> exec;
    if (threads > 0) exec.emplace(threads);
    native::HostMachine machine(kSys, sim::HwConfig::kSCS,
                                exec ? &*exec : nullptr);
    // Each tile appends only to its own slot, as kernel tile bodies do.
    std::vector<std::vector<std::uint32_t>> seen(kSys.num_tiles);
    machine.for_tile_steps(kSteps, [&](std::uint32_t tile,
                                       std::uint32_t step) {
      seen[tile].push_back(step);
    });
    for (std::uint32_t tile = 0; tile < kSys.num_tiles; ++tile) {
      EXPECT_EQ(seen[tile], ascending)
          << "tile " << tile << " at " << threads << " threads";
    }
  }
}

TEST(TileSchedule, PeBurstIsModeledInSimAndUnboundedOnHost) {
  EXPECT_EQ(sim::Machine::pe_burst(kernels::kIpInterleaveElems),
            kernels::kIpInterleaveElems);
  EXPECT_EQ(sim::Machine::pe_burst(kernels::kOpInterleavePops),
            kernels::kOpInterleavePops);
  for (const std::uint32_t modeled :
       {kernels::kIpInterleaveElems, kernels::kOpInterleavePops}) {
    EXPECT_EQ(native::HostMachine::pe_burst(modeled),
              std::numeric_limits<std::uint32_t>::max());
  }
}

TEST(NativeKernels, PushMatchesSimAllHwConfigs) {
  const auto m =
      sparse::uniform_random(300, 300, 3600, 5, sparse::ValueDist::kUniform01);
  const auto x = sparse::random_sparse_vector(300, 0.05, 6);
  for (const auto hw : {sim::HwConfig::kPC, sim::HwConfig::kPS}) {
    check_push(m, x, hw, PlainSpmv{});
  }
}

TEST(NativeKernels, PushSumsEachPesContributionsInHeapOrder) {
  // The cases above give a row at most two contributions per PE, and a
  // two-term sum commutes, so they cannot tell the heap's pop order from
  // arrival order. Here x has 12 entries, so each of a tile's 4 PEs
  // merges 3 columns, and every row gets all 3 of one PE's columns: two
  // ones and a 1e16, whose sum rounds differently by order (1 + 1e16 + 1
  // is 1e16, 1 + 1 + 1e16 is 1e16 + 2). The 1e16 sits at a different
  // position in each PE's columns.
  constexpr Index kN = 16;
  std::vector<sparse::Triplet> t;
  for (Index r = 0; r < kN; ++r) {
    for (Index k = 0; k < 3; ++k) t.push_back({r, (r % 4) * 3 + k, 1.0});
  }
  const sparse::Coo m(kN, kN, std::move(t));
  std::vector<Value> xs(12);
  sparse::SparseVector x(kN);
  for (Index c = 0; c < 12; ++c) {
    xs[c] = c % 3 == (c / 3) % 3 ? 1e16 : 1.0;
    x.push_back(c, xs[c]);
  }
  for (const auto hw : {sim::HwConfig::kPC, sim::HwConfig::kPS}) {
    check_push(m, x, hw, PlainSpmv{});
  }

  // The case must be order-sensitive: on some row the simulated sum
  // differs from the sum in arrival (column) order.
  const auto striped = kernels::OpStripedMatrix::build(m, kSys.num_tiles, true);
  const auto sim = sim_push(striped, x, sim::HwConfig::kPC, PlainSpmv{});
  ASSERT_EQ(sim.y.nnz(), kN);
  std::size_t order_sensitive = 0;
  for (const auto& e : sim.y.entries()) {
    Value arrival = 0;
    for (Index k = 0; k < 3; ++k) arrival += xs[(e.index % 4) * 3 + k];
    if (e.value != arrival) ++order_sensitive;
  }
  EXPECT_GT(order_sensitive, 0u);
}

TEST(NativeKernels, TropicalSemiringMatchesSimAndReference) {
  // min-plus: exercises non-arithmetic reduce identity (infinity) and the
  // kUsesDst finalize path.
  const auto m =
      sparse::power_law(256, 256, 2048, 2.2, 9, sparse::ValueDist::kUniform01);
  const SsspSemiring sr;
  const auto x = DenseFrontier::from_sparse(
      sparse::random_sparse_vector(256, 0.2, 10), sr.vector_identity());
  check_pull(m, x, sim::HwConfig::kSC, sr);
  check_push(m, sparse::random_sparse_vector(256, 0.03, 11),
             sim::HwConfig::kPC, sr);

  // And against the scalar reference (values, not just digests).
  const auto part =
      kernels::IpPartitionedMatrix::build(m, kSys.num_pes(), 0, true);
  const auto native = native::pull_spmv(kSys, sim::HwConfig::kSC, nullptr,
                                        part, x, sr);
  const auto ref = reference_spmv(m, x, sr);
  ASSERT_EQ(native.y.dimension(), ref.y.dimension());
  for (Index r = 0; r < ref.y.dimension(); ++r) {
    EXPECT_EQ(native.touched[r], ref.touched[r]) << "row " << r;
    EXPECT_DOUBLE_EQ(native.y[r], ref.y[r]) << "row " << r;
  }
}

TEST(NativeKernels, EmptyFrontierPullTouchesNothing) {
  const auto m =
      sparse::uniform_random(128, 128, 1024, 3, sparse::ValueDist::kUniform01);
  const DenseFrontier x(128, PlainSpmv{}.vector_identity());  // all inactive
  const auto part =
      kernels::IpPartitionedMatrix::build(m, kSys.num_pes(), 0, true);
  const auto out = native::pull_spmv(kSys, sim::HwConfig::kSC, nullptr, part,
                                     x, PlainSpmv{});
  EXPECT_EQ(out.num_touched, 0u);
  for (Index r = 0; r < 128; ++r) {
    EXPECT_EQ(out.touched[r], 0) << "row " << r;
    EXPECT_EQ(out.y[r], PlainSpmv{}.reduce_identity()) << "row " << r;
  }
  check_pull(m, x, sim::HwConfig::kSC, PlainSpmv{});
}

TEST(NativeKernels, EmptyFrontierPushProducesEmptyOutput) {
  const auto m =
      sparse::uniform_random(128, 128, 1024, 3, sparse::ValueDist::kUniform01);
  const sparse::SparseVector x(128);  // no entries
  const auto striped = kernels::OpStripedMatrix::build(m, kSys.num_tiles, true);
  const auto out = native::push_spmsv(kSys, sim::HwConfig::kPC, nullptr,
                                      striped, x, nullptr, PlainSpmv{});
  EXPECT_EQ(out.y.nnz(), 0u);
  check_push(m, x, sim::HwConfig::kPC, PlainSpmv{});
}

TEST(NativeKernels, AllZeroRowsStayUntouched) {
  // Rows 10..19 and the last row have no entries at all: they must stay
  // at the reduce identity with touched = 0 in every backend.
  std::vector<sparse::Triplet> t;
  for (Index r = 0; r < 64; ++r) {
    if ((r >= 10 && r < 20) || r == 63) continue;
    t.push_back({r, static_cast<Index>((r * 7) % 64), 1.5 + r});
    t.push_back({r, static_cast<Index>((r * 13 + 5) % 64), 0.25});
  }
  const sparse::Coo m(64, 64, std::move(t));
  const auto x = DenseFrontier::from_dense(sparse::DenseVector(64, 1.0));
  const auto part =
      kernels::IpPartitionedMatrix::build(m, kSys.num_pes(), 0, true);
  const auto out = native::pull_spmv(kSys, sim::HwConfig::kSC, nullptr, part,
                                     x, PlainSpmv{});
  for (const Index r : {10, 15, 19, 63}) {
    EXPECT_EQ(out.touched[r], 0) << "row " << r;
    EXPECT_EQ(out.y[r], PlainSpmv{}.reduce_identity()) << "row " << r;
  }
  EXPECT_EQ(out.num_touched, 64u - 11u);
  check_pull(m, x, sim::HwConfig::kSC, PlainSpmv{});
  check_push(m, sparse::random_sparse_vector(64, 0.2, 17),
             sim::HwConfig::kPC, PlainSpmv{});
}

TEST(NativeKernels, PowerLawWithDuplicateColumnIndicesMergesExactly) {
  // Duplicate (row, col) coordinates are legal in COO input and must be
  // reduced in stream order by every backend — the case a thread-local
  // accumulator merge would get wrong by combining duplicates in merge
  // order instead. Sum floating-point values are order-sensitive, so a
  // bitwise match is the strongest possible check.
  auto base = sparse::power_law(200, 200, 1600, 2.1, 21,
                                sparse::ValueDist::kUniform01);
  std::vector<sparse::Triplet> t(base.triplets().begin(),
                                 base.triplets().end());
  // Re-add a slice of existing coordinates with different values.
  const std::size_t n = t.size();
  for (std::size_t i = 0; i < n; i += 3) {
    t.push_back({t[i].row, t[i].col, 0.125 + static_cast<double>(i % 7)});
  }
  const sparse::Coo m(200, 200, std::move(t));
  const auto x = DenseFrontier::from_sparse(
      sparse::random_sparse_vector(200, 0.5, 22),
      PlainSpmv{}.vector_identity());
  check_pull(m, x, sim::HwConfig::kSC, PlainSpmv{});
  check_pull(m, x, sim::HwConfig::kSCS, PlainSpmv{});
  check_push(m, sparse::random_sparse_vector(200, 0.08, 23),
             sim::HwConfig::kPC, PlainSpmv{});

  // Reference check: duplicates must contribute once each.
  const auto part =
      kernels::IpPartitionedMatrix::build(m, kSys.num_pes(), 0, true);
  const auto native = native::pull_spmv(kSys, sim::HwConfig::kSC, nullptr,
                                        part, x, PlainSpmv{});
  const auto ref = reference_spmv(m, x, PlainSpmv{});
  for (Index r = 0; r < 200; ++r) {
    EXPECT_EQ(native.touched[r], ref.touched[r]) << "row " << r;
    EXPECT_NEAR(native.y[r], ref.y[r], 1e-9) << "row " << r;
  }
}

}  // namespace
}  // namespace cosparse
