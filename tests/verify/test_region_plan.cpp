#include "kernels/region_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/error.h"
#include "kernels/address_map.h"
#include "kernels/frontier.h"
#include "kernels/ip_spmv.h"
#include "kernels/op_spmv.h"
#include "kernels/semiring.h"
#include "sparse/generate.h"

namespace cosparse::kernels {
namespace {

TEST(RegionScope, RoundTripsThroughStrings) {
  for (RegionScope s :
       {RegionScope::kGlobal, RegionScope::kPerTile, RegionScope::kPerPe}) {
    EXPECT_EQ(region_scope_from_string(to_string(s)), s);
  }
  EXPECT_THROW((void)region_scope_from_string("per_cluster"), Error);
}

TEST(RegionPlan, DefaultVblockColsMatchesEngineSizing) {
  // max(64, (SPM bytes / 8 B per value) rounded down to a line multiple).
  const auto cfg = sim::SystemConfig::transmuter(4, 8);
  const auto cols = static_cast<Index>(cfg.scs_spm_bytes_per_tile() / 8);
  EXPECT_EQ(default_vblock_cols(cfg), std::max<Index>(64, cols / 64 * 64));
  // Tiny SPM still yields the 64-column floor.
  auto small = cfg;
  small.pes_per_tile = 2;
  small.bank_bytes = 256;
  EXPECT_EQ(default_vblock_cols(small), 64);
}

TEST(RegionPlan, IpRegionsCoverKernelAllocations) {
  // The planner must mirror what run_inner_product actually allocates:
  // every machine allocation's label must be planned, and the persistent
  // AddressMap-managed arrays must match byte-for-byte. (output.y is
  // allocated fresh per invocation via Machine::alloc, so it shows up in
  // machine.allocations() but not in the AddressMap.)
  const auto cfg = sim::SystemConfig::transmuter(2, 4);
  const Index n = 300;
  const auto m =
      sparse::uniform_random(n, n, 4000, 7, sparse::ValueDist::kUniform01);
  const auto x = DenseFrontier::from_dense(sparse::random_dense_vector(n, 2));

  sim::Machine machine(cfg, sim::HwConfig::kSC);
  AddressMap amap(machine);
  const auto part = IpPartitionedMatrix::build(m, cfg.num_pes(), 64);
  (void)run_inner_product(machine, amap, part, x, PlainSpmv{});

  PlanShape shape{n, static_cast<std::uint64_t>(m.nnz()),
                  static_cast<std::size_t>(n)};
  const auto plan = plan_ip_regions(cfg, shape, /*scs=*/false);
  std::set<std::string> planned;
  for (const auto& r : plan) planned.insert(r.label);

  std::set<std::string> actual;
  for (const auto& rec : machine.allocations()) {
    actual.insert(rec.label);
    EXPECT_EQ(planned.count(rec.label), 1u)
        << "unplanned kernel region: " << rec.label;
  }
  EXPECT_EQ(planned, actual);
  amap.for_each_region([&](Addr, std::size_t bytes, std::string_view label) {
    const auto it = std::find_if(
        plan.begin(), plan.end(),
        [&](const PlannedRegion& r) { return r.label == label; });
    ASSERT_NE(it, plan.end()) << "unplanned kernel region: " << label;
    EXPECT_EQ(it->bytes, bytes) << "size mismatch for " << label;
  });
}

TEST(RegionPlan, OpRegionsCoverKernelAllocations) {
  const auto cfg = sim::SystemConfig::transmuter(2, 4);
  const Index n = 300;
  const auto m =
      sparse::uniform_random(n, n, 4000, 9, sparse::ValueDist::kUniform01);
  const auto x = sparse::random_sparse_vector(n, 0.2, 11);

  sim::Machine machine(cfg, sim::HwConfig::kPC);
  AddressMap amap(machine);
  const auto striped = OpStripedMatrix::build(m, cfg.num_tiles);
  (void)run_outer_product(machine, amap, striped, x, nullptr, PlainSpmv{});

  PlanShape shape{n, static_cast<std::uint64_t>(m.nnz()), x.nnz()};
  const auto plan = plan_op_regions(cfg, shape, /*ps=*/false);
  std::set<std::string> planned;
  for (const auto& r : plan) planned.insert(r.label);
  std::set<std::string> actual;
  for (const auto& rec : machine.allocations()) {
    actual.insert(rec.label);
    EXPECT_EQ(planned.count(rec.label), 1u)
        << "unplanned kernel region: " << rec.label;
    if (rec.label == "vector.sparse") {
      EXPECT_EQ(rec.bytes, x.nnz() * kOpEntryBytes);
    }
    if (rec.label == "op.heap") {
      // The kernel carves one per-tile range; the planner records the
      // per-PE share. Totals must agree.
      const auto heap = std::find_if(
          plan.begin(), plan.end(),
          [](const PlannedRegion& r) { return r.label == "op.heap"; });
      ASSERT_NE(heap, plan.end());
      EXPECT_EQ(rec.bytes, heap->bytes * cfg.pes_per_tile);
    }
  }
  EXPECT_EQ(planned, actual);
}

TEST(RegionPlan, ScsAddsSpmResidentSegment) {
  const auto cfg = sim::SystemConfig::transmuter(2, 4);
  PlanShape shape{100000, 1000000, 100000};
  const auto without = plan_ip_regions(cfg, shape, /*scs=*/false);
  const auto with = plan_ip_regions(cfg, shape, /*scs=*/true);
  EXPECT_EQ(with.size(), without.size() + 1);
  const auto& seg = with.back();
  EXPECT_EQ(seg.label, "vector.vblock_segment");
  EXPECT_TRUE(seg.spm);
  EXPECT_EQ(seg.scope, RegionScope::kPerTile);
  // One vblock's values fit the tile SPM by construction.
  EXPECT_LE(seg.bytes, cfg.scs_spm_bytes_per_tile());
  // Unblocked: the whole value array must be pinned.
  const auto pinned = plan_ip_regions(cfg, shape, true, /*vblocked=*/false);
  EXPECT_EQ(pinned.back().bytes, 100000u * kValueBytes);
}

TEST(RegionPlan, OpHeapIsSpillTolerantPerPe) {
  const auto cfg = sim::SystemConfig::transmuter(2, 4);
  PlanShape shape{1000, 10000, 800};
  const auto regions = plan_op_regions(cfg, shape, /*ps=*/true);
  const auto heap = std::find_if(
      regions.begin(), regions.end(),
      [](const PlannedRegion& r) { return r.label == "op.heap"; });
  ASSERT_NE(heap, regions.end());
  EXPECT_TRUE(heap->spm);
  EXPECT_TRUE(heap->spill_ok);
  EXPECT_EQ(heap->scope, RegionScope::kPerPe);
  const std::size_t chunk = (800 + cfg.pes_per_tile - 1) / cfg.pes_per_tile;
  EXPECT_EQ(heap->bytes, (chunk + 1) * kHeapNodeBytes);
  // Under PC the same heap is cacheable, not SPM.
  const auto pc = plan_op_regions(cfg, shape, /*ps=*/false);
  EXPECT_FALSE(pc.back().spm);
}

}  // namespace
}  // namespace cosparse::kernels
