// The MemProfiler contract: region-attributed counters are the *same*
// increments sim::Machine applies to its global Stats, keyed by region —
// so summed over every region and tile they reproduce the Stats counters
// bit-exactly, in every configuration and across reconfiguration flushes.
#include <gtest/gtest.h>

#include "kernels/address_map.h"
#include "kernels/frontier.h"
#include "kernels/ip_spmv.h"
#include "kernels/op_spmv.h"
#include "kernels/partition.h"
#include "kernels/semiring.h"
#include "runtime/engine.h"
#include "sim/machine.h"
#include "sim/profile.h"
#include "sparse/generate.h"

namespace cosparse::sim {
namespace {

void expect_matches_stats(const MemProfiler& prof, const Stats& s) {
  const RegionCounters t = prof.total();
  EXPECT_EQ(t.l1_hits, s.l1_hits);
  EXPECT_EQ(t.l1_misses, s.l1_misses);
  EXPECT_EQ(t.spm_accesses, s.spm_accesses);
  EXPECT_EQ(t.l2_hits, s.l2_hits);
  EXPECT_EQ(t.l2_misses, s.l2_misses);
  EXPECT_EQ(t.dram_read_bytes, s.dram_read_bytes);
  EXPECT_EQ(t.dram_write_bytes, s.dram_write_bytes);
  EXPECT_EQ(t.prefetch_lines, s.prefetch_lines);
  EXPECT_EQ(t.writeback_lines, s.writeback_lines);
  EXPECT_EQ(t.xbar_transfers, s.xbar_transfers);
  EXPECT_EQ(t.flushed_dirty_lines, s.flushed_dirty_lines);
}

constexpr Index kDim = 2048;
constexpr std::uint64_t kNnz = 20000;

class ProfileAllConfigs : public ::testing::TestWithParam<HwConfig> {};

TEST_P(ProfileAllConfigs, IpKernelSumsMatchStats) {
  const auto cfg = SystemConfig::transmuter(2, 4);
  Machine m(cfg, GetParam());
  MemProfiler prof;
  m.set_profiler(&prof);
  kernels::AddressMap amap(m);
  const auto mat = sparse::uniform_random(kDim, kDim, kNnz, 11,
                                          sparse::ValueDist::kUniform01);
  const auto part =
      kernels::IpPartitionedMatrix::build(mat, cfg.num_pes(), 512, true);
  const auto x = kernels::DenseFrontier::from_dense(
      sparse::random_dense_vector(kDim, 12));
  kernels::run_inner_product(m, amap, part, x, kernels::PlainSpmv{});
  expect_matches_stats(prof, m.stats());
}

TEST_P(ProfileAllConfigs, OpKernelSumsMatchStats) {
  const auto cfg = SystemConfig::transmuter(2, 4);
  Machine m(cfg, GetParam());
  MemProfiler prof;
  m.set_profiler(&prof);
  kernels::AddressMap amap(m);
  const auto mat = sparse::uniform_random(kDim, kDim, kNnz, 13,
                                          sparse::ValueDist::kUniform01);
  const auto striped =
      kernels::OpStripedMatrix::build(mat, cfg.num_tiles, true);
  const auto x = sparse::random_sparse_vector(kDim, 0.02, 14);
  kernels::run_outer_product(m, amap, striped, x, nullptr,
                             kernels::PlainSpmv{});
  expect_matches_stats(prof, m.stats());
}

TEST_P(ProfileAllConfigs, ReconfigureFlushStaysAttributed) {
  // Dirty lines in the caches, then a flush into every other config: the
  // flushed_dirty_lines and dram_write_bytes the flush produces must stay
  // accounted per region.
  Machine m(SystemConfig::transmuter(2, 4), GetParam());
  MemProfiler prof;
  m.set_profiler(&prof);
  const Addr a = m.alloc(1 << 15, "scratch");
  for (Addr off = 0; off < (1 << 15); off += 64) m.mem_write(0, a + off, 8);
  for (auto next :
       {HwConfig::kPC, HwConfig::kPS, HwConfig::kSCS, HwConfig::kSC}) {
    if (next == GetParam()) continue;
    m.reconfigure(next);
  }
  EXPECT_GT(m.stats().flushed_dirty_lines, 0u);
  expect_matches_stats(prof, m.stats());
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ProfileAllConfigs,
                         ::testing::Values(HwConfig::kSC, HwConfig::kSCS,
                                           HwConfig::kPC, HwConfig::kPS),
                         [](const ::testing::TestParamInfo<HwConfig>& info) {
                           return to_string(info.param);
                         });

TEST(Profile, EngineFullFlowSumsMatchStats) {
  // The real per-iteration flow — decisions, frontier conversions,
  // reconfiguration flushes, DMA — through a reconfiguring engine.
  const auto mat = sparse::uniform_random(kDim, kDim, kNnz, 21,
                                          sparse::ValueDist::kUniform01);
  runtime::Engine eng(mat, SystemConfig::transmuter(2, 4));
  MemProfiler prof;
  eng.machine().set_profiler(&prof);

  const auto sv = sparse::random_sparse_vector(kDim, 0.001, 22);
  eng.spmv(runtime::Engine::Frontier::from_sparse(sv), kernels::PlainSpmv{});
  const auto dv = kernels::DenseFrontier::from_dense(
      sparse::random_dense_vector(kDim, 23));
  eng.spmv(runtime::Engine::Frontier::from_dense(dv), kernels::PlainSpmv{});
  eng.spmv(runtime::Engine::Frontier::from_sparse(sv), kernels::PlainSpmv{});

  EXPECT_GT(eng.machine().stats().reconfigurations, 0u);
  expect_matches_stats(prof, eng.machine().stats());
}

TEST(Profile, SequentialMachinesAccumulateByLabel) {
  // One profiler across two machines: the address space restarts at zero,
  // but label-keyed counters keep accumulating (the bench summation mode).
  MemProfiler prof;
  const auto cfg = SystemConfig::transmuter(2, 4);
  std::uint64_t after_first = 0;
  {
    Machine m(cfg, HwConfig::kSC);
    m.set_profiler(&prof);
    const Addr a = m.alloc(4096, "work");
    for (Addr off = 0; off < 4096; off += 64) m.mem_read(0, a + off, 8);
    after_first = prof.find_region("work")->total().l1_misses;
    EXPECT_GT(after_first, 0u);
  }
  {
    Machine m(cfg, HwConfig::kSC);
    m.set_profiler(&prof);
    const Addr a = m.alloc(4096, "work");
    for (Addr off = 0; off < 4096; off += 64) m.mem_read(0, a + off, 8);
  }
  EXPECT_GT(prof.find_region("work")->total().l1_misses, after_first);
}

TEST(Profile, UnlabeledAllocationsBucketTogether) {
  Machine m(SystemConfig::transmuter(2, 4), HwConfig::kSC);
  MemProfiler prof;
  m.set_profiler(&prof);
  const Addr a = m.alloc(4096);  // no label
  m.mem_read(0, a, 8);
  const MemProfiler::Region* r = prof.find_region("unlabeled");
  ASSERT_NE(r, nullptr);
  EXPECT_GT(r->total().l1_misses + r->total().l1_hits, 0u);
  expect_matches_stats(prof, m.stats());
}

TEST(Profile, ReuseDistanceSamplesRepeatAccesses) {
  Machine m(SystemConfig::transmuter(1, 2), HwConfig::kSC);
  MemProfiler prof(/*sample_period=*/1);
  m.set_profiler(&prof);
  const Addr a = m.alloc(64, "hot");
  for (int i = 0; i < 10; ++i) m.mem_read(0, a, 8);
  const MemProfiler::Region* r = prof.find_region("hot");
  ASSERT_NE(r, nullptr);
  // 10 uses of one tracked line -> 9 recorded reuse distances.
  EXPECT_EQ(r->reuse_samples, 9u);
}

TEST(Profile, ToJsonTotalsMirrorStatsNames) {
  Machine m(SystemConfig::transmuter(2, 4), HwConfig::kSC);
  MemProfiler prof;
  m.set_profiler(&prof);
  const Addr a = m.alloc(8192, "x");
  for (Addr off = 0; off < 8192; off += 64) m.mem_read(0, a + off, 8);
  const Json profile = prof.to_json();
  const Json stats = m.stats().to_json();
  const Json* totals = profile.find("totals");
  ASSERT_NE(totals, nullptr);
  // Every memory_profile total that shares a name with a Stats counter
  // must equal it exactly (`cosparse-lint report` enforces the same).
  std::size_t shared = 0;
  for (const auto& [name, value] : totals->members()) {
    const Json* g = stats.find(name);
    if (g == nullptr) continue;
    ++shared;
    EXPECT_EQ(value.as_int(), g->as_int()) << name;
  }
  EXPECT_EQ(shared, 11u);  // the mirrored counter set
}

}  // namespace
}  // namespace cosparse::sim
