// The run report's "metrics" section (runtime::metrics_view) on hand-built
// iteration, decision and algorithm-run records.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/report.h"

namespace cosparse::runtime {
namespace {

IterationRecord iteration(double density, sim::HwConfig hw = sim::HwConfig::kSC,
                          Cycles cycles = 0) {
  IterationRecord rec;
  rec.density = density;
  rec.hw = hw;
  rec.cycles = cycles;
  return rec;
}

const Json& counter(const Json& metrics, const char* name) {
  const Json* c = metrics.find("counters")->find(name);
  EXPECT_NE(c, nullptr) << name;
  return *c;
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperBounds) {
  const std::vector<IterationRecord> iters = {
      iteration(5e-5),   // bucket 0
      iteration(1e-4),   // inclusive -> bucket 0
      iteration(1e-3),   // inclusive -> bucket 1
      iteration(0.3),    // (0.25, 0.5] -> bucket 6
      iteration(1.0),    // inclusive -> bucket 7
      iteration(1.5)};   // overflow
  const Json m = metrics_view(iters, {}, {}, native::ExecMode::kSim);
  const Json& h = *m.find("histograms")->find("engine.frontier_density");
  EXPECT_EQ(h.find("count")->as_int(), 6);
  EXPECT_DOUBLE_EQ(h.find("sum")->as_double(),
                   5e-5 + 1e-4 + 1e-3 + 0.3 + 1.0 + 1.5);
  const Json& b = *h.find("bucket_counts");
  ASSERT_EQ(b.size(), 9u);
  const std::int64_t want[] = {2, 1, 0, 0, 0, 0, 1, 1, 1};
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b.at(i).as_int(), want[i]) << "bucket " << i;
  }
}

TEST(Metrics, ToJsonOmitsEmptySectionsAndKeepsExactCounts) {
  EXPECT_EQ(metrics_view({}, {}, {}, native::ExecMode::kSim).dump(), "{}");

  // 2^53 + 1 is not representable as a double: counters must stay integral.
  const Cycles big = (Cycles{1} << 53) + 1;
  const std::vector<AlgoRunRecord> runs = {{"bfs", 3, big}};
  const Json m = metrics_view({}, {}, runs, native::ExecMode::kSim);
  EXPECT_EQ(counter(m, "algo.bfs.runs").as_int(), 1);
  EXPECT_EQ(counter(m, "algo.bfs.iterations").as_int(), 3);
  EXPECT_EQ(static_cast<Cycles>(counter(m, "algo.bfs.cycles").as_int()), big);
  EXPECT_EQ(m.find("gauges"), nullptr);
  EXPECT_EQ(m.find("histograms"), nullptr);
}

TEST(Metrics, HistogramToJsonStructure) {
  const std::vector<IterationRecord> iters = {iteration(0.05), iteration(0.3),
                                              iteration(0.9)};
  const Json m = metrics_view(iters, {}, {}, native::ExecMode::kSim);
  const Json* hist = m.find("histograms")->find("engine.frontier_density");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->as_int(), 3);
  EXPECT_EQ(hist->find("bounds")->size(), 8u);
  EXPECT_EQ(hist->find("bounds")->at(0).as_double(), 1e-4);
  EXPECT_EQ(hist->find("bounds")->at(7).as_double(), 1.0);
  EXPECT_EQ(hist->find("bucket_counts")->size(), 9u);
}

TEST(Metrics, CycleCountersInSimKernelCountersInNative) {
  std::vector<IterationRecord> iters = {
      iteration(0.4, sim::HwConfig::kSCS, 100),
      iteration(0.001, sim::HwConfig::kPC, 7),
      iteration(0.5, sim::HwConfig::kSCS, 20)};
  iters[1].sw = SwConfig::kOP;
  iters[1].sw_switched = true;
  iters[1].converted_frontier = true;
  DecisionRecord forced;
  forced.forced_sw = true;
  forced.sw = SwConfig::kOP;
  forced.hw = sim::HwConfig::kPS;
  const std::vector<DecisionRecord> decisions = {forced};

  const Json sim = metrics_view(iters, decisions, {}, native::ExecMode::kSim);
  EXPECT_EQ(counter(sim, "engine.iterations").as_int(), 3);
  EXPECT_EQ(counter(sim, "engine.sw_switches").as_int(), 1);
  EXPECT_EQ(counter(sim, "engine.frontier_conversions").as_int(), 1);
  EXPECT_EQ(sim.find("counters")->find("engine.hw_switches"), nullptr);
  EXPECT_EQ(counter(sim, "engine.cycles.SCS").as_int(), 120);
  EXPECT_EQ(counter(sim, "engine.cycles.PC").as_int(), 7);
  // Forced-SW decisions are audited, so they are counted too.
  EXPECT_EQ(counter(sim, "decision.sw.OP").as_int(), 1);
  EXPECT_EQ(counter(sim, "decision.hw.PS").as_int(), 1);
  EXPECT_EQ(sim.find("counters")->find("native.kernel.pull"), nullptr);

  const Json nat = metrics_view(iters, decisions, {}, native::ExecMode::kNative);
  EXPECT_EQ(counter(nat, "native.kernel.pull").as_int(), 2);
  EXPECT_EQ(counter(nat, "native.kernel.push").as_int(), 1);
  EXPECT_EQ(nat.find("counters")->find("engine.cycles.SCS"), nullptr);
}

}  // namespace
}  // namespace cosparse::runtime
