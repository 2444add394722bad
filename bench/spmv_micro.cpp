// Kernel-level microbenchmarks (google-benchmark).
//
// These time the host-side building blocks — matrix assembly, dataset
// load, format conversions, partitioning, frontier conversions, the
// simulator's access path and the native baseline SpMV — so regressions in
// the reproduction's own performance are visible independently of the
// simulated results.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "baselines/cpu_spmv.h"
#include "common/rng.h"
#include "kernels/address_map.h"
#include "kernels/frontier.h"
#include "kernels/ip_spmv.h"
#include "kernels/op_spmv.h"
#include "kernels/partition.h"
#include "sim/machine.h"
#include "sparse/datasets.h"
#include "sparse/generate.h"

namespace {

using namespace cosparse;

const sparse::Coo& test_matrix() {
  static const sparse::Coo m = sparse::uniform_random(
      1 << 16, 1 << 16, 1 << 20, 42, sparse::ValueDist::kUniform01);
  return m;
}

void BM_CooToCsr(benchmark::State& state) {
  const auto& m = test_matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::coo_to_csr(m));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.nnz()));
}
BENCHMARK(BM_CooToCsr);

void BM_CooToCsc(benchmark::State& state) {
  const auto& m = test_matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::coo_to_csc(m));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.nnz()));
}
BENCHMARK(BM_CooToCsc);

void BM_Transpose(benchmark::State& state) {
  const auto& m = test_matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::transpose(m));
  }
}
BENCHMARK(BM_Transpose);

void BM_CooAssemble(benchmark::State& state, bool canonical) {
  // Coo canonicalization of a twitter-sized triplet list (1,768,149 entries
  // in an 81,306-square matrix), shuffled or already in canonical order;
  // both go through the same radix sort and merge. The input copy is not
  // timed.
  constexpr Index kN = 81306;
  static const std::vector<sparse::Triplet> sorted =
      sparse::uniform_random(kN, kN, 1768149, 11,
                             sparse::ValueDist::kUniformInt)
          .triplets();
  std::vector<sparse::Triplet> input = sorted;
  if (!canonical) {
    Rng rng(13, "bench.coo_assemble");
    for (std::size_t i = input.size(); i > 1; --i) {
      std::swap(input[i - 1], input[rng.next_below(i)]);
    }
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<sparse::Triplet> copy = input;
    state.ResumeTiming();
    benchmark::DoNotOptimize(sparse::Coo(kN, kN, std::move(copy)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}
BENCHMARK_CAPTURE(BM_CooAssemble, shuffled, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CooAssemble, canonical, true)
    ->Unit(benchmark::kMillisecond);

void BM_DatasetLoad(benchmark::State& state, const char* name,
                    unsigned scale) {
  // Stand-in generation end to end (DatasetRegistry::load without a cache
  // directory): R-MAT sampling, folding, top-up and one canonicalization.
  const sparse::DatasetRegistry registry;
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.load(name, scale));
  }
}
BENCHMARK_CAPTURE(BM_DatasetLoad, twitter_64, "twitter", 64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DatasetLoad, pokec_64, "pokec", 64)
    ->Unit(benchmark::kMillisecond);

void BM_IpPartitionBuild(benchmark::State& state) {
  const auto& m = test_matrix();
  const auto pes = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::IpPartitionedMatrix::build(m, pes, 4096));
  }
}
BENCHMARK(BM_IpPartitionBuild)->Arg(32)->Arg(256);

void BM_OpStripeBuild(benchmark::State& state) {
  const auto& m = test_matrix();
  const auto tiles = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::OpStripedMatrix::build(m, tiles));
  }
}
BENCHMARK(BM_OpStripeBuild)->Arg(4)->Arg(16);

void BM_FrontierSparseToDense(benchmark::State& state) {
  const auto sv = sparse::random_sparse_vector(1 << 20, 0.05, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::DenseFrontier::from_sparse(sv, 0.0));
  }
}
BENCHMARK(BM_FrontierSparseToDense);

void BM_SimCacheAccessPath(benchmark::State& state) {
  // Throughput of the simulator's hot path: one PE reading through the
  // hierarchy of the HwConfig in range(0) (SC, SCS, PC, PS), either as a
  // sequential stream (range(1) == 0) or at seeded random addresses.
  const auto hw = static_cast<sim::HwConfig>(state.range(0));
  const bool random = state.range(1) != 0;
  const auto cfg = sim::SystemConfig::transmuter(2, 8);
  sim::Machine machine(cfg, hw);
  constexpr std::size_t kSpan = std::size_t{1} << 22;
  const Addr base = machine.alloc(kSpan, "bench.stream");
  // Random addresses are drawn before timing, so the loop times no RNG.
  std::vector<Addr> addrs;
  if (random) {
    Rng rng(7, "bench.sim_access");
    addrs.resize(std::size_t{1} << 16);
    for (Addr& a : addrs) a = base + rng.next_below(kSpan / 8) * 8;
  }
  std::size_t i = 0;
  Addr stream = base;
  for (auto _ : state) {
    if (random) {
      machine.mem_read(0, addrs[i], 8);
      i = (i + 1) & (addrs.size() - 1);
    } else {
      machine.mem_read(0, stream, 8);
      stream += 8;
      if (stream >= base + kSpan) stream = base;
    }
  }
  benchmark::DoNotOptimize(machine.cycles());
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(sim::to_string(hw)) +
                 (random ? " random" : " stream"));
}
BENCHMARK(BM_SimCacheAccessPath)
    ->ArgNames({"hw", "random"})
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}});

void BM_SimIpKernel(benchmark::State& state) {
  const auto m = sparse::uniform_random(1 << 14, 1 << 14, 1 << 18, 5,
                                        sparse::ValueDist::kUniform01);
  const auto cfg = sim::SystemConfig::transmuter(2, 8);
  const auto xf = kernels::DenseFrontier::from_dense(
      sparse::random_dense_vector(1 << 14, 6));
  const auto part = kernels::IpPartitionedMatrix::build(m, cfg.num_pes(), 4096);
  for (auto _ : state) {
    sim::Machine machine(cfg, sim::HwConfig::kSC);
    kernels::AddressMap amap(machine);
    benchmark::DoNotOptimize(kernels::run_inner_product(
        machine, amap, part, xf, kernels::PlainSpmv{}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.nnz()));
}
BENCHMARK(BM_SimIpKernel);

void BM_SimOpKernel(benchmark::State& state) {
  const auto m = sparse::uniform_random(1 << 14, 1 << 14, 1 << 18, 5,
                                        sparse::ValueDist::kUniform01);
  const auto cfg = sim::SystemConfig::transmuter(2, 8);
  const auto xs = sparse::random_sparse_vector(1 << 14, 0.05, 8);
  const auto striped = kernels::OpStripedMatrix::build(m, cfg.num_tiles);
  for (auto _ : state) {
    sim::Machine machine(cfg, sim::HwConfig::kPS);
    kernels::AddressMap amap(machine);
    benchmark::DoNotOptimize(kernels::run_outer_product(
        machine, amap, striped, xs, nullptr, kernels::PlainSpmv{}));
  }
}
BENCHMARK(BM_SimOpKernel);

void BM_SimIpKernel16Tiles(benchmark::State& state) {
  // The serial simulator on a 16-tile system.
  const auto m = sparse::uniform_random(1 << 14, 1 << 14, 1 << 18, 5,
                                        sparse::ValueDist::kUniform01);
  const auto cfg = sim::SystemConfig::transmuter(16, 4);
  const auto xf = kernels::DenseFrontier::from_dense(
      sparse::random_dense_vector(1 << 14, 6));
  const auto part = kernels::IpPartitionedMatrix::build(m, cfg.num_pes(), 4096);
  for (auto _ : state) {
    sim::Machine machine(cfg, sim::HwConfig::kSC);
    kernels::AddressMap amap(machine);
    benchmark::DoNotOptimize(kernels::run_inner_product(
        machine, amap, part, xf, kernels::PlainSpmv{}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.nnz()));
}
BENCHMARK(BM_SimIpKernel16Tiles);

void BM_SimOpKernel16Tiles(benchmark::State& state) {
  const auto m = sparse::uniform_random(1 << 14, 1 << 14, 1 << 18, 5,
                                        sparse::ValueDist::kUniform01);
  const auto cfg = sim::SystemConfig::transmuter(16, 4);
  const auto xs = sparse::random_sparse_vector(1 << 14, 0.05, 8);
  const auto striped = kernels::OpStripedMatrix::build(m, cfg.num_tiles);
  for (auto _ : state) {
    sim::Machine machine(cfg, sim::HwConfig::kPC);
    kernels::AddressMap amap(machine);
    benchmark::DoNotOptimize(kernels::run_outer_product(
        machine, amap, striped, xs, nullptr, kernels::PlainSpmv{}));
  }
}
BENCHMARK(BM_SimOpKernel16Tiles);

void BM_NativeCpuSpmv(benchmark::State& state) {
  const auto csr = sparse::coo_to_csr(test_matrix());
  const auto x = sparse::random_dense_vector(csr.cols(), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::cpu_spmv(csr, x, 1, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(csr.nnz()));
}
BENCHMARK(BM_NativeCpuSpmv);

}  // namespace

BENCHMARK_MAIN();
