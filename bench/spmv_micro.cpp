// Kernel-level microbenchmarks (google-benchmark).
//
// These time the host-side building blocks — format conversions,
// partitioning, frontier conversions, the simulator's access path and the
// native baseline SpMV — so regressions in the reproduction's own
// performance are visible independently of the simulated results.
#include <benchmark/benchmark.h>

#include "baselines/cpu_spmv.h"
#include "kernels/address_map.h"
#include "kernels/frontier.h"
#include "kernels/ip_spmv.h"
#include "kernels/op_spmv.h"
#include "kernels/partition.h"
#include "sim/machine.h"
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
  // Throughput of the simulator's hot path: one PE streaming reads.
  const auto cfg = sim::SystemConfig::transmuter(2, 8);
  sim::Machine machine(cfg, sim::HwConfig::kSC);
  const Addr base = machine.alloc(1 << 22, "bench.stream");
  Addr a = base;
  for (auto _ : state) {
    machine.mem_read(0, a, 8);
    a += 8;
    if (a >= base + (1 << 22)) a = base;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimCacheAccessPath);

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
