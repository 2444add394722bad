// Kernel-level microbenchmarks (google-benchmark).
//
// These time the host-side building blocks — matrix assembly, dataset
// load, format conversions, partitioning, frontier conversions, the
// simulator's access path, the native SpMV kernels and the native baseline
// SpMV — so regressions in the reproduction's own performance are visible
// independently of the simulated results.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <optional>
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
#include "kernels/semiring.h"
#include "native/spmv.h"
#include "runtime/engine.h"
#include "sim/machine.h"
#include "sim/parallel.h"
#include "sparse/datasets.h"
#include "sparse/generate.h"
#include "sparse/graph.h"

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

// Native kernels on twitter/1 with the perfbench system (8x8), through the
// same entry points an Engine uses. Wall time on a shared host is noisy:
// compare the minimum of --benchmark_repetitions=5.
struct NativeFixture {
  sim::SystemConfig cfg = sim::SystemConfig::transmuter(8, 8);
  sparse::Graph graph = sparse::DatasetRegistry{}.load("twitter", 1);
  std::shared_ptr<const runtime::PreparedMatrix> prepared =
      runtime::prepare_matrix(graph.adjacency(), cfg);
};

const NativeFixture& native_fixture() {
  static const NativeFixture f;
  return f;
}

void BM_NativePull(benchmark::State& state, sim::HwConfig hw) {
  // A PageRank iteration: every vertex active.
  const auto& f = native_fixture();
  const auto& layout =
      hw == sim::HwConfig::kSCS ? f.prepared->ip_scs : f.prepared->ip_sc;
  const auto x = kernels::DenseFrontier::from_dense(sparse::DenseVector(
      f.graph.num_vertices(), 1.0 / f.graph.num_vertices()));
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  std::optional<sim::ParallelExecutor> exec;
  if (threads > 0) exec.emplace(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(native::pull_spmv(f.cfg, hw,
                                               exec ? &*exec : nullptr, layout,
                                               x, kernels::PageRankSemiring{}));
  }
  state.counters["vblocks"] = layout.num_vblocks();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(layout.nnz()));
}
BENCHMARK_CAPTURE(BM_NativePull, sc, sim::HwConfig::kSC)
    ->ArgName("threads")->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NativePull, scs, sim::HwConfig::kSCS)
    ->ArgName("threads")->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_NativePush(benchmark::State& state) {
  // A BFS push from the 170 highest out-degree vertices.
  const auto& f = native_fixture();
  const auto& deg = f.graph.out_degrees();
  std::vector<Index> by_degree(deg.size());
  for (Index v = 0; v < by_degree.size(); ++v) by_degree[v] = v;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](Index a, Index b) { return deg[a] > deg[b]; });
  by_degree.resize(170);
  std::sort(by_degree.begin(), by_degree.end());
  sparse::SparseVector x(f.graph.num_vertices());
  std::int64_t edges = 0;
  for (const Index v : by_degree) {
    x.push_back(v, 0.0);
    edges += deg[v];
  }
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  std::optional<sim::ParallelExecutor> exec;
  if (threads > 0) exec.emplace(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(native::push_spmsv(
        f.cfg, sim::HwConfig::kPC, exec ? &*exec : nullptr, f.prepared->op, x,
        nullptr, kernels::BfsSemiring{}));
  }
  state.counters["edges"] = static_cast<double>(edges);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          edges);
}
BENCHMARK(BM_NativePush)
    ->ArgName("threads")->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
