// Kernel-level microbenchmarks (google-benchmark).
//
// These time the host-side building blocks — matrix assembly, dataset
// load, format conversions, partitioning, frontier conversions, the
// simulator's access path, the native SpMV kernels and the native baseline
// SpMV — so regressions in the reproduction's own performance are visible
// independently of the simulated results.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cpu_spmv.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "kernels/address_map.h"
#include "kernels/frontier.h"
#include "kernels/ip_spmv.h"
#include "kernels/op_spmv.h"
#include "kernels/partition.h"
#include "kernels/semiring.h"
#include "native/host_machine.h"
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

/// The fixture's 100th highest out-degree vertex: the recorded runs' source.
Index recorded_source() {
  const auto& deg = native_fixture().graph.out_degrees();
  std::vector<Index> by_degree(deg.size());
  for (Index v = 0; v < by_degree.size(); ++v) by_degree[v] = v;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](Index a, Index b) { return deg[a] > deg[b]; });
  return by_degree[100];
}

/// One recorded `min` pull: its frontier and the settled mask it runs under.
struct RecordedPull {
  kernels::DenseFrontier x;
  std::vector<std::uint8_t> settled;
};

/// A native BFS on the fixture from recorded_source(), recorded as
/// graph::bfs hands its frontiers to the engine: the push frontier with the
/// most edges (level 1: 1466 vertices, 461905 edges), and the pull frontier
/// with the most vertices with the visited mask it is pulled under.
struct RecordedBfs {
  sparse::SparseVector push;
  RecordedPull pull;
};

const RecordedBfs& recorded_bfs() {
  static const RecordedBfs bfs = [] {
    const auto& f = native_fixture();
    const auto& deg = f.graph.out_degrees();
    const Index n = f.graph.num_vertices();
    runtime::EngineOptions opts;
    opts.exec_mode = native::ExecMode::kNative;
    runtime::Engine eng(f.prepared, f.cfg, opts);
    const auto res = graph::bfs(eng, recorded_source());
    // Iteration i of a fresh engine's BFS takes the level-i vertices as
    // its frontier, with every vertex of level <= i visited.
    const auto frontier = [&](std::int64_t level) {
      sparse::SparseVector v(n);
      for (Index u = 0; u < n; ++u) {
        if (res.level[u] == level) v.push_back(u, static_cast<Value>(level));
      }
      return v;
    };
    const auto edges = [&](const sparse::SparseVector& v) {
      std::int64_t e = 0;
      for (const auto& entry : v.entries()) e += deg[entry.index];
      return e;
    };
    RecordedBfs out{sparse::SparseVector(n), {}};
    sparse::SparseVector pull(n);
    std::int64_t pull_level = -1;
    for (const auto& rec : eng.iterations()) {
      auto v = frontier(rec.index);
      if (rec.sw == runtime::SwConfig::kOP) {
        if (edges(v) > edges(out.push)) out.push = std::move(v);
      } else if (v.nnz() > pull.nnz()) {
        pull = std::move(v);
        pull_level = rec.index;
      }
    }
    out.pull.x = kernels::DenseFrontier::from_sparse(
        pull, kernels::BfsSemiring{}.vector_identity());
    out.pull.settled.assign(n, 0);
    for (Index u = 0; u < n; ++u) {
      out.pull.settled[u] = res.level[u] >= 0 && res.level[u] <= pull_level;
    }
    return out;
  }();
  return bfs;
}

/// A native SSSP on the fixture from recorded_source(), replaying
/// graph::sssp's loop to record the pull frontier with the most vertices
/// and the bound mask (graph::mark_sssp_settled) it runs under.
const RecordedPull& recorded_sssp() {
  static const RecordedPull sssp = [] {
    const auto& f = native_fixture();
    const Index n = f.graph.num_vertices();
    const Index source = recorded_source();
    runtime::EngineOptions opts;
    opts.exec_mode = native::ExecMode::kNative;
    runtime::Engine eng(f.prepared, f.cfg, opts);
    const kernels::SsspSemiring sr;
    std::vector<Value> dist(n, kernels::kInf);
    dist[source] = 0.0;
    sparse::SparseVector init(n);
    init.push_back(source, 0.0);
    auto frontier = runtime::Engine::Frontier::from_sparse(std::move(init));
    Value xmin = 0.0;
    std::vector<std::uint8_t> settled(n);
    RecordedPull widest;
    while (frontier.nnz() > 0) {
      graph::mark_sssp_settled(dist, xmin, eng.min_weight(), settled);
      const auto out = eng.spmv(frontier, sr, nullptr, settled);
      if (out.dense && frontier.nnz() > widest.x.num_active) {
        widest.x = frontier.dense ? frontier.df
                                  : kernels::DenseFrontier::from_sparse(
                                        frontier.sv, sr.vector_identity());
        widest.settled = settled;
      }
      sparse::SparseVector next(n);
      xmin = kernels::kInf;
      out.for_each_touched([&](Index v, Value cand) {
        if (!(cand < dist[v])) return;
        dist[v] = cand;
        next.push_back(v, cand);
        xmin = std::min(xmin, cand);
      });
      frontier = runtime::Engine::Frontier::from_sparse(std::move(next));
    }
    return widest;
  }();
  return sssp;
}

/// What BM_NativePull times: a PageRank iteration with every vertex
/// active, on the layout of its hw config, or a recorded `min` pull on the
/// SC layout the engine hands it, under its settled mask or none.
enum class PullCase { kPageRank, kBfs, kSssp, kSsspUnmasked };

void BM_NativePull(benchmark::State& state, sim::HwConfig hw, PullCase what) {
  const auto& f = native_fixture();
  const auto& layout =
      hw == sim::HwConfig::kSCS ? f.prepared->ip_scs : f.prepared->ip_sc;
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  std::optional<sim::ParallelExecutor> exec;
  if (threads > 0) exec.emplace(threads);
  sim::ParallelExecutor* pool = exec ? &*exec : nullptr;
  const auto time_recorded = [&](const RecordedPull& rec, auto sr,
                                 std::span<const std::uint8_t> settled) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          native::pull_spmv(f.cfg, hw, pool, layout, rec.x, sr, settled));
    }
    state.counters["frontier"] = static_cast<double>(rec.x.num_active);
    state.counters["settled"] = static_cast<double>(
        std::count(settled.begin(), settled.end(), 1));
  };
  switch (what) {
    case PullCase::kPageRank: {
      const auto x = kernels::DenseFrontier::from_dense(sparse::DenseVector(
          f.graph.num_vertices(), 1.0 / f.graph.num_vertices()));
      for (auto _ : state) {
        benchmark::DoNotOptimize(native::pull_spmv(
            f.cfg, hw, pool, layout, x, kernels::PageRankSemiring{}));
      }
      break;
    }
    case PullCase::kBfs:
      time_recorded(recorded_bfs().pull, kernels::BfsSemiring{},
                    recorded_bfs().pull.settled);
      break;
    case PullCase::kSssp:
      time_recorded(recorded_sssp(), kernels::SsspSemiring{},
                    recorded_sssp().settled);
      break;
    case PullCase::kSsspUnmasked:
      time_recorded(recorded_sssp(), kernels::SsspSemiring{}, {});
      break;
  }
  state.counters["vblocks"] = layout.num_vblocks();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(layout.nnz()));
}
BENCHMARK_CAPTURE(BM_NativePull, sc, sim::HwConfig::kSC, PullCase::kPageRank)
    ->ArgName("threads")->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NativePull, scs, sim::HwConfig::kSCS, PullCase::kPageRank)
    ->ArgName("threads")->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NativePull, bfs, sim::HwConfig::kSC, PullCase::kBfs)
    ->ArgName("threads")->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NativePull, sssp, sim::HwConfig::kSC, PullCase::kSssp)
    ->ArgName("threads")->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NativePull, sssp_unmasked, sim::HwConfig::kSC,
                  PullCase::kSsspUnmasked)
    ->ArgName("threads")->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// BFS push of recorded_bfs(): `merge` runs the simulator's heap
/// loop on the host machine (the native push before selecting reductions
/// scattered), `scatter` the native entry point. Their ratio is the
/// kernel-level gain of the scatter.
void BM_NativePush(benchmark::State& state, bool scatter) {
  const auto& f = native_fixture();
  const auto& x = recorded_bfs().push;
  const auto& deg = f.graph.out_degrees();
  std::int64_t edges = 0;
  for (const auto& e : x.entries()) edges += deg[e.index];
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  std::optional<sim::ParallelExecutor> exec;
  if (threads > 0) exec.emplace(threads);
  sim::ParallelExecutor* pool = exec ? &*exec : nullptr;
  const kernels::BfsSemiring sr;
  for (auto _ : state) {
    if (scatter) {
      benchmark::DoNotOptimize(native::push_spmsv(
          f.cfg, sim::HwConfig::kPC, pool, f.prepared->op, x, nullptr, sr));
    } else {
      native::HostMachine m(f.cfg, sim::HwConfig::kPC, pool);
      native::NullAddressMap amap;
      benchmark::DoNotOptimize(kernels::run_outer_product(
          m, amap, f.prepared->op, x, nullptr, sr));
    }
  }
  state.counters["frontier"] = static_cast<double>(x.nnz());
  state.counters["edges"] = static_cast<double>(edges);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          edges);
}
BENCHMARK_CAPTURE(BM_NativePush, merge, false)
    ->ArgName("threads")->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NativePush, scatter, true)
    ->ArgName("threads")->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
