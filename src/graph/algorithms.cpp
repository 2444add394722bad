#include "graph/algorithms.h"

#include <chrono>
#include <cmath>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "kernels/semiring.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"

namespace cosparse::graph {
namespace {

using kernels::DenseFrontier;
using runtime::Engine;
using sparse::SparseVector;

/// Captures engine totals at algorithm start, slices out the algorithm's
/// own contribution at the end, appends it to the engine's algorithm-run
/// log (the report's algo.<name>.* counters) and publishes it into the
/// attached telemetry registry.
class AlgoRun {
 public:
  AlgoRun(Engine& eng, const char* algo)
      : eng_(&eng),
        algo_(algo),
        phase_(obs::intern_phase_tag(std::string("graph.") + algo)),
        start_cycles_(eng.total_cycles()),
        start_energy_(eng.total_energy_pj()),
        start_log_(eng.iterations().size()),
        wall_begin_(  // cosparse-lint: allow(determinism)
            std::chrono::steady_clock::now()) {}

  AlgoStats finish() const {
    AlgoStats s;
    s.cycles = eng_->total_cycles() - start_cycles_;
    s.energy_pj = eng_->total_energy_pj() - start_energy_;
    s.per_iteration.assign(eng_->iterations().begin() +
                               static_cast<std::ptrdiff_t>(start_log_),
                           eng_->iterations().end());
    s.iterations = static_cast<std::uint32_t>(s.per_iteration.size());
    eng_->record_algo_run({algo_, s.iterations, s.cycles});
    if (obs::Telemetry* tel = eng_->telemetry(); tel != nullptr) {
      const std::string prefix = std::string("algo.") + algo_;
      tel->histogram(prefix + ".wall_ms")
          .observe(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() -  // cosparse-lint: allow(determinism)
                       wall_begin_)
                       .count());
      auto& iter_cycles = tel->histogram(prefix + ".iter_cycles");
      auto& frontier_nnz = tel->histogram(prefix + ".frontier_nnz");
      for (const runtime::IterationRecord& r : s.per_iteration) {
        iter_cycles.observe(static_cast<double>(r.cycles));
        frontier_nnz.observe(static_cast<double>(r.frontier_nnz));
      }
    }
    return s;
  }

 private:
  Engine* eng_;
  const char* algo_;
  obs::PhaseScope phase_;  ///< tags host samples with "graph.<algo>"
  Cycles start_cycles_;
  Picojoules start_energy_;
  std::size_t start_log_;
  std::chrono::steady_clock::time_point wall_begin_;
};

}  // namespace

std::uint32_t AlgoStats::sw_switches() const {
  std::uint32_t n = 0;
  for (const auto& r : per_iteration) n += r.sw_switched ? 1 : 0;
  return n;
}

std::uint32_t AlgoStats::hw_switches() const {
  std::uint32_t n = 0;
  for (const auto& r : per_iteration) n += r.hw_switched ? 1 : 0;
  return n;
}

BfsResult bfs(Engine& eng, Index source) {
  const Index n = eng.dimension();
  COSPARSE_REQUIRE(source < n, "BFS source vertex out of range");
  AlgoRun run(eng, "bfs");

  BfsResult res;
  res.level.assign(n, -1);
  res.level[source] = 0;
  // Visited vertices, passed to spmv() as settled rows: the apply below
  // reads only unvisited rows, so a native pull may skip the rest.
  std::vector<std::uint8_t> visited(n, 0);
  visited[source] = 1;

  SparseVector init(n);
  init.push_back(source, 0.0);
  Engine::Frontier f = Engine::Frontier::from_sparse(std::move(init));

  const kernels::BfsSemiring sr;
  std::int64_t depth = 0;
  while (f.nnz() > 0) {
    const auto out = eng.spmv(f, sr, nullptr, visited);
    ++depth;
    // Apply: unvisited touched vertices join the next frontier at `depth`.
    std::size_t added = 0;
    if (out.dense) {
      DenseFrontier next(n, sr.vector_identity());
      out.for_each_touched([&](Index v, Value) {
        if (visited[v] == 0) {
          visited[v] = 1;
          res.level[v] = depth;
          next.set(v, static_cast<Value>(depth));
          ++added;
        }
      });
      eng.charge_vector_pass(out.num_touched(), 2, 16);
      f = Engine::Frontier::from_dense(std::move(next));
    } else {
      SparseVector next(n);
      out.for_each_touched([&](Index v, Value) {
        if (visited[v] == 0) {
          visited[v] = 1;
          res.level[v] = depth;
          next.push_back(v, static_cast<Value>(depth));
          ++added;
        }
      });
      eng.charge_vector_pass(out.num_touched(), 2, 16);
      f = Engine::Frontier::from_sparse(std::move(next));
    }
    if (added == 0) break;
  }
  res.stats = run.finish();
  return res;
}

SsspResult sssp(Engine& eng, Index source, std::uint32_t max_iterations) {
  const Index n = eng.dimension();
  COSPARSE_REQUIRE(source < n, "SSSP source vertex out of range");
  if (max_iterations == 0) {
    max_iterations = n > 0 ? n - 1 : 0;  // Bellman-Ford bound
  }
  AlgoRun run(eng, "sssp");

  SsspResult res;
  res.dist.assign(n, kernels::kInf);
  res.dist[source] = 0.0;

  SparseVector init(n);
  init.push_back(source, 0.0);
  Engine::Frontier f = Engine::Frontier::from_sparse(std::move(init));

  const kernels::SsspSemiring sr;
  for (std::uint32_t it = 0; it < max_iterations && f.nnz() > 0; ++it) {
    const auto out = eng.spmv(f, sr);
    // Apply (the min(..., V_dst) half of Table I's Matrix_Op): keep only
    // real improvements; improved vertices form the next frontier.
    std::size_t improved = 0;
    if (out.dense) {
      DenseFrontier next(n, sr.vector_identity());
      out.for_each_touched([&](Index v, Value cand) {
        if (cand < res.dist[v]) {
          res.dist[v] = cand;
          next.set(v, cand);
          ++improved;
        }
      });
      eng.charge_vector_pass(out.num_touched(), 2, 16);
      f = Engine::Frontier::from_dense(std::move(next));
    } else {
      SparseVector next(n);
      out.for_each_touched([&](Index v, Value cand) {
        if (cand < res.dist[v]) {
          res.dist[v] = cand;
          next.push_back(v, cand);
          ++improved;
        }
      });
      eng.charge_vector_pass(out.num_touched(), 2, 16);
      f = Engine::Frontier::from_sparse(std::move(next));
    }
    if (improved == 0) break;
  }
  res.stats = run.finish();
  return res;
}

PageRankResult pagerank(Engine& eng, std::span<const Index> out_degrees,
                        PageRankOptions opts) {
  const Index n = eng.dimension();
  COSPARSE_REQUIRE(out_degrees.size() == n,
                   "out_degrees size must match the graph");
  AlgoRun run(eng, "pagerank");

  PageRankResult res;
  res.rank.assign(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);

  const kernels::PageRankSemiring sr;
  for (std::uint32_t it = 0; it < opts.max_iterations; ++it) {
    // Vector_Op pre-pass: contributions V[src] / deg(src) (Table I).
    DenseFrontier contrib(n, 0.0);
    for (Index v = 0; v < n; ++v) {
      contrib.set(v, out_degrees[v] > 0
                         ? res.rank[v] / static_cast<double>(out_degrees[v])
                         : 0.0);
    }
    eng.charge_vector_pass(n, 2, 16);

    const auto out =
        eng.spmv(Engine::Frontier::from_dense(std::move(contrib)), sr);
    COSPARSE_CHECK(out.dense);  // density 1.0 must select IP

    // Vector_Op post-pass: alpha + (1 - alpha) * V_updated, plus the
    // convergence residual.
    double residual = 0.0;
    const double teleport =
        (1.0 - opts.damping) / static_cast<double>(n);
    for (Index v = 0; v < n; ++v) {
      const double incoming = out.ip.touched[v] ? out.ip.y[v] : 0.0;
      const double next = teleport + opts.damping * incoming;
      residual += std::abs(next - res.rank[v]);
      res.rank[v] = next;
    }
    eng.charge_vector_pass(n, 3, 16);

    res.residual = residual;
    if (residual < opts.tolerance) break;
  }
  res.stats = run.finish();
  return res;
}

CcResult connected_components(Engine& eng) {
  const Index n = eng.dimension();
  AlgoRun run(eng, "cc");

  CcResult res;
  res.component.resize(n);
  for (Index v = 0; v < n; ++v) res.component[v] = v;

  // Initial frontier: every vertex proposes its own id (dense, labels are
  // the vertex ids themselves).
  kernels::DenseFrontier init(n, kernels::kInf);
  for (Index v = 0; v < n; ++v) init.set(v, static_cast<Value>(v));
  eng.charge_vector_pass(n, 1, 8);
  Engine::Frontier f = Engine::Frontier::from_dense(std::move(init));

  const kernels::BfsSemiring sr;  // min-label propagation
  while (f.nnz() > 0) {
    const auto out = eng.spmv(f, sr);
    std::size_t improved = 0;
    if (out.dense) {
      kernels::DenseFrontier next(n, sr.vector_identity());
      out.for_each_touched([&](Index v, Value label) {
        const auto cand = static_cast<Index>(label);
        if (cand < res.component[v]) {
          res.component[v] = cand;
          next.set(v, label);
          ++improved;
        }
      });
      eng.charge_vector_pass(out.num_touched(), 2, 16);
      f = Engine::Frontier::from_dense(std::move(next));
    } else {
      sparse::SparseVector next(n);
      out.for_each_touched([&](Index v, Value label) {
        const auto cand = static_cast<Index>(label);
        if (cand < res.component[v]) {
          res.component[v] = cand;
          next.push_back(v, label);
          ++improved;
        }
      });
      eng.charge_vector_pass(out.num_touched(), 2, 16);
      f = Engine::Frontier::from_sparse(std::move(next));
    }
    if (improved == 0) break;
  }

  // Count distinct representatives (a representative labels itself).
  for (Index v = 0; v < n; ++v) {
    if (res.component[v] == v) ++res.num_components;
  }
  res.stats = run.finish();
  return res;
}

CfResult cf(Engine& eng, const sparse::Coo& ratings, CfOptions opts) {
  const Index n = eng.dimension();
  COSPARSE_REQUIRE(ratings.rows() == n && ratings.cols() == n,
                   "ratings matrix must match the engine's graph");
  AlgoRun run(eng, "cf");

  CfResult res;
  res.latent.assign(n, 0.0);
  Rng rng(opts.seed);
  for (Index v = 0; v < n; ++v) {
    res.latent[v] = 0.1 + 0.4 * rng.next_double();
  }

  auto loss = [&] {
    double l = 0.0;
    for (const auto& t : ratings.triplets()) {
      const double e = t.value - res.latent[t.row] * res.latent[t.col];
      l += e * e;
    }
    double reg = 0.0;
    for (Index v = 0; v < n; ++v) reg += res.latent[v] * res.latent[v];
    return l + opts.lambda * reg;
  };

  const kernels::CfSemiring sr{.lambda = opts.lambda};
  for (std::uint32_t it = 0; it < opts.iterations; ++it) {
    const sparse::DenseVector latent_dense(res.latent);
    const auto frontier =
        Engine::Frontier::from_dense(DenseFrontier::from_dense(latent_dense));
    const auto out = eng.spmv(frontier, sr, &latent_dense);
    COSPARSE_CHECK(out.dense);  // density 1.0 must select IP

    // Vector_Op: beta * V_updated + V (gradient step, Table I).
    out.for_each_touched([&](Index v, Value grad) {
      res.latent[v] += opts.beta * grad;
    });
    eng.charge_vector_pass(n, 2, 16);
    res.loss_per_iteration.push_back(loss());
  }
  res.stats = run.finish();
  return res;
}

}  // namespace cosparse::graph
