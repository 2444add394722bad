#include "baselines/ligra/apps.h"

#include <atomic>
#include <cmath>
#include <limits>

#include "baselines/ligra/edge_map.h"
#include "baselines/power.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stopwatch.h"

namespace cosparse::baselines::ligra {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relaxed atomic load/store of a plain slot that other edge-map threads
/// may CAS or write_min concurrently (a plain access would be a data race).
template <class T>
T load_relaxed(T& slot) {
  return std::atomic_ref<T>(slot).load(std::memory_order_relaxed);
}

template <class T>
void store_relaxed(T& slot, T value) {
  std::atomic_ref<T>(slot).store(value, std::memory_order_relaxed);
}

/// Atomic compare-and-swap on a plain int64 slot (Ligra's CAS idiom).
bool cas_i64(std::int64_t* slot, std::int64_t expected, std::int64_t desired) {
  std::atomic_ref<std::int64_t> ref(*slot);
  return ref.compare_exchange_strong(expected, desired,
                                     std::memory_order_relaxed);
}

/// Atomic min on a double slot; returns true if it lowered the value.
bool write_min(double* slot, double value) {
  std::atomic_ref<double> ref(*slot);
  double cur = ref.load(std::memory_order_relaxed);
  while (value < cur) {
    if (ref.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace

LigraBfsResult ligra_bfs(const LigraGraph& g, Index source, unsigned threads) {
  COSPARSE_REQUIRE(source < g.n, "ligra_bfs: source out of range");
  LigraBfsResult res;
  res.parent.assign(g.n, -1);
  res.level.assign(g.n, -1);

  Stopwatch sw;
  res.parent[source] = static_cast<std::int64_t>(source);
  res.level[source] = 0;

  struct BfsF {
    std::int64_t* parent;
    std::int64_t* level;
    std::int64_t depth;
    bool update(Index u, Index v, Value) const {
      if (load_relaxed(parent[v]) == -1) {
        parent[v] = static_cast<std::int64_t>(u);
        level[v] = depth;
        return true;
      }
      return false;
    }
    bool update_atomic(Index u, Index v, Value) const {
      if (cas_i64(&parent[v], -1, static_cast<std::int64_t>(u))) {
        level[v] = depth;
        return true;
      }
      return false;
    }
    bool cond(Index v) const { return load_relaxed(parent[v]) == -1; }
  };

  EdgeMapOptions opts;
  opts.threads = threads;
  VertexSubset frontier = VertexSubset::single(g.n, source);
  std::int64_t depth = 0;
  while (!frontier.empty()) {
    ++depth;
    BfsF f{res.parent.data(), res.level.data(), depth};
    frontier = edge_map(g, frontier, f, opts);
    ++res.costs.iterations;
  }
  res.costs.seconds = sw.seconds();
  res.costs.joules = res.costs.seconds * kXeonWatts;
  return res;
}

LigraSsspResult ligra_sssp(const LigraGraph& g, Index source,
                           unsigned threads) {
  COSPARSE_REQUIRE(source < g.n, "ligra_sssp: source out of range");
  LigraSsspResult res;
  res.dist.assign(g.n, kInf);

  Stopwatch sw;
  res.dist[source] = 0.0;
  // Per-round "joined the output frontier" flags (Ligra's BellmanFord
  // resets these between rounds to deduplicate improvements).
  std::vector<std::uint8_t> joined(g.n, 0);

  struct SsspF {
    double* dist;
    std::uint8_t* joined;
    bool update(Index u, Index v, Value w) const {
      // Dense rounds: this thread owns v, but dist[u] is another
      // thread's v, so both slots are read (and v written) atomically.
      const double cand = load_relaxed(dist[u]) + w;
      if (cand < load_relaxed(dist[v])) {
        store_relaxed(dist[v], cand);
        if (!joined[v]) {
          joined[v] = 1;
          return true;
        }
      }
      return false;
    }
    bool update_atomic(Index u, Index v, Value w) const {
      if (write_min(&dist[v], load_relaxed(dist[u]) + w)) {
        std::atomic_ref<std::uint8_t> flag(joined[v]);
        return flag.exchange(1, std::memory_order_relaxed) == 0;
      }
      return false;
    }
    bool cond(Index) const { return true; }
  };

  EdgeMapOptions opts;
  opts.threads = threads;
  VertexSubset frontier = VertexSubset::single(g.n, source);
  for (Index round = 0; round + 1 < g.n && !frontier.empty(); ++round) {
    SsspF f{res.dist.data(), joined.data()};
    frontier = edge_map(g, frontier, f, opts);
    ++res.costs.iterations;
    // Reset join flags for the vertices that entered the frontier.
    if (frontier.is_dense()) {
      std::fill(joined.begin(), joined.end(), 0);
    } else {
      for (Index v : frontier.sparse_ids()) joined[v] = 0;
    }
  }
  res.costs.seconds = sw.seconds();
  res.costs.joules = res.costs.seconds * kXeonWatts;
  return res;
}

LigraPrResult ligra_pagerank(const LigraGraph& g, double damping,
                             double tolerance, std::uint32_t max_iterations,
                             unsigned threads) {
  LigraPrResult res;
  const double n = static_cast<double>(g.n);
  res.rank.assign(g.n, g.n > 0 ? 1.0 / n : 0.0);

  Stopwatch sw;
  std::vector<double> contrib(g.n, 0.0);
  for (std::uint32_t it = 0; it < max_iterations; ++it) {
    detail::parallel_blocks(g.n, threads,
                            [&](std::size_t v0, std::size_t v1, unsigned) {
                              for (Index v = static_cast<Index>(v0); v < v1;
                                   ++v) {
                                const Index deg = g.out_degree(v);
                                contrib[v] =
                                    deg > 0 ? res.rank[v] / deg : 0.0;
                              }
                            });
    std::atomic<double> residual{0.0};
    detail::parallel_blocks(
        g.n, threads, [&](std::size_t v0, std::size_t v1, unsigned) {
          double local = 0.0;
          for (Index v = static_cast<Index>(v0); v < v1; ++v) {
            double incoming = 0.0;
            for (Offset k = g.in.row_begin(v); k < g.in.row_end(v); ++k) {
              incoming += contrib[g.in.col_idx()[k]];
            }
            const double next = (1.0 - damping) / n + damping * incoming;
            local += std::abs(next - res.rank[v]);
            res.rank[v] = next;
          }
          double cur = residual.load(std::memory_order_relaxed);
          while (!residual.compare_exchange_weak(cur, cur + local)) {
          }
        });
    res.residual = residual.load();
    ++res.costs.iterations;
    if (res.residual < tolerance) break;
  }
  res.costs.seconds = sw.seconds();
  res.costs.joules = res.costs.seconds * kXeonWatts;
  return res;
}

LigraCcResult ligra_cc(const LigraGraph& g, unsigned threads) {
  LigraCcResult res;
  res.component.resize(g.n);
  for (Index v = 0; v < g.n; ++v) res.component[v] = v;

  Stopwatch sw;
  // Per-round "joined" flags, like Bellman-Ford.
  std::vector<std::uint8_t> joined(g.n, 0);

  struct CcF {
    Index* comp;
    std::uint8_t* joined;
    bool update(Index u, Index v, Value) const {
      const Index label = load_relaxed(comp[u]);
      if (label < load_relaxed(comp[v])) {
        store_relaxed(comp[v], label);
        if (!joined[v]) {
          joined[v] = 1;
          return true;
        }
      }
      return false;
    }
    bool update_atomic(Index u, Index v, Value) const {
      const Index label = load_relaxed(comp[u]);
      std::atomic_ref<Index> ref(comp[v]);
      Index cur = ref.load(std::memory_order_relaxed);
      bool lowered = false;
      while (label < cur) {
        if (ref.compare_exchange_weak(cur, label,
                                      std::memory_order_relaxed)) {
          lowered = true;
          break;
        }
      }
      if (!lowered) return false;
      std::atomic_ref<std::uint8_t> flag(joined[v]);
      return flag.exchange(1, std::memory_order_relaxed) == 0;
    }
    bool cond(Index) const { return true; }
  };

  EdgeMapOptions opts;
  opts.threads = threads;
  std::vector<Index> all(g.n);
  for (Index v = 0; v < g.n; ++v) all[v] = v;
  VertexSubset frontier = VertexSubset::from_sparse(g.n, std::move(all));
  while (!frontier.empty()) {
    CcF f{res.component.data(), joined.data()};
    frontier = edge_map(g, frontier, f, opts);
    ++res.costs.iterations;
    if (frontier.is_dense()) {
      std::fill(joined.begin(), joined.end(), 0);
    } else {
      for (Index v : frontier.sparse_ids()) joined[v] = 0;
    }
  }
  for (Index v = 0; v < g.n; ++v) {
    if (res.component[v] == v) ++res.num_components;
  }
  res.costs.seconds = sw.seconds();
  res.costs.joules = res.costs.seconds * kXeonWatts;
  return res;
}

LigraCfResult ligra_cf(const LigraGraph& g, std::uint32_t iterations,
                       double lambda, double beta, std::uint64_t seed,
                       unsigned threads) {
  LigraCfResult res;
  res.latent.assign(g.n, 0.0);
  Rng rng(seed);
  for (Index v = 0; v < g.n; ++v) {
    res.latent[v] = 0.1 + 0.4 * rng.next_double();
  }

  Stopwatch sw;
  std::vector<double> grad(g.n, 0.0);
  for (std::uint32_t it = 0; it < iterations; ++it) {
    detail::parallel_blocks(
        g.n, threads, [&](std::size_t v0, std::size_t v1, unsigned) {
          for (Index v = static_cast<Index>(v0); v < v1; ++v) {
            if (g.in.row_begin(v) == g.in.row_end(v)) {
              grad[v] = 0.0;  // untouched rows get no update (Table I)
              continue;
            }
            double acc = 0.0;
            for (Offset k = g.in.row_begin(v); k < g.in.row_end(v); ++k) {
              const Index u = g.in.col_idx()[k];
              const double w = g.in.values()[k];
              acc += (w - res.latent[u] * res.latent[v]) * res.latent[u];
            }
            grad[v] = acc - lambda * res.latent[v];
          }
        });
    for (Index v = 0; v < g.n; ++v) res.latent[v] += beta * grad[v];
    ++res.costs.iterations;

    double loss = 0.0;
    for (Index v = 0; v < g.n; ++v) {
      for (Offset k = g.in.row_begin(v); k < g.in.row_end(v); ++k) {
        const Index u = g.in.col_idx()[k];
        const double e = g.in.values()[k] - res.latent[u] * res.latent[v];
        loss += e * e;
      }
      loss += lambda * res.latent[v] * res.latent[v];
    }
    res.loss_per_iteration.push_back(loss);
  }
  res.costs.seconds = sw.seconds();
  res.costs.joules = res.costs.seconds * kXeonWatts;
  return res;
}

}  // namespace cosparse::baselines::ligra
