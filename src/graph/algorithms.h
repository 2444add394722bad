// Graph analytics algorithms over the CoSPARSE SpMV abstraction
// (paper §III-D, Table I).
//
// Each algorithm iterates f_next = SpMV(G^T, f) through a runtime::Engine,
// applying its Vector_Op / frontier-update step between iterations (the
// apply work is charged to the simulated PEs via
// Engine::charge_vector_pass). The next frontier is built in the
// representation the producing kernel emitted, so format conversions only
// happen on dataflow switches — matching §III-D.2.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/engine.h"

namespace cosparse::graph {

/// Simulation-side totals for one algorithm run, sliced from the engine's
/// iteration log.
struct AlgoStats {
  std::uint32_t iterations = 0;
  Cycles cycles = 0;
  Picojoules energy_pj = 0;
  std::vector<runtime::IterationRecord> per_iteration;

  [[nodiscard]] double seconds(double freq_ghz = 1.0) const {
    return static_cast<double>(cycles) / (freq_ghz * 1e9);
  }
  [[nodiscard]] double joules() const { return energy_pj * 1e-12; }
  [[nodiscard]] double watts(double freq_ghz = 1.0) const {
    const double s = seconds(freq_ghz);
    return s == 0.0 ? 0.0 : joules() / s;
  }
  [[nodiscard]] std::uint32_t sw_switches() const;
  [[nodiscard]] std::uint32_t hw_switches() const;
};

// ---------------- BFS ----------------

struct BfsResult {
  /// BFS level per vertex; -1 for unreachable vertices.
  std::vector<std::int64_t> level;
  AlgoStats stats;
};

BfsResult bfs(runtime::Engine& eng, Index source);

// ---------------- SSSP ----------------

struct SsspResult {
  /// Shortest distance per vertex; +inf for unreachable vertices.
  std::vector<Value> dist;
  AlgoStats stats;
};

/// Bellman-Ford-style frontier SSSP. `max_iterations == 0` means the
/// |V| - 1 theoretical bound.
SsspResult sssp(runtime::Engine& eng, Index source,
                std::uint32_t max_iterations = 0);

/// The rows sssp() hands Engine::spmv as settled: settled[v] = 1 when
/// dist[v] <= fl(frontier_min + min_weight), else 0. Every candidate
/// x + w has x >= frontier_min and w >= min_weight, and IEEE addition is
/// monotone, so the apply would reject v anyway (DESIGN.md §14 item 9).
void mark_sssp_settled(std::span<const Value> dist, Value frontier_min,
                       Value min_weight, std::span<std::uint8_t> settled);

// ---------------- PageRank ----------------

struct PageRankOptions {
  double damping = 0.85;
  double tolerance = 1e-7;  ///< L1 residual for early exit
  std::uint32_t max_iterations = 20;
};

struct PageRankResult {
  std::vector<Value> rank;
  double residual = 0.0;  ///< final L1 delta
  AlgoStats stats;
};

/// `out_degrees` are the out-degrees of the *original* graph (Table I
/// divides each source contribution by deg(src)).
PageRankResult pagerank(runtime::Engine& eng,
                        std::span<const Index> out_degrees,
                        PageRankOptions opts = {});

// ---------------- Connected components ----------------

struct CcResult {
  /// Component label per vertex (the smallest vertex id in the component).
  std::vector<Index> component;
  std::uint32_t num_components = 0;
  AlgoStats stats;
};

/// Label-propagation connected components over the SpMV abstraction
/// (min-semiring iterations until no label changes). The engine must have
/// been built over a *symmetric* adjacency (see sparse::symmetrize);
/// components of a directed graph are its weakly connected components.
CcResult connected_components(runtime::Engine& eng);

// ---------------- Collaborative filtering ----------------

struct CfOptions {
  std::uint32_t iterations = 10;
  double lambda = 0.05;        ///< regularization (Table I)
  double beta = 0.01;          ///< gradient step (Table I Vector_Op)
  std::uint64_t seed = 1;      ///< latent-factor initialization
};

struct CfResult {
  std::vector<Value> latent;   ///< rank-1 latent factor per vertex
  std::vector<double> loss_per_iteration;  ///< squared-error + reg loss
  AlgoStats stats;
};

/// Rank-1 matrix-factorization CF by gradient descent, treating the
/// adjacency values as ratings (paper Table I).
CfResult cf(runtime::Engine& eng, const sparse::Coo& ratings,
            CfOptions opts = {});

}  // namespace cosparse::graph
