// Textbook reference implementations the CoSPARSE graph algorithms are
// validated against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "sparse/formats.h"

namespace cosparse::graph::testing {

/// BFS levels by plain queue traversal over out-edges; -1 if unreachable.
inline std::vector<std::int64_t> reference_bfs(const sparse::Coo& adj,
                                               Index source) {
  const sparse::Csr g = sparse::coo_to_csr(adj);
  std::vector<std::int64_t> level(g.rows(), -1);
  std::queue<Index> q;
  level[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const Index u = q.front();
    q.pop();
    for (Offset k = g.row_begin(u); k < g.row_end(u); ++k) {
      const Index v = g.col_idx()[k];
      if (level[v] == -1) {
        level[v] = level[u] + 1;
        q.push(v);
      }
    }
  }
  return level;
}

/// Dijkstra distances; +inf if unreachable.
inline std::vector<double> reference_sssp(const sparse::Coo& adj,
                                          Index source) {
  const sparse::Csr g = sparse::coo_to_csr(adj);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.rows(), kInf);
  using Item = std::pair<double, Index>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0.0;
  pq.push({0.0, source});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (Offset k = g.row_begin(u); k < g.row_end(u); ++k) {
      const Index v = g.col_idx()[k];
      const double nd = d + g.values()[k];
      if (nd < dist[v]) {
        dist[v] = nd;
        pq.push({nd, v});
      }
    }
  }
  return dist;
}

/// Connected components of a symmetric adjacency by union-find; each
/// vertex is labeled with its component's smallest vertex id.
inline std::vector<Index> reference_cc(const sparse::Coo& sym) {
  std::vector<Index> parent(sym.rows());
  for (Index v = 0; v < sym.rows(); ++v) parent[v] = v;
  const auto find = [&](Index v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (const auto& t : sym.triplets()) {
    const Index a = find(t.row), b = find(t.col);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  // Normalize every vertex to its component's minimum id.
  std::vector<Index> label(sym.rows());
  for (Index v = 0; v < sym.rows(); ++v) label[v] = find(v);
  // find() with min-union keeps the root the minimum of the merged pair,
  // but path orders can leave a non-minimal root; fix by one more sweep.
  std::vector<Index> min_of_root(sym.rows());
  for (Index v = 0; v < sym.rows(); ++v) min_of_root[v] = v;
  for (Index v = 0; v < sym.rows(); ++v) {
    min_of_root[label[v]] = std::min(min_of_root[label[v]], v);
  }
  for (Index v = 0; v < sym.rows(); ++v) label[v] = min_of_root[label[v]];
  return label;
}

/// Dense power-iteration PageRank (same update rule as Table I).
inline std::vector<double> reference_pagerank(const sparse::Coo& adj,
                                              double damping,
                                              std::uint32_t iterations) {
  const Index n = adj.rows();
  std::vector<Index> deg(n, 0);
  for (const auto& t : adj.triplets()) ++deg[t.row];
  std::vector<double> rank(n, n > 0 ? 1.0 / n : 0.0), next(n);
  for (std::uint32_t it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), (1.0 - damping) / n);
    for (const auto& t : adj.triplets()) {
      next[t.col] += damping * rank[t.row] / static_cast<double>(deg[t.row]);
    }
    rank.swap(next);
  }
  return rank;
}

}  // namespace cosparse::graph::testing
