#include "reference.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "common/digest.h"

namespace perfbench {

namespace {

using cosparse::sparse::Coo;

/// Out-edge lists of `adj` as a CSR (offsets, (target, weight) pairs).
struct OutEdges {
  std::vector<std::size_t> offset;
  std::vector<std::pair<Index, Value>> edge;

  explicit OutEdges(const Coo& adj) : offset(adj.rows() + 1, 0) {
    for (const auto& t : adj.triplets()) ++offset[t.row + 1];
    for (Index r = 0; r < adj.rows(); ++r) offset[r + 1] += offset[r];
    edge.resize(adj.nnz());
    std::vector<std::size_t> next(offset.begin(), offset.end() - 1);
    for (const auto& t : adj.triplets()) edge[next[t.row]++] = {t.col, t.value};
  }
};

}  // namespace

std::vector<std::int64_t> reference_bfs(const Coo& adj, Index source) {
  const OutEdges out(adj);
  std::vector<std::int64_t> level(adj.rows(), -1);
  std::deque<Index> queue{source};
  level[source] = 0;
  while (!queue.empty()) {
    const Index u = queue.front();
    queue.pop_front();
    for (std::size_t e = out.offset[u]; e < out.offset[u + 1]; ++e) {
      const Index v = out.edge[e].first;
      if (level[v] < 0) {
        level[v] = level[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return level;
}

std::vector<Value> reference_sssp(const Coo& adj, Index source) {
  const OutEdges out(adj);
  std::vector<Value> dist(adj.rows(), std::numeric_limits<Value>::infinity());
  using Item = std::pair<Value, Index>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (std::size_t e = out.offset[u]; e < out.offset[u + 1]; ++e) {
      const auto [v, w] = out.edge[e];
      if (d + w < dist[v]) {
        dist[v] = d + w;
        heap.emplace(dist[v], v);
      }
    }
  }
  return dist;
}

std::vector<Value> reference_pagerank(const Coo& adj,
                                      std::span<const Index> out_degrees) {
  constexpr double kDamping = 0.85;
  constexpr double kTolerance = 1e-7;
  constexpr int kMaxIterations = 20;
  const Index n = adj.rows();
  std::vector<Value> rank(n, n > 0 ? 1.0 / n : 0.0);
  std::vector<Value> incoming(n);
  for (int it = 0; it < kMaxIterations; ++it) {
    std::fill(incoming.begin(), incoming.end(), 0.0);
    for (const auto& t : adj.triplets()) {
      if (out_degrees[t.row] > 0) incoming[t.col] += rank[t.row] / out_degrees[t.row];
    }
    double residual = 0.0;
    for (Index v = 0; v < n; ++v) {
      const double next = (1.0 - kDamping) / n + kDamping * incoming[v];
      residual += std::abs(next - rank[v]);
      rank[v] = next;
    }
    if (residual < kTolerance) break;
  }
  return rank;
}

std::string compare_levels(const std::vector<std::int64_t>& got,
                           const std::vector<std::int64_t>& want) {
  if (got.size() != want.size()) return "level vector size differs";
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (got[v] != want[v]) {
      return "vertex " + std::to_string(v) + " level " +
             std::to_string(got[v]) + ", reference " + std::to_string(want[v]);
    }
  }
  return "";
}

std::string compare_dist(const std::vector<Value>& got,
                         const std::vector<Value>& want) {
  if (got.size() != want.size()) return "distance vector size differs";
  for (std::size_t v = 0; v < got.size(); ++v) {
    if (got[v] == want[v]) continue;  // also equal infinities
    if (std::isinf(got[v]) || std::isinf(want[v]) ||
        std::abs(got[v] - want[v]) > kSsspRelTol * std::max(1.0, std::abs(want[v]))) {
      return "vertex " + std::to_string(v) + " distance " +
             std::to_string(got[v]) + ", reference " + std::to_string(want[v]);
    }
  }
  return "";
}

std::string compare_rank(const std::vector<Value>& got,
                         const std::vector<Value>& want) {
  if (got.size() != want.size()) return "rank vector size differs";
  double l1 = 0.0;
  for (std::size_t v = 0; v < got.size(); ++v) l1 += std::abs(got[v] - want[v]);
  if (!(l1 <= kPagerankL1Tol)) return "rank L1 distance " + std::to_string(l1);
  return "";
}

std::string digest_levels(const std::vector<std::int64_t>& level) {
  cosparse::Digest d;
  for (const std::int64_t l : level) d.update_u64(static_cast<std::uint64_t>(l));
  return d.hex();
}

std::string digest_dist(const std::vector<Value>& dist) {
  cosparse::Digest d;
  for (const Value v : dist) d.update_value(v);
  return d.hex();
}

std::string digest_rank(const std::vector<Value>& rank, double residual) {
  cosparse::Digest d;
  for (const Value v : rank) d.update_value(v);
  d.update_value(residual);
  return d.hex();
}

}  // namespace perfbench
