// Plain reference implementations the benchmark checks the engine
// against, and the digest recipe the serving layer uses for its
// per-request results (serve/server.cpp), so a result computed here can be
// compared with a served one.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "sparse/formats.h"

namespace perfbench {

using cosparse::Index;
using cosparse::Value;

/// Queue BFS over the out-edges of `adj`; level -1 for unreachable.
std::vector<std::int64_t> reference_bfs(const cosparse::sparse::Coo& adj,
                                        Index source);

/// Dijkstra over the out-edges of `adj` (weights are the triplet values,
/// all non-negative); +inf for unreachable.
std::vector<Value> reference_sssp(const cosparse::sparse::Coo& adj,
                                  Index source);

/// Power iteration with the same damping, tolerance and iteration cap as
/// graph::PageRankOptions' defaults; dangling vertices contribute nothing.
std::vector<Value> reference_pagerank(const cosparse::sparse::Coo& adj,
                                      std::span<const Index> out_degrees);

/// Tolerances: BFS levels must be equal; SSSP distances equal or within
/// 1e-9 relative; PageRank within 1e-6 in L1 distance (ranks sum to ~1).
inline constexpr double kSsspRelTol = 1e-9;
inline constexpr double kPagerankL1Tol = 1e-6;

/// Empty string when `got` matches `want`, else a one-line reason.
std::string compare_levels(const std::vector<std::int64_t>& got,
                           const std::vector<std::int64_t>& want);
std::string compare_dist(const std::vector<Value>& got,
                         const std::vector<Value>& want);
std::string compare_rank(const std::vector<Value>& got,
                         const std::vector<Value>& want);

/// The serving layer's result digests: BFS folds levels as u64, SSSP folds
/// distances, PageRank folds ranks and then the final residual.
std::string digest_levels(const std::vector<std::int64_t>& level);
std::string digest_dist(const std::vector<Value>& dist);
std::string digest_rank(const std::vector<Value>& rank, double residual);

}  // namespace perfbench
