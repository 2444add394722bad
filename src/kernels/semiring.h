// Semiring functors implementing paper Table I's Matrix_Op definitions.
//
// A semiring tells the SpMV kernels how to combine one matrix non-zero with
// the source-vertex value (`edge`), how to accumulate contributions into a
// destination (`reduce`), and how to post-process a destination's
// accumulator (`finalize`, e.g. CF's "- lambda * V_dst" term). The
// Vector_Op column of Table I runs in the algorithm layer (graph/) after
// the SpMV returns.
//
// `vector_identity` marks an *inactive* element in the dense frontier
// encoding, and `reduce_identity` initializes accumulators.
//
// `kReduceSelects` states that `reduce(a, b)` always returns one of its two
// arguments (min, max), so for values without NaN that never mix +0 and -0
// a row's result does not depend on the order its contributions arrive in.
// The native push relies on it to scatter instead of merging (DESIGN.md
// §14); summing semirings set it false, because float addition rounds
// differently in a different order.
#pragma once

#include <concepts>
#include <limits>

#include "common/types.h"

namespace cosparse::kernels {

/// Compile-time interface every semiring satisfies (checked by the kernels).
template <class S>
concept Semiring = requires(const S s, Value a, Value x, Value d) {
  { s.vector_identity() } -> std::convertible_to<Value>;
  { s.reduce_identity() } -> std::convertible_to<Value>;
  { s.edge(a, x, d) } -> std::convertible_to<Value>;
  { s.reduce(x, d) } -> std::convertible_to<Value>;
  { s.finalize(x, d) } -> std::convertible_to<Value>;
  { S::kUsesDst } -> std::convertible_to<bool>;
  { S::kReduceSelects } -> std::convertible_to<bool>;
  { S::kEdgeOps } -> std::convertible_to<std::uint32_t>;
};

inline constexpr Value kInf = std::numeric_limits<Value>::infinity();

/// Plain SpMV: Matrix_Op = sum(Sp[src,dst] * V[src]).
struct PlainSpmv {
  static constexpr bool kUsesDst = false;
  static constexpr bool kReduceSelects = false;
  static constexpr std::uint32_t kEdgeOps = 1;  ///< one MAC
  Value vector_identity() const { return 0; }
  Value reduce_identity() const { return 0; }
  Value edge(Value a, Value xsrc, Value /*xdst*/) const { return a * xsrc; }
  Value reduce(Value acc, Value v) const { return acc + v; }
  Value finalize(Value acc, Value /*xdst*/) const { return acc; }
};

/// BFS: Matrix_Op = min(V[src]) — propagates the smallest frontier label
/// (the graph layer stores level/parent information in the labels).
struct BfsSemiring {
  static constexpr bool kUsesDst = false;
  static constexpr bool kReduceSelects = true;
  static constexpr std::uint32_t kEdgeOps = 1;
  Value vector_identity() const { return kInf; }
  Value reduce_identity() const { return kInf; }
  Value edge(Value /*a*/, Value xsrc, Value /*xdst*/) const { return xsrc; }
  Value reduce(Value acc, Value v) const { return v < acc ? v : acc; }
  Value finalize(Value acc, Value /*xdst*/) const { return acc; }
};

/// SSSP: Matrix_Op = min(V[src] + Sp[src,dst]); the "min(..., V[dst])"
/// part of Table I is the algorithm layer's apply step.
struct SsspSemiring {
  static constexpr bool kUsesDst = false;
  static constexpr bool kReduceSelects = true;
  static constexpr std::uint32_t kEdgeOps = 2;  ///< add + compare
  Value vector_identity() const { return kInf; }
  Value reduce_identity() const { return kInf; }
  Value edge(Value a, Value xsrc, Value /*xdst*/) const { return xsrc + a; }
  Value reduce(Value acc, Value v) const { return v < acc ? v : acc; }
  Value finalize(Value acc, Value /*xdst*/) const { return acc; }
};

/// PageRank: Matrix_Op = sum(V[src] / deg(src)). The division by out-degree
/// is pre-applied as a vector pass by the algorithm layer (equivalent and
/// cheaper, as in Ligra), so the matrix-side op reduces to a sum of source
/// contributions; Vector_Op = alpha + (1 - alpha) * y runs afterwards.
struct PageRankSemiring {
  static constexpr bool kUsesDst = false;
  static constexpr bool kReduceSelects = false;
  static constexpr std::uint32_t kEdgeOps = 1;
  Value vector_identity() const { return 0; }
  Value reduce_identity() const { return 0; }
  Value edge(Value /*a*/, Value xsrc, Value /*xdst*/) const { return xsrc; }
  Value reduce(Value acc, Value v) const { return acc + v; }
  Value finalize(Value acc, Value /*xdst*/) const { return acc; }
};

/// Collaborative filtering (rank-1 latent factors, gradient step):
/// Matrix_Op = sum((Sp[src,dst] - V[src]*V[dst]) * V[src]) - lambda*V[dst];
/// Vector_Op = beta * y + V[dst] runs in the algorithm layer.
struct CfSemiring {
  static constexpr bool kUsesDst = true;
  static constexpr bool kReduceSelects = false;
  static constexpr std::uint32_t kEdgeOps = 3;  ///< mul, sub, mac
  double lambda = 0.05;

  Value vector_identity() const { return 0; }
  Value reduce_identity() const { return 0; }
  Value edge(Value a, Value xsrc, Value xdst) const {
    return (a - xsrc * xdst) * xsrc;
  }
  Value reduce(Value acc, Value v) const { return acc + v; }
  Value finalize(Value acc, Value xdst) const { return acc - lambda * xdst; }
};

}  // namespace cosparse::kernels
