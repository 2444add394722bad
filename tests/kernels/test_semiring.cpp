// Unit tests for the Table I Matrix_Op definitions.
#include "kernels/semiring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace cosparse::kernels {
namespace {

TEST(PlainSpmvSemiring, TableOneDefinition) {
  const PlainSpmv s;
  // Matrix_Op = sum(Sp * V_src)
  EXPECT_DOUBLE_EQ(s.edge(2.0, 3.0, 99.0), 6.0);  // dst value ignored
  EXPECT_DOUBLE_EQ(s.reduce(1.5, 2.5), 4.0);
  EXPECT_DOUBLE_EQ(s.finalize(7.0, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(s.vector_identity(), 0.0);
  EXPECT_DOUBLE_EQ(s.reduce_identity(), 0.0);
  EXPECT_FALSE(PlainSpmv::kUsesDst);
}

TEST(BfsSemiring, TableOneDefinition) {
  const BfsSemiring s;
  // Matrix_Op = min(V_src): the edge op just forwards the source label.
  EXPECT_DOUBLE_EQ(s.edge(123.0, 4.0, 99.0), 4.0);
  EXPECT_DOUBLE_EQ(s.reduce(4.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(s.reduce(2.0, 4.0), 2.0);
  EXPECT_TRUE(std::isinf(s.vector_identity()));
  EXPECT_TRUE(std::isinf(s.reduce_identity()));
}

TEST(SsspSemiring, TableOneDefinition) {
  const SsspSemiring s;
  // Matrix_Op = min(V_src + Sp)
  EXPECT_DOUBLE_EQ(s.edge(5.0, 2.0, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(s.reduce(7.0, 3.0), 3.0);
  // Propagation through the identity behaves: inf + w stays inf.
  EXPECT_TRUE(std::isinf(s.edge(5.0, kInf, 0.0)));
  EXPECT_DOUBLE_EQ(s.reduce(kInf, 3.0), 3.0);
}

TEST(PageRankSemiring, TableOneDefinition) {
  const PageRankSemiring s;
  // Matrix_Op = sum(V_src / deg(src)); the division is pre-applied, so the
  // edge op forwards the (already divided) source contribution.
  EXPECT_DOUBLE_EQ(s.edge(1.0, 0.125, 99.0), 0.125);
  EXPECT_DOUBLE_EQ(s.reduce(0.25, 0.125), 0.375);
}

TEST(CfSemiring, TableOneDefinition) {
  const CfSemiring s{.lambda = 0.1};
  // Matrix_Op = sum((Sp - V_src*V_dst) * V_src) - lambda * V_dst
  const double src = 0.5, dst = 0.4, rating = 0.9;
  EXPECT_DOUBLE_EQ(s.edge(rating, src, dst), (rating - src * dst) * src);
  EXPECT_DOUBLE_EQ(s.reduce(1.0, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(s.finalize(2.0, dst), 2.0 - 0.1 * dst);
  EXPECT_TRUE(CfSemiring::kUsesDst);
}

TEST(CfSemiring, GradientDirectionReducesError) {
  // Single rating r, factors u (src) and v (dst): a small step along the
  // modeled gradient must reduce (r - u*v)^2 when lambda = 0.
  const CfSemiring s{.lambda = 0.0};
  const double u = 0.3, v = 0.2, r = 0.8;
  const double grad = s.finalize(s.edge(r, u, v), v);
  const double beta = 0.1;
  const double v2 = v + beta * grad;
  const double before = (r - u * v) * (r - u * v);
  const double after = (r - u * v2) * (r - u * v2);
  EXPECT_LT(after, before);
}

/// Folds `values` from the reduce identity, in order.
template <Semiring S>
std::uint64_t fold_bits(const S& s, const std::vector<Value>& values) {
  Value acc = s.reduce_identity();
  for (const Value v : values) acc = s.reduce(acc, v);
  return std::bit_cast<std::uint64_t>(acc);
}

/// Non-negative values, finite or +inf, with +0 and repeats: the domain
/// the native push's scatter assumes of a selecting reduction.
std::vector<Value> selecting_domain(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<Value> real(0.0, 1e6);
  std::vector<Value> v(n);
  for (Value& x : v) {
    switch (rng() % 5) {
      case 0: x = kInf; break;
      case 1: x = 0.0; break;
      case 2: x = static_cast<Value>(rng() % 8); break;
      default: x = real(rng);
    }
  }
  return v;
}

template <Semiring S>
void check_selects(const S& s) {
  static_assert(S::kReduceSelects);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto ab = selecting_domain(rng, 2);
    const auto r = std::bit_cast<std::uint64_t>(s.reduce(ab[0], ab[1]));
    EXPECT_TRUE(r == std::bit_cast<std::uint64_t>(ab[0]) ||
                r == std::bit_cast<std::uint64_t>(ab[1]))
        << ab[0] << " , " << ab[1];
  }
  for (int i = 0; i < 50; ++i) {
    auto values = selecting_domain(rng, 1 + rng() % 40);
    const std::uint64_t want = fold_bits(s, values);
    for (int shuffle = 0; shuffle < 20; ++shuffle) {
      std::shuffle(values.begin(), values.end(), rng);
      EXPECT_EQ(fold_bits(s, values), want);
    }
  }
}

TEST(SemiringTraits, SelectingReductionsReturnAnArgumentInAnyOrder) {
  check_selects(BfsSemiring{});
  check_selects(SsspSemiring{});
}

TEST(SemiringTraits, SummingReductionsDependOnOrder) {
  // 1e16 + 1 rounds back to 1e16 (the ulp there is 2), while 1 + 1 + 1e16
  // keeps the 2: a merge order is part of a sum's bits.
  static_assert(!PlainSpmv::kReduceSelects);
  static_assert(!PageRankSemiring::kReduceSelects);
  static_assert(!CfSemiring::kReduceSelects);
  const std::vector<Value> big_first = {1e16, 1.0, 1.0};
  const std::vector<Value> big_last = {1.0, 1.0, 1e16};
  EXPECT_NE(fold_bits(PlainSpmv{}, big_first), fold_bits(PlainSpmv{}, big_last));
  EXPECT_NE(fold_bits(PageRankSemiring{}, big_first),
            fold_bits(PageRankSemiring{}, big_last));
}

TEST(Semirings, SatisfyConcept) {
  static_assert(Semiring<PlainSpmv>);
  static_assert(Semiring<BfsSemiring>);
  static_assert(Semiring<SsspSemiring>);
  static_assert(Semiring<PageRankSemiring>);
  static_assert(Semiring<CfSemiring>);
  SUCCEED();
}

}  // namespace
}  // namespace cosparse::kernels
