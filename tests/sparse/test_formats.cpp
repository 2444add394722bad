#include "sparse/formats.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "sparse/generate.h"

namespace cosparse::sparse {
namespace {

Coo small_matrix() {
  // 3x4:
  //   [ .  1  .  2 ]
  //   [ 3  .  .  . ]
  //   [ .  4  5  . ]
  return Coo(3, 4, {{0, 1, 1}, {0, 3, 2}, {1, 0, 3}, {2, 1, 4}, {2, 2, 5}});
}

TEST(Coo, SortsRowMajor) {
  Coo m(2, 2, {{1, 1, 4}, {0, 1, 2}, {1, 0, 3}, {0, 0, 1}});
  ASSERT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.triplets()[0], (Triplet{0, 0, 1}));
  EXPECT_EQ(m.triplets()[3], (Triplet{1, 1, 4}));
}

TEST(Coo, CombinesDuplicatesBySum) {
  Coo m(2, 2, {{0, 0, 1}, {0, 0, 2.5}});
  ASSERT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.triplets()[0].value, 3.5);
}

TEST(Coo, RejectsOutOfBounds) {
  EXPECT_THROW(Coo(2, 2, {{2, 0, 1}}), Error);
  EXPECT_THROW(Coo(2, 2, {{0, 2, 1}}), Error);
}

TEST(Coo, DensityComputed) {
  EXPECT_DOUBLE_EQ(small_matrix().density(), 5.0 / 12.0);
}

TEST(Csr, ValidatesStructure) {
  // row_ptr wrong length
  EXPECT_THROW(Csr(2, 2, {0, 1}, {0}, {1.0}), Error);
  // unsorted columns within a row
  EXPECT_THROW(Csr(1, 3, {0, 2}, {2, 1}, {1.0, 2.0}), Error);
  // endpoint mismatch
  EXPECT_THROW(Csr(1, 3, {0, 1}, {0, 1}, {1.0, 2.0}), Error);
}

TEST(Csc, ValidatesStructure) {
  EXPECT_THROW(Csc(2, 2, {0, 1}, {0}, {1.0}), Error);
  EXPECT_THROW(Csc(3, 1, {0, 2}, {2, 1}, {1.0, 2.0}), Error);
}

TEST(Conversions, CooCsrPreservesEntries) {
  const Coo m = small_matrix();
  const Csr csr = coo_to_csr(m);
  EXPECT_EQ(csr.nnz(), m.nnz());
  EXPECT_EQ(csr.row_nnz(0), 2u);
  EXPECT_EQ(csr.row_nnz(1), 1u);
  EXPECT_EQ(csr.row_nnz(2), 2u);
  const Coo back = csr_to_coo(csr);
  EXPECT_EQ(back.triplets(), m.triplets());
}

TEST(Conversions, CooCscPreservesEntries) {
  const Coo m = small_matrix();
  const Csc csc = coo_to_csc(m);
  EXPECT_EQ(csc.nnz(), m.nnz());
  EXPECT_EQ(csc.col_nnz(1), 2u);
  const Coo back = csc_to_coo(csc);
  EXPECT_EQ(back.triplets(), m.triplets());
}

TEST(Conversions, CsrCscRoundTrip) {
  const Coo m = small_matrix();
  const Csr csr = coo_to_csr(m);
  const Csc csc = csr_to_csc(csr);
  const Csr back = csc_to_csr(csc);
  EXPECT_EQ(back.row_ptr(), csr.row_ptr());
  EXPECT_EQ(back.col_idx(), csr.col_idx());
  EXPECT_EQ(back.values(), csr.values());
}

TEST(Conversions, TransposeIsInvolution) {
  const Coo m = small_matrix();
  const Coo t = transpose(m);
  EXPECT_EQ(t.rows(), m.cols());
  EXPECT_EQ(t.cols(), m.rows());
  const Coo tt = transpose(t);
  EXPECT_EQ(tt.triplets(), m.triplets());
}

TEST(Conversions, RandomRoundTripProperty) {
  // Property: COO -> CSR -> COO and COO -> CSC -> COO are identities for
  // arbitrary random matrices.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Coo m =
        uniform_random(64, 48, 500, seed, ValueDist::kUniform01);
    EXPECT_EQ(csr_to_coo(coo_to_csr(m)).triplets(), m.triplets());
    EXPECT_EQ(csc_to_coo(coo_to_csc(m)).triplets(), m.triplets());
  }
}

TEST(Conversions, CountingTransposeMatchesSortBasedTranspose) {
  // Property: the O(nnz) counting transpose equals mirroring every triplet
  // and re-sorting it through the Coo constructor, triplet for triplet,
  // across shapes that stress empty buckets and skewed columns.
  const auto sort_based = [](const Coo& m) {
    std::vector<Triplet> mirrored;
    for (const auto& t : m.triplets())
      mirrored.push_back({t.col, t.row, t.value});
    return Coo(m.cols(), m.rows(), std::move(mirrored));
  };
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const Coo random =
        uniform_random(97, 61, 900, seed, ValueDist::kUniform01);
    const std::vector<Coo> inputs = {
        random,
        power_law(200, 200, 3000, 2.2, seed, ValueDist::kUniformInt),
        with_empty_slices(random, 0.3, 0.0, seed),
        with_empty_slices(random, 0.0, 0.4, seed),
        with_empty_slices(random, 0.5, 0.5, seed),
        single_entry(13, 7, seed),
        Coo(5, 9, {}),
    };
    for (const Coo& m : inputs) {
      const Coo t = transpose(m);
      const Coo ref = sort_based(m);
      EXPECT_EQ(t.rows(), ref.rows());
      EXPECT_EQ(t.cols(), ref.cols());
      EXPECT_EQ(t.triplets(), ref.triplets()) << "seed " << seed;
    }
  }
}

TEST(Conversions, EmptyMatrix) {
  const Coo m(4, 4, {});
  EXPECT_EQ(coo_to_csr(m).nnz(), 0u);
  EXPECT_EQ(coo_to_csc(m).nnz(), 0u);
  EXPECT_EQ(transpose(m).nnz(), 0u);
}

TEST(Csc, ColumnsSortedByRowAfterConversion) {
  const Coo m = uniform_random(100, 100, 800, 9);
  const Csc csc = coo_to_csc(m);
  for (Index c = 0; c < csc.cols(); ++c) {
    for (Offset k = csc.col_begin(c) + 1; k < csc.col_end(c); ++k) {
      EXPECT_LT(csc.row_idx()[k - 1], csc.row_idx()[k]);
    }
  }
}

}  // namespace
}  // namespace cosparse::sparse
