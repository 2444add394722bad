#include "sparse/formats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sparse/assembly.h"
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

// ---- Coo canonical form -------------------------------------------------

/// The specified canonical form: std::stable_sort on (row, col), then
/// duplicates summed in input order.
std::vector<Triplet> reference_canonical(std::vector<Triplet> t) {
  std::stable_sort(t.begin(), t.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  std::vector<Triplet> out;
  for (const Triplet& x : t) {
    if (!out.empty() && out.back().row == x.row && out.back().col == x.col) {
      out.back().value += x.value;
    } else {
      out.push_back(x);
    }
  }
  return out;
}

/// `n` triplets with coordinates in [0, row_span) x [0, col_span), offset
/// by (row_base, col_base), and non-integer values of both signs.
std::vector<Triplet> random_triplets(Rng& rng, std::size_t n, Index row_base,
                                     Index row_span, Index col_base,
                                     Index col_span) {
  std::vector<Triplet> t(n);
  for (Triplet& x : t) {
    x.row = row_base + static_cast<Index>(rng.next_below(row_span));
    x.col = col_base + static_cast<Index>(rng.next_below(col_span));
    x.value = rng.next_double(-500.0, 500.0);
  }
  return t;
}

void expect_canonical(Index rows, Index cols, const std::vector<Triplet>& in,
                      const std::string& label) {
  const std::vector<Triplet> want = reference_canonical(in);
  const Coo got(rows, cols, in);
  ASSERT_EQ(got.nnz(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Triplet& g = got.triplets()[i];
    ASSERT_TRUE(g.row == want[i].row && g.col == want[i].col &&
                std::bit_cast<std::uint64_t>(g.value) ==
                    std::bit_cast<std::uint64_t>(want[i].value))
        << label << ": entry " << i << " is (" << g.row << ", " << g.col
        << ", " << g.value << "), want (" << want[i].row << ", "
        << want[i].col << ", " << want[i].value << ")";
  }
}

TEST(CooCanonical, MatchesStableSortReference) {
  Rng rng(17, "coo_canonical");
  const Index kMax = 0xFFFFFFFFu;  // the largest dimension Index allows

  const auto shuffled = random_triplets(rng, 50000, 0, 5000, 0, 7000);
  expect_canonical(5000, 7000, shuffled, "shuffled");
  // ~12 entries per coordinate: the sums expose any reordering.
  const auto dup_heavy = random_triplets(rng, 20000, 0, 40, 0, 40);
  expect_canonical(40, 40, dup_heavy, "duplicate-heavy");
  expect_canonical(3, 3, {}, "empty");
  expect_canonical(9, 9, {{4, 7, 0.25}}, "single entry");
  expect_canonical(5000, 7000, reference_canonical(shuffled),
                   "already canonical");
  // Sorted but not strictly: the duplicates still have to be merged.
  std::vector<Triplet> sorted_dups = dup_heavy;
  std::stable_sort(sorted_dups.begin(), sorted_dups.end(),
                   [](const Triplet& a, const Triplet& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });
  expect_canonical(40, 40, sorted_dups, "sorted with duplicates");
  // 64-bit keys (four 16-bit passes), including the last row and column.
  auto widest = random_triplets(rng, 200, kMax - 1000, 1000, 0, 1000);
  widest.push_back({kMax - 1, kMax - 1, 1.5});
  widest.push_back({0, kMax - 1, 2.5});
  widest.push_back({kMax - 1, 0, 3.5});
  widest.push_back({kMax - 1, kMax - 1, -0.75});
  expect_canonical(kMax, kMax, widest, "rows = cols = 2^32 - 1");
  // Wide key, narrow spread: some digits are the same for every key.
  expect_canonical(1u << 20, 1u << 20,
                   random_triplets(rng, 30000, 1u << 19, 64, 77, 4096),
                   "constant high digits");
}

TEST(FlatKeySet, RejectsDuplicates) {
  FlatKeySet set;
  EXPECT_TRUE(set.insert(5));
  EXPECT_FALSE(set.insert(5));
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatKeySet, GrowsPastReservedSize) {
  FlatKeySet set(4);
  for (std::uint64_t k = 0; k < 10000; ++k) EXPECT_TRUE(set.insert(k * 7919));
  for (std::uint64_t k = 0; k < 10000; ++k) EXPECT_FALSE(set.insert(k * 7919));
  EXPECT_EQ(set.size(), 10000u);
}

TEST(FlatKeySet, KeysWithHighBitsSet) {
  // Keys that differ only above bit 31 (rows of pack()), only in bit 63,
  // or that sit next to the reserved all-ones key.
  FlatKeySet set;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t r = 0; r < 64; ++r) keys.push_back(pack(Index(r), 3));
  for (std::uint64_t k = 0; k < 16; ++k) {
    keys.push_back(k << 60);
    keys.push_back((k << 60) | (std::uint64_t{1} << 63));
  }
  keys.push_back(pack(0xFFFFFFFEu, 0xFFFFFFFEu));
  keys.push_back(FlatKeySet::kEmpty - 1);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (std::uint64_t k : keys) EXPECT_TRUE(set.insert(k)) << k;
  for (std::uint64_t k : keys) EXPECT_FALSE(set.insert(k)) << k;
  EXPECT_EQ(set.size(), keys.size());
}

}  // namespace
}  // namespace cosparse::sparse
