#include "kernels/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "kernels/region_plan.h"
#include "sparse/generate.h"

namespace cosparse::kernels {
namespace {

using sparse::Coo;
using sparse::uniform_random;

std::vector<Offset> row_nnz_of(const Coo& m) {
  std::vector<Offset> c(m.rows(), 0);
  for (const auto& t : m.triplets()) ++c[t.row];
  return c;
}

TEST(SplitRows, CoversAllRowsContiguously) {
  const Coo m = uniform_random(100, 100, 1000, 1);
  const auto bounds = split_rows(row_nnz_of(m), 7, true);
  ASSERT_EQ(bounds.size(), 8u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 100u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LE(bounds[i - 1], bounds[i]);
  }
}

TEST(SplitRows, NnzBalancedWithinOneMaxRow) {
  const Coo m = uniform_random(500, 500, 10000, 2);
  const auto row_nnz = row_nnz_of(m);
  const auto bounds = split_rows(row_nnz, 8, true);
  const Offset max_row =
      *std::max_element(row_nnz.begin(), row_nnz.end());
  const Offset target = 10000 / 8;
  for (std::size_t p = 0; p < 8; ++p) {
    Offset part = 0;
    for (Index r = bounds[p]; r < bounds[p + 1]; ++r) part += row_nnz[r];
    // Greedy split: each part within one heaviest-row of the target.
    EXPECT_LE(part, target + max_row);
  }
}

TEST(SplitRows, EqualRowsWhenNotBalanced) {
  std::vector<Offset> row_nnz(100, 1);
  row_nnz[0] = 1000;  // should NOT affect equal-row splitting
  const auto bounds = split_rows(row_nnz, 4, false);
  EXPECT_EQ(bounds[1], 25u);
  EXPECT_EQ(bounds[2], 50u);
  EXPECT_EQ(bounds[3], 75u);
}

TEST(SplitRows, MorePartsThanRows) {
  std::vector<Offset> row_nnz(3, 5);
  const auto bounds = split_rows(row_nnz, 8, true);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 3u);
  for (std::size_t i = 1; i < bounds.size(); ++i)
    EXPECT_LE(bounds[i - 1], bounds[i]);
}

TEST(IpPartition, PreservesEveryElement) {
  const Coo m = uniform_random(200, 200, 3000, 3);
  const auto part = IpPartitionedMatrix::build(m, 8, /*vblock_cols=*/64);
  EXPECT_EQ(part.nnz(), m.nnz());
  // Multiset equality via sorting copies.
  auto a = m.triplets();
  auto b = part.elems();
  auto lt = [](const sparse::Triplet& x, const sparse::Triplet& y) {
    return std::tie(x.row, x.col, x.value) < std::tie(y.row, y.col, y.value);
  };
  std::sort(a.begin(), a.end(), lt);
  std::sort(b.begin(), b.end(), lt);
  EXPECT_EQ(a, b);
}

TEST(IpPartition, VblockRangesRespectColumnBounds) {
  const Coo m = uniform_random(100, 300, 2000, 4);
  const Index vb_cols = 50;
  const auto part = IpPartitionedMatrix::build(m, 4, vb_cols);
  EXPECT_EQ(part.num_vblocks(), 6u);
  for (const auto& p : part.partitions()) {
    ASSERT_EQ(p.vblocks.size(), part.num_vblocks());
    for (std::uint32_t vb = 0; vb < part.num_vblocks(); ++vb) {
      for (Offset k = p.vblocks[vb].first; k < p.vblocks[vb].second; ++k) {
        const auto& e = part.elems()[k];
        EXPECT_EQ(e.col / vb_cols, vb);
        EXPECT_GE(e.row, p.row_begin);
        EXPECT_LT(e.row, p.row_end);
      }
    }
  }
}

TEST(IpPartition, RowMajorWithinVblock) {
  const Coo m = uniform_random(100, 100, 2000, 5);
  const auto part = IpPartitionedMatrix::build(m, 4, 25);
  for (const auto& p : part.partitions()) {
    for (const auto& [kb, ke] : p.vblocks) {
      for (Offset k = kb + 1; k < ke; ++k) {
        const auto& prev = part.elems()[k - 1];
        const auto& cur = part.elems()[k];
        EXPECT_TRUE(prev.row < cur.row ||
                    (prev.row == cur.row && prev.col < cur.col));
      }
    }
  }
}

TEST(IpPartition, SingleVblockWhenDisabled) {
  const Coo m = uniform_random(50, 50, 500, 6);
  const auto part = IpPartitionedMatrix::build(m, 4, 0);
  EXPECT_EQ(part.num_vblocks(), 1u);
  EXPECT_EQ(part.vblock_cols(), 50u);
}

TEST(IpPartition, PartitionsHaveExclusiveRowRanges) {
  const Coo m = uniform_random(128, 128, 1000, 7);
  const auto part = IpPartitionedMatrix::build(m, 8, 32);
  Index prev_end = 0;
  for (const auto& p : part.partitions()) {
    EXPECT_EQ(p.row_begin, prev_end);
    prev_end = p.row_end;
  }
  EXPECT_EQ(prev_end, 128u);
}

TEST(OpStripes, UnionEqualsMatrix) {
  const Coo m = uniform_random(200, 150, 2500, 8);
  const auto striped = OpStripedMatrix::build(m, 4);
  std::size_t total = 0;
  for (const auto& s : striped.stripes()) total += s.elems.size();
  EXPECT_EQ(total, m.nnz());
}

TEST(OpStripes, ColumnsSortedByRowWithinStripe) {
  const Coo m = uniform_random(300, 100, 4000, 9);
  const auto striped = OpStripedMatrix::build(m, 4);
  for (const auto& s : striped.stripes()) {
    for (Index c = 0; c < m.cols(); ++c) {
      for (Offset k = s.col_begin(c) + 1; k < s.col_end(c); ++k) {
        EXPECT_LT(s.elems[k - 1].row, s.elems[k].row);
      }
    }
  }
}

TEST(OpStripes, RowsWithinStripeBounds) {
  const Coo m = uniform_random(300, 100, 4000, 10);
  const auto striped = OpStripedMatrix::build(m, 5);
  for (const auto& s : striped.stripes()) {
    for (const auto& e : s.elems) {
      EXPECT_GE(e.row, s.row_begin);
      EXPECT_LT(e.row, s.row_end);
    }
  }
}

TEST(OpStripes, NnzBalancedAcrossTiles) {
  // Power-law matrix: naive equal-row split would be badly imbalanced;
  // the nnz-balanced split must stay within one heaviest row of target.
  const Coo m = sparse::power_law(1000, 1000, 20000, 2.1, 11);
  std::vector<Offset> row_nnz(m.rows(), 0);
  for (const auto& t : m.triplets()) ++row_nnz[t.row];
  const Offset max_row = *std::max_element(row_nnz.begin(), row_nnz.end());
  const auto striped = OpStripedMatrix::build(m, 8, true);
  for (const auto& s : striped.stripes()) {
    EXPECT_LE(s.elems.size(), 20000 / 8 + max_row);
  }
}

TEST(OpStripes, EmptyMatrix) {
  const Coo m(10, 10, {});
  const auto striped = OpStripedMatrix::build(m, 2);
  for (const auto& s : striped.stripes()) EXPECT_TRUE(s.elems.empty());
}

TEST(RegionPlan, DefaultVblockColsMatchesEngineSizing) {
  // max(64, (SPM bytes / 8 B per value) rounded down to a line multiple).
  const auto cfg = sim::SystemConfig::transmuter(4, 8);
  const auto cols = static_cast<Index>(cfg.scs_spm_bytes_per_tile() / 8);
  EXPECT_EQ(default_vblock_cols(cfg), std::max<Index>(64, cols / 64 * 64));
  // Tiny SPM still yields the 64-column floor.
  auto small = cfg;
  small.pes_per_tile = 2;
  small.bank_bytes = 256;
  EXPECT_EQ(default_vblock_cols(small), 64);
}

}  // namespace
}  // namespace cosparse::kernels
