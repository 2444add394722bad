// Static workload partitioning (paper §III-B).
//
// Both dataflows first split the matrix into contiguous *row* partitions
// with (approximately) equal non-zero counts — per PE for the inner
// product, per tile for the outer product. The inner product additionally
// splits each partition into vertical blocks (vblocks) sized so the vector
// segment of one vblock fits in the tile's shared scratchpad (Fig. 3).
// The `nnz_balanced=false` variants reproduce the naive equal-row splits
// used as the "w/o partition" baseline of Fig. 7.
#pragma once

#include <vector>

#include "sparse/formats.h"

namespace cosparse::kernels {

/// Splits rows [0, num_rows) into `parts` contiguous ranges.
/// Returns `parts + 1` boundaries. When `nnz_balanced`, boundaries follow
/// the non-zero prefix sum (each part gets ~nnz/parts non-zeros); otherwise
/// each part gets ~num_rows/parts rows.
std::vector<Index> split_rows(const std::vector<Offset>& row_nnz,
                              std::uint32_t parts, bool nnz_balanced);

/// Inner-product layout: one row partition per PE, elements reordered
/// vblock-major (all of vblock 0, then vblock 1, ...) and row-major within
/// each vblock, so every PE streams its elements sequentially while all
/// PEs of a tile work on the same vector segment.
class IpPartitionedMatrix {
 public:
  struct PePartition {
    Index row_begin = 0;
    Index row_end = 0;
    /// Half-open element ranges into elems(), one per vblock.
    std::vector<std::pair<Offset, Offset>> vblocks;
  };

  /// `vblock_cols == 0` disables vertical blocking (single vblock).
  static IpPartitionedMatrix build(const sparse::Coo& m,
                                   std::uint32_t num_pes, Index vblock_cols,
                                   bool nnz_balanced = true);

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return elems_.size(); }
  [[nodiscard]] Index vblock_cols() const { return vblock_cols_; }
  [[nodiscard]] std::uint32_t num_vblocks() const { return num_vblocks_; }
  [[nodiscard]] const std::vector<sparse::Triplet>& elems() const {
    return elems_;
  }
  [[nodiscard]] const std::vector<PePartition>& partitions() const {
    return partitions_;
  }
  /// Single-vblock layouts only (empty otherwise): rows + 1 offsets, row
  /// r's elements are elems()[row_offsets()[r], row_offsets()[r + 1]), so
  /// the stream reads as CSR.
  [[nodiscard]] const std::vector<Offset>& row_offsets() const {
    return row_offsets_;
  }

 private:
  Index rows_ = 0, cols_ = 0;
  Index vblock_cols_ = 0;
  std::uint32_t num_vblocks_ = 1;
  std::vector<sparse::Triplet> elems_;
  std::vector<PePartition> partitions_;
  std::vector<Offset> row_offsets_;
};

/// Outer-product layout: one row *stripe* per tile, each stored as a
/// column-compressed slice (rows within a column sorted ascending, which
/// the per-PE merge relies on). Elements pack (row, value) contiguously so
/// a column advance is one streamed load.
class OpStripedMatrix {
 public:
  struct Element {
    Index row = 0;
    Value value = 0;
  };

  struct TileStripe {
    Index row_begin = 0;
    Index row_end = 0;
    std::vector<Offset> col_ptr;  ///< cols + 1 entries
    std::vector<Element> elems;

    [[nodiscard]] Offset col_begin(Index c) const { return col_ptr[c]; }
    [[nodiscard]] Offset col_end(Index c) const { return col_ptr[c + 1]; }
  };

  static OpStripedMatrix build(const sparse::Coo& m, std::uint32_t num_tiles,
                               bool nnz_balanced = true);

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return nnz_; }
  [[nodiscard]] const std::vector<TileStripe>& stripes() const {
    return stripes_;
  }

 private:
  Index rows_ = 0, cols_ = 0;
  std::size_t nnz_ = 0;
  std::vector<TileStripe> stripes_;
};

}  // namespace cosparse::kernels
