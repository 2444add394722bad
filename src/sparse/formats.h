// Sparse matrix storage formats.
//
// CoSPARSE keeps two copies of the adjacency matrix resident (paper
// §III-D.2): row-major COO for the inner-product kernel and CSC for the
// outer-product kernel, avoiding conversion at reconfiguration time. CSR is
// provided for the native baselines (mini-Ligra pull direction, CPU SpMV).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace cosparse::sparse {

/// One non-zero element in coordinate form.
struct Triplet {
  Index row = 0;
  Index col = 0;
  Value value = 0;

  friend bool operator==(const Triplet&, const Triplet&) = default;
};

/// Coordinate format in canonical form: sorted row-major (row, then
/// column), one entry per coordinate. This is the IP kernel's streaming
/// layout.
class Coo {
 public:
  Coo() = default;
  /// Builds from an arbitrary triplet list in O(nnz): a stable radix sort
  /// into row-major order, then duplicate coordinates summed in input
  /// order.
  /// Throws cosparse::Error on an entry outside rows x cols.
  Coo(Index rows, Index cols, std::vector<Triplet> triplets);

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return triplets_.size(); }
  [[nodiscard]] double density() const;
  [[nodiscard]] const std::vector<Triplet>& triplets() const {
    return triplets_;
  }

 private:
  /// transpose() emits already-sorted, duplicate-free triplets and
  /// bypasses the sorting constructor.
  friend Coo transpose(const Coo& coo);

  Index rows_ = 0, cols_ = 0;
  std::vector<Triplet> triplets_;
};

/// Compressed sparse row. `row_ptr` has rows()+1 entries; column indices
/// within a row are sorted.
class Csr {
 public:
  Csr() = default;
  Csr(Index rows, Index cols, std::vector<Offset> row_ptr,
      std::vector<Index> col_idx, std::vector<Value> values);

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return col_idx_.size(); }
  [[nodiscard]] double density() const;

  [[nodiscard]] const std::vector<Offset>& row_ptr() const { return row_ptr_; }
  [[nodiscard]] const std::vector<Index>& col_idx() const { return col_idx_; }
  [[nodiscard]] const std::vector<Value>& values() const { return values_; }

  [[nodiscard]] Offset row_begin(Index r) const { return row_ptr_[r]; }
  [[nodiscard]] Offset row_end(Index r) const { return row_ptr_[r + 1]; }
  [[nodiscard]] Index row_nnz(Index r) const {
    return static_cast<Index>(row_end(r) - row_begin(r));
  }

 private:
  Index rows_ = 0, cols_ = 0;
  std::vector<Offset> row_ptr_;
  std::vector<Index> col_idx_;
  std::vector<Value> values_;
};

/// Compressed sparse column (the OP kernel's layout). `col_ptr` has
/// cols()+1 entries; row indices within a column are sorted — the OP merge
/// relies on this ordering.
class Csc {
 public:
  Csc() = default;
  Csc(Index rows, Index cols, std::vector<Offset> col_ptr,
      std::vector<Index> row_idx, std::vector<Value> values);

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return row_idx_.size(); }
  [[nodiscard]] double density() const;

  [[nodiscard]] const std::vector<Offset>& col_ptr() const { return col_ptr_; }
  [[nodiscard]] const std::vector<Index>& row_idx() const { return row_idx_; }
  [[nodiscard]] const std::vector<Value>& values() const { return values_; }

  [[nodiscard]] Offset col_begin(Index c) const { return col_ptr_[c]; }
  [[nodiscard]] Offset col_end(Index c) const { return col_ptr_[c + 1]; }
  [[nodiscard]] Index col_nnz(Index c) const {
    return static_cast<Index>(col_end(c) - col_begin(c));
  }

 private:
  Index rows_ = 0, cols_ = 0;
  std::vector<Offset> col_ptr_;
  std::vector<Index> row_idx_;
  std::vector<Value> values_;
};

// ---- conversions (all O(nnz)) ----
Csr coo_to_csr(const Coo& coo);
Csc coo_to_csc(const Coo& coo);
Coo csr_to_coo(const Csr& csr);
Coo csc_to_coo(const Csc& csc);
Csc csr_to_csc(const Csr& csr);
Csr csc_to_csr(const Csc& csc);

/// Transposes (rows/cols swap, entries mirrored) in O(nnz) with a counting
/// sort by column. Graph algorithms operate on G^T (paper Fig. 2:
/// f_next = SpMV(G.T, f)).
Coo transpose(const Coo& coo);

/// Symmetrizes a square matrix: the result contains (i, j) and (j, i) for
/// every input entry (duplicates combined by summation). Used by
/// undirected-graph algorithms (e.g. connected components) on directed
/// inputs.
Coo symmetrize(const Coo& coo);

}  // namespace cosparse::sparse
