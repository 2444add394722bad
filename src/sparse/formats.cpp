#include "sparse/formats.h"

#include <bit>
#include <cstdint>
#include <utility>

#include "common/error.h"

namespace cosparse::sparse {
namespace {

double density_of(Index rows, Index cols, std::size_t nnz) {
  const double cells = static_cast<double>(rows) * static_cast<double>(cols);
  return cells == 0.0 ? 0.0 : static_cast<double>(nnz) / cells;
}

/// Stable LSD radix sort of in-bounds triplets on the key
/// (row << bit_width(cols - 1)) | col: at most four passes of at most
/// 16-bit digits. Scratch is one triplet buffer plus the digit histograms,
/// independent of rows and cols.
void sort_row_major(std::vector<Triplet>& triplets, Index rows, Index cols) {
  const auto col_bits = static_cast<unsigned>(std::bit_width(cols - 1U));
  const auto key_bits =
      col_bits + static_cast<unsigned>(std::bit_width(rows - 1U));
  const unsigned passes = (key_bits + 15) / 16;
  if (passes == 0) return;
  const unsigned digit_bits = (key_bits + passes - 1) / passes;
  const std::size_t radix = std::size_t{1} << digit_bits;
  const std::uint64_t mask = radix - 1;
  const auto key = [col_bits](const Triplet& t) {
    return (static_cast<std::uint64_t>(t.row) << col_bits) | t.col;
  };
  // One read fills every pass's histogram.
  std::vector<std::size_t> count(passes * radix, 0);
  for (const Triplet& t : triplets) {
    const std::uint64_t k = key(t);
    for (unsigned p = 0; p < passes; ++p) {
      ++count[p * radix + ((k >> (p * digit_bits)) & mask)];
    }
  }
  std::vector<Triplet> buffer;
  for (unsigned p = 0; p < passes; ++p) {
    std::size_t* digit = count.data() + p * radix;
    std::size_t offset = 0;
    for (std::size_t d = 0; d < radix; ++d) {
      offset += std::exchange(digit[d], offset);
    }
    buffer.resize(triplets.size());
    const unsigned shift = p * digit_bits;
    for (const Triplet& t : triplets) {
      buffer[digit[(key(t) >> shift) & mask]++] = t;
    }
    triplets.swap(buffer);
  }
}

}  // namespace

Coo::Coo(Index rows, Index cols, std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols), triplets_(std::move(triplets)) {
  for (const auto& t : triplets_) {
    COSPARSE_REQUIRE(t.row < rows_ && t.col < cols_,
                     "COO triplet out of bounds");
  }
  sort_row_major(triplets_, rows_, cols_);
  // Combine duplicates by summation (standard triplet-assembly semantics).
  // The sort is stable, so each sum runs in input order.
  std::size_t out = 0;
  for (std::size_t i = 0; i < triplets_.size(); ++i) {
    if (out > 0 && triplets_[out - 1].row == triplets_[i].row &&
        triplets_[out - 1].col == triplets_[i].col) {
      triplets_[out - 1].value += triplets_[i].value;
    } else {
      triplets_[out++] = triplets_[i];
    }
  }
  triplets_.resize(out);
}

double Coo::density() const { return density_of(rows_, cols_, nnz()); }

Csr::Csr(Index rows, Index cols, std::vector<Offset> row_ptr,
         std::vector<Index> col_idx, std::vector<Value> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  COSPARSE_REQUIRE(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1,
                   "CSR row_ptr has wrong length");
  COSPARSE_REQUIRE(col_idx_.size() == values_.size(),
                   "CSR col_idx/values length mismatch");
  COSPARSE_REQUIRE(row_ptr_.front() == 0 && row_ptr_.back() == col_idx_.size(),
                   "CSR row_ptr endpoints invalid");
  for (Index r = 0; r < rows_; ++r) {
    COSPARSE_REQUIRE(row_ptr_[r] <= row_ptr_[r + 1],
                     "CSR row_ptr must be non-decreasing");
    for (Offset k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      COSPARSE_REQUIRE(col_idx_[k] < cols_, "CSR column index out of bounds");
      COSPARSE_REQUIRE(k == row_ptr_[r] || col_idx_[k - 1] < col_idx_[k],
                       "CSR columns within a row must be sorted and unique");
    }
  }
}

double Csr::density() const { return density_of(rows_, cols_, nnz()); }

Csc::Csc(Index rows, Index cols, std::vector<Offset> col_ptr,
         std::vector<Index> row_idx, std::vector<Value> values)
    : rows_(rows),
      cols_(cols),
      col_ptr_(std::move(col_ptr)),
      row_idx_(std::move(row_idx)),
      values_(std::move(values)) {
  COSPARSE_REQUIRE(col_ptr_.size() == static_cast<std::size_t>(cols_) + 1,
                   "CSC col_ptr has wrong length");
  COSPARSE_REQUIRE(row_idx_.size() == values_.size(),
                   "CSC row_idx/values length mismatch");
  COSPARSE_REQUIRE(col_ptr_.front() == 0 && col_ptr_.back() == row_idx_.size(),
                   "CSC col_ptr endpoints invalid");
  for (Index c = 0; c < cols_; ++c) {
    COSPARSE_REQUIRE(col_ptr_[c] <= col_ptr_[c + 1],
                     "CSC col_ptr must be non-decreasing");
    for (Offset k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k) {
      COSPARSE_REQUIRE(row_idx_[k] < rows_, "CSC row index out of bounds");
      COSPARSE_REQUIRE(k == col_ptr_[c] || row_idx_[k - 1] < row_idx_[k],
                       "CSC rows within a column must be sorted and unique");
    }
  }
}

double Csc::density() const { return density_of(rows_, cols_, nnz()); }

Csr coo_to_csr(const Coo& coo) {
  std::vector<Offset> row_ptr(static_cast<std::size_t>(coo.rows()) + 1, 0);
  std::vector<Index> col_idx(coo.nnz());
  std::vector<Value> values(coo.nnz());
  for (const auto& t : coo.triplets()) ++row_ptr[t.row + 1];
  for (Index r = 0; r < coo.rows(); ++r) row_ptr[r + 1] += row_ptr[r];
  // COO is already row-major sorted, so a single pass preserves column order.
  std::size_t k = 0;
  for (const auto& t : coo.triplets()) {
    col_idx[k] = t.col;
    values[k] = t.value;
    ++k;
  }
  return Csr(coo.rows(), coo.cols(), std::move(row_ptr), std::move(col_idx),
             std::move(values));
}

Csc coo_to_csc(const Coo& coo) {
  std::vector<Offset> col_ptr(static_cast<std::size_t>(coo.cols()) + 1, 0);
  std::vector<Index> row_idx(coo.nnz());
  std::vector<Value> values(coo.nnz());
  for (const auto& t : coo.triplets()) ++col_ptr[t.col + 1];
  for (Index c = 0; c < coo.cols(); ++c) col_ptr[c + 1] += col_ptr[c];
  std::vector<Offset> next(col_ptr.begin(), col_ptr.end() - 1);
  // Row-major input order means rows within each column arrive sorted.
  for (const auto& t : coo.triplets()) {
    const Offset k = next[t.col]++;
    row_idx[k] = t.row;
    values[k] = t.value;
  }
  return Csc(coo.rows(), coo.cols(), std::move(col_ptr), std::move(row_idx),
             std::move(values));
}

Coo csr_to_coo(const Csr& csr) {
  std::vector<Triplet> triplets;
  triplets.reserve(csr.nnz());
  for (Index r = 0; r < csr.rows(); ++r) {
    for (Offset k = csr.row_begin(r); k < csr.row_end(r); ++k) {
      triplets.push_back({r, csr.col_idx()[k], csr.values()[k]});
    }
  }
  return Coo(csr.rows(), csr.cols(), std::move(triplets));
}

Coo csc_to_coo(const Csc& csc) {
  std::vector<Triplet> triplets;
  triplets.reserve(csc.nnz());
  for (Index c = 0; c < csc.cols(); ++c) {
    for (Offset k = csc.col_begin(c); k < csc.col_end(c); ++k) {
      triplets.push_back({csc.row_idx()[k], c, csc.values()[k]});
    }
  }
  return Coo(csc.rows(), csc.cols(), std::move(triplets));
}

Csc csr_to_csc(const Csr& csr) { return coo_to_csc(csr_to_coo(csr)); }

Csr csc_to_csr(const Csc& csc) { return coo_to_csr(csc_to_coo(csc)); }

Coo transpose(const Coo& coo) {
  // Bucket by column. The input is row-major and duplicate-free, so rows
  // arrive ascending within each bucket and the output is (col, row)-sorted
  // and unique without a sort.
  std::vector<Offset> next(static_cast<std::size_t>(coo.cols()) + 1, 0);
  for (const auto& t : coo.triplets()) ++next[t.col + 1];
  for (Index c = 0; c < coo.cols(); ++c) next[c + 1] += next[c];
  Coo out;
  out.rows_ = coo.cols();
  out.cols_ = coo.rows();
  out.triplets_.resize(coo.nnz());
  for (const auto& t : coo.triplets())
    out.triplets_[next[t.col]++] = {t.col, t.row, t.value};
  return out;
}

Coo symmetrize(const Coo& coo) {
  COSPARSE_REQUIRE(coo.rows() == coo.cols(),
                   "symmetrize requires a square matrix");
  std::vector<Triplet> triplets = coo.triplets();
  triplets.reserve(coo.nnz() * 2);
  for (const auto& t : coo.triplets()) {
    if (t.row != t.col) triplets.push_back({t.col, t.row, t.value});
  }
  return Coo(coo.rows(), coo.cols(), std::move(triplets));
}

}  // namespace cosparse::sparse
