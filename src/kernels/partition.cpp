#include "kernels/partition.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace cosparse::kernels {

std::vector<Index> split_rows(const std::vector<Offset>& row_nnz,
                              std::uint32_t parts, bool nnz_balanced) {
  COSPARSE_CHECK(parts >= 1);
  const auto num_rows = static_cast<Index>(row_nnz.size());
  std::vector<Index> bounds(std::size_t{parts} + 1, num_rows);
  bounds[0] = 0;
  if (!nnz_balanced) {
    for (std::uint32_t p = 1; p < parts; ++p) {
      bounds[p] = static_cast<Index>(
          static_cast<std::uint64_t>(num_rows) * p / parts);
    }
    return bounds;
  }
  // Greedy split on the non-zero prefix sum: boundary p is the first row at
  // which the running total reaches p/parts of all non-zeros.
  Offset total = 0;
  for (Offset c : row_nnz) total += c;
  Offset acc = 0;
  std::uint32_t p = 1;
  for (Index r = 0; r < num_rows && p < parts; ++r) {
    acc += row_nnz[r];
    while (p < parts && acc >= total * p / parts) {
      bounds[p] = r + 1;
      ++p;
    }
  }
  // Boundaries must be non-decreasing even for degenerate inputs.
  for (std::uint32_t i = 1; i <= parts; ++i) {
    bounds[i] = std::max(bounds[i], bounds[i - 1]);
  }
  return bounds;
}

namespace {

std::vector<Offset> count_row_nnz(const sparse::Coo& m) {
  std::vector<Offset> row_nnz(m.rows(), 0);
  for (const auto& t : m.triplets()) ++row_nnz[t.row];
  return row_nnz;
}

}  // namespace

IpPartitionedMatrix IpPartitionedMatrix::build(const sparse::Coo& m,
                                               std::uint32_t num_pes,
                                               Index vblock_cols,
                                               bool nnz_balanced) {
  IpPartitionedMatrix out;
  out.rows_ = m.rows();
  out.cols_ = m.cols();
  if (vblock_cols == 0 || vblock_cols >= m.cols()) {
    out.vblock_cols_ = m.cols();
    out.num_vblocks_ = 1;
  } else {
    out.vblock_cols_ = vblock_cols;
    out.num_vblocks_ = (m.cols() + vblock_cols - 1) / vblock_cols;
  }

  const auto row_nnz = count_row_nnz(m);
  const auto bounds = split_rows(row_nnz, num_pes, nnz_balanced);

  // Row prefix sum to locate each partition's element range in the
  // row-major triplet array.
  std::vector<Offset> row_start(m.rows() + 1, 0);
  for (Index r = 0; r < m.rows(); ++r) {
    row_start[r + 1] = row_start[r] + row_nnz[r];
  }

  out.elems_.resize(m.nnz());
  out.partitions_.resize(num_pes);
  const auto& src = m.triplets();

  Offset write_pos = 0;
  for (std::uint32_t p = 0; p < num_pes; ++p) {
    PePartition& part = out.partitions_[p];
    part.row_begin = bounds[p];
    part.row_end = bounds[p + 1];
    const Offset e_begin = row_start[part.row_begin];
    const Offset e_end = row_start[part.row_end];

    // Counting sort by vblock, stable, so elements stay row-major within
    // each vblock.
    std::vector<Offset> counts(out.num_vblocks_ + 1, 0);
    for (Offset k = e_begin; k < e_end; ++k) {
      ++counts[src[k].col / out.vblock_cols_ + 1];
    }
    for (std::uint32_t vb = 0; vb < out.num_vblocks_; ++vb) {
      counts[vb + 1] += counts[vb];
    }
    part.vblocks.resize(out.num_vblocks_);
    for (std::uint32_t vb = 0; vb < out.num_vblocks_; ++vb) {
      part.vblocks[vb] = {write_pos + counts[vb], write_pos + counts[vb + 1]};
    }
    std::vector<Offset> cursor(counts.begin(), counts.end() - 1);
    for (Offset k = e_begin; k < e_end; ++k) {
      const std::uint32_t vb = src[k].col / out.vblock_cols_;
      out.elems_[write_pos + cursor[vb]++] = src[k];
    }
    write_pos += e_end - e_begin;
  }
  COSPARSE_CHECK(write_pos == m.nnz());
  // One vblock keeps the row-major input order, so the prefix sum indexes
  // elems_ too.
  if (out.num_vblocks_ == 1) out.row_offsets_ = std::move(row_start);
  return out;
}

OpStripedMatrix OpStripedMatrix::build(const sparse::Coo& m,
                                       std::uint32_t num_tiles,
                                       bool nnz_balanced) {
  OpStripedMatrix out;
  out.rows_ = m.rows();
  out.cols_ = m.cols();
  out.nnz_ = m.nnz();

  const auto row_nnz = count_row_nnz(m);
  const auto bounds = split_rows(row_nnz, num_tiles, nnz_balanced);

  out.stripes_.resize(num_tiles);
  for (std::uint32_t t = 0; t < num_tiles; ++t) {
    TileStripe& s = out.stripes_[t];
    s.row_begin = bounds[t];
    s.row_end = bounds[t + 1];
    s.col_ptr.assign(static_cast<std::size_t>(m.cols()) + 1, 0);
  }

  // Count per (stripe, column), then scatter. The row-major input order
  // guarantees ascending rows within each column of each stripe.
  auto stripe_of = [&](Index row) {
    // Row partitions are few (<= 16); linear scan beats binary search here.
    for (std::uint32_t t = 0; t < num_tiles; ++t) {
      if (row < bounds[t + 1]) return t;
    }
    return num_tiles - 1;
  };

  for (const auto& tr : m.triplets()) {
    ++out.stripes_[stripe_of(tr.row)].col_ptr[tr.col + 1];
  }
  for (auto& s : out.stripes_) {
    for (Index c = 0; c < m.cols(); ++c) s.col_ptr[c + 1] += s.col_ptr[c];
    s.elems.resize(s.col_ptr[m.cols()]);
  }
  std::vector<std::vector<Offset>> cursor(num_tiles);
  for (std::uint32_t t = 0; t < num_tiles; ++t) {
    cursor[t].assign(out.stripes_[t].col_ptr.begin(),
                     out.stripes_[t].col_ptr.end() - 1);
  }
  for (const auto& tr : m.triplets()) {
    const std::uint32_t t = stripe_of(tr.row);
    out.stripes_[t].elems[cursor[t][tr.col]++] = {tr.row, tr.value};
  }
  return out;
}

}  // namespace cosparse::kernels
