// Native (results-only) SpMV entry points (DESIGN.md §14).
//
// Both functions run the *same templated kernel loops* as the simulator,
// instantiated with the charge-free HostMachine/NullAddressMap pair, so
// outputs are bit-identical to sim mode by construction (DESIGN.md §14),
// except in rows the caller declared settled, which the pull leaves at
// reduce_identity and untouched. The one native-only loop is the push of
// a selecting reduction (min), which scatters into a dense per-stripe
// accumulator instead of replaying the modeled heap merge: its result
// does not depend on the order a row's contributions arrive in.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "kernels/ip_spmv.h"
#include "kernels/op_spmv.h"
#include "native/host_machine.h"
#include "obs/sampler.h"

namespace cosparse::native {
namespace detail {

/// One tile of the push for a selecting reduction: folds every element of
/// x's columns in the stripe into its row's accumulator, then returns the
/// hit rows ascending, finalized. Equal to run_outer_product's tile bits
/// for values without NaN that never mix +0 and -0 (DESIGN.md §14 item 7).
template <kernels::Semiring S>
std::vector<sparse::VectorEntry> scatter_stripe(
    const kernels::OpStripedMatrix::TileStripe& stripe,
    const sparse::SparseVector& x, const S& sr) {
  const Index base = stripe.row_begin;
  const std::size_t n = stripe.row_end - base;
  // One hit bit per row, and only the bits are zeroed: an accumulator is
  // read only after its row's first hit.
  const std::size_t words = (n + 63) / 64;
  const auto acc_buf = std::make_unique_for_overwrite<Value[]>(n);
  const auto hit_buf = std::make_unique<std::uint64_t[]>(words);
  Value* acc = acc_buf.get();
  std::uint64_t* hit = hit_buf.get();
  const Value identity = sr.reduce_identity();
  for (const sparse::VectorEntry& e : x.entries()) {
    const Offset end = stripe.col_end(e.index);
    for (Offset k = stripe.col_begin(e.index); k < end; ++k) {
      const auto& el = stripe.elems[k];
      const Index r = el.row - base;
      std::uint64_t& word = hit[r / 64];
      // A first hit folds into the identity: picks, not branches, because
      // whether a row was hit before is as unpredictable as the row.
      const Value* pick[2] = {&identity, &acc[r]};
      acc[r] = sr.reduce(*pick[(word >> (r % 64)) & 1U],
                         sr.edge(el.value, e.value, Value{0}));
      word |= std::uint64_t{1} << (r % 64);
    }
  }
  // The set bits, word by word, are the hit rows ascending.
  std::size_t hits = 0;
  for (std::size_t w = 0; w < words; ++w) hits += static_cast<unsigned>(std::popcount(hit[w]));
  std::vector<sparse::VectorEntry> out;
  out.reserve(hits);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = hit[w]; bits != 0; bits &= bits - 1) {
      const auto r = static_cast<Index>(
          w * 64 + static_cast<unsigned>(std::countr_zero(bits)));
      out.push_back({base + r, sr.finalize(acc[r], Value{0})});
    }
  }
  return out;
}

}  // namespace detail

/// Row-parallel pull SpMV over a dense frontier (IP dataflow). `hw`
/// selects the layout semantics the caller already chose (SCS layouts are
/// vblocked); `exec` (optional, not owned) parallelizes over tiles/PEs.
/// `settled` (empty, or one byte per row) names rows whose elements are
/// skipped because the caller never reads them.
template <kernels::Semiring S>
kernels::IpResult pull_spmv(const sim::SystemConfig& cfg, sim::HwConfig hw,
                            sim::ParallelExecutor* exec,
                            const kernels::IpPartitionedMatrix& A,
                            const kernels::DenseFrontier& x, const S& sr,
                            std::span<const std::uint8_t> settled = {}) {
  const obs::PhaseScope phase("native.kernel.pull");
  HostMachine m(cfg, hw, exec);
  NullAddressMap amap;
  return kernels::run_inner_product(m, amap, A, x, sr, settled);
}

/// Push SpMSpV over a sparse frontier (OP dataflow), one task per tile
/// stripe. A selecting reduction scatters into the stripe's dense
/// accumulator; every other semiring runs the simulator's per-PE heap
/// merge, combined per tile in row order.
template <kernels::Semiring S>
kernels::OpResult push_spmsv(const sim::SystemConfig& cfg, sim::HwConfig hw,
                             sim::ParallelExecutor* exec,
                             const kernels::OpStripedMatrix& A,
                             const sparse::SparseVector& x,
                             const sparse::DenseVector* x_dst_old,
                             const S& sr) {
  const obs::PhaseScope phase("native.kernel.push");
  HostMachine m(cfg, hw, exec);
  if constexpr (S::kReduceSelects && !S::kUsesDst) {
    const auto& stripes = kernels::op_stripes(A, x, m.num_tiles());
    std::vector<std::vector<sparse::VectorEntry>> tile_rows(m.num_tiles());
    m.for_tiles([&](std::uint32_t tile) {
      tile_rows[tile] = detail::scatter_stripe(stripes[tile], x, sr);
    });
    return {kernels::join_tile_rows(A.rows(), tile_rows)};
  } else {
    NullAddressMap amap;
    return kernels::run_outer_product(m, amap, A, x, x_dst_old, sr);
  }
}

}  // namespace cosparse::native
