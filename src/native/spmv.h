// Native (results-only) SpMV entry points (DESIGN.md §14).
//
// Summing semirings run the *same templated kernel loops* as the
// simulator, instantiated with the charge-free HostMachine/NullAddressMap
// pair, so outputs are bit-identical to sim mode by construction. A
// selecting reduction (min: BFS, SSSP, CC) takes two native-only loops
// instead, because its result does not depend on the order a row's
// contributions arrive in: the pull walks the single-vblock layout row by
// row (gather_rows), skipping the rows the caller declared settled, which
// stay at reduce_identity and untouched; the push scatters into a dense
// per-stripe accumulator (scatter_stripe) instead of replaying the modeled
// heap merge.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "kernels/ip_spmv.h"
#include "kernels/op_spmv.h"
#include "native/host_machine.h"
#include "obs/sampler.h"

namespace cosparse::native {

/// True when a row's result does not depend on the order its
/// contributions arrive in, so the native loops need not replay the
/// simulator's order (DESIGN.md §14 items 6 and 7).
template <kernels::Semiring S>
inline constexpr bool kOrderFree = S::kReduceSelects && !S::kUsesDst;

namespace detail {

/// The pull for a selecting reduction over a single-vblock layout, read as
/// CSR through row_offsets(): one task per tile over its PEs' rows. A
/// settled row costs one byte test; any other row folds its elements in
/// stream order and writes y/touched once, as run_inner_product does on
/// the same layout, so every bit matches it there.
template <kernels::Semiring S>
kernels::IpResult gather_rows(HostMachine& m,
                              const kernels::IpPartitionedMatrix& A,
                              const kernels::DenseFrontier& x, const S& sr,
                              std::span<const std::uint8_t> settled) {
  COSPARSE_CHECK_MSG(A.num_vblocks() == 1 &&
                         A.row_offsets().size() == std::size_t{A.rows()} + 1,
                     "native pull: a selecting reduction needs a "
                     "single-vblock layout");
  COSPARSE_CHECK_MSG(A.cols() == x.dimension(),
                     "IP: matrix/vector dimension mismatch");
  COSPARSE_CHECK_MSG(settled.empty() || settled.size() == A.rows(),
                     "IP: settled mask/matrix row count mismatch");
  const auto& parts = A.partitions();
  COSPARSE_CHECK_MSG(parts.size() == m.num_pes(),
                     "IP partition count does not match machine PEs");
  kernels::IpResult out;
  out.y = sparse::DenseVector(A.rows(), sr.reduce_identity());
  out.touched.assign(A.rows(), 0);
  std::vector<std::size_t> tile_touched(m.num_tiles(), 0);
  const bool all_active = x.all_active();

  m.for_tiles([&](std::uint32_t tile) {
    // Raw views, as in run_inner_product: the byte-sized touched stores
    // may alias anything, so containers would be reloaded after each row.
    const sparse::Triplet* const elems = A.elems().data();
    const Offset* const offsets = A.row_offsets().data();
    const std::uint8_t* const x_active = x.active.data();
    const Value* const x_val = x.values.values().data();
    const std::uint8_t* const settled_rows = settled.data();
    const bool masked = !settled.empty();
    Value* const y = out.y.values().data();
    std::uint8_t* const touched = out.touched.data();
    const Value identity = sr.reduce_identity();
    const Index r_begin = parts[tile * m.pes_per_tile()].row_begin;
    const Index r_end = parts[(tile + 1) * m.pes_per_tile() - 1].row_end;

    auto rows = [&](auto all_active_tag) {
      constexpr bool kAllActive = decltype(all_active_tag)::value;
      std::size_t newly_touched = 0;
      for (Index r = r_begin; r < r_end; ++r) {
        if (masked && settled_rows[r] != 0) continue;
        const Offset k_end = offsets[r + 1];
        Value acc = identity;
        bool open = false;
        for (Offset k = offsets[r]; k < k_end; ++k) {
          const sparse::Triplet e = elems[k];
          const Value next =
              sr.reduce(acc, sr.edge(e.value, x_val[e.col], Value{0}));
          if constexpr (kAllActive) {
            acc = next;
            open = true;
          } else {
            // The shared loop's indexed pick: no branch on activity.
            const bool active = x_active[e.col] != 0;
            const Value pick[2] = {acc, next};
            acc = pick[active];
            open = open || active;
          }
        }
        if (open) {
          y[r] = sr.reduce(y[r], acc);
          touched[r] = 1;
          ++newly_touched;
        }
      }
      return newly_touched;
    };
    tile_touched[tile] =
        all_active ? rows(std::true_type{}) : rows(std::false_type{});
  });
  for (const std::size_t t : tile_touched) out.num_touched += t;
  return out;
}

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
/// A selecting reduction runs gather_rows, which needs a single-vblock
/// layout (throws otherwise) and skips the rows `settled` (empty, or one
/// byte per row) names; every other semiring runs the shared loop and
/// computes every row.
template <kernels::Semiring S>
kernels::IpResult pull_spmv(const sim::SystemConfig& cfg, sim::HwConfig hw,
                            sim::ParallelExecutor* exec,
                            const kernels::IpPartitionedMatrix& A,
                            const kernels::DenseFrontier& x, const S& sr,
                            std::span<const std::uint8_t> settled = {}) {
  const obs::PhaseScope phase("native.kernel.pull");
  HostMachine m(cfg, hw, exec);
  if constexpr (kOrderFree<S>) {
    return detail::gather_rows(m, A, x, sr, settled);
  } else {
    NullAddressMap amap;
    return kernels::run_inner_product(m, amap, A, x, sr);
  }
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
  if constexpr (kOrderFree<S>) {
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
