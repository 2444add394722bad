// Native (results-only) SpMV entry points — ROADMAP item 4.
//
// Both functions run the *same templated kernel loops* as the simulator,
// instantiated with the charge-free HostMachine/NullAddressMap pair, so
// outputs are bit-identical to sim mode by construction (DESIGN.md §14),
// except in rows the caller declared settled, which the pull leaves at
// reduce_identity and untouched.
#pragma once

#include <cstdint>
#include <span>

#include "kernels/ip_spmv.h"
#include "kernels/op_spmv.h"
#include "native/host_machine.h"
#include "obs/sampler.h"

namespace cosparse::native {

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

/// Push SpMSpV over a sparse frontier (OP dataflow): per-PE column merge
/// with thread-local accumulators, merged per tile in row order.
template <kernels::Semiring S>
kernels::OpResult push_spmsv(const sim::SystemConfig& cfg, sim::HwConfig hw,
                             sim::ParallelExecutor* exec,
                             const kernels::OpStripedMatrix& A,
                             const sparse::SparseVector& x,
                             const sparse::DenseVector* x_dst_old,
                             const S& sr) {
  const obs::PhaseScope phase("native.kernel.push");
  HostMachine m(cfg, hw, exec);
  NullAddressMap amap;
  return kernels::run_outer_product(m, amap, A, x, x_dst_old, sr);
}

}  // namespace cosparse::native
