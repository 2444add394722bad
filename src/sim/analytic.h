// First-principles cycle estimate for one SpMV invocation.
//
// The decision audit (runtime/audit.h) attaches a counterfactual cost to
// every configuration the decision tree considered. This module supplies
// it: from the invocation's shape alone (dimension, matrix nnz, frontier
// nnz), before anything runs, it bounds the cycles of one SpMV under a
// given dataflow and memory configuration:
//
//   pe bound   — PE work (per-element compute + vector/heap access, with
//                the shared-mode arbitration term) spread over the PEs;
//   dram bound — bytes moved / peak bandwidth;
//   lcp bound  — merged elements / tiles x the per-element LCP cost
//                (outer product only);
//   serial     — one DRAM round trip that does not parallelize.
//
// The estimate is max(bounds) + serial. It is not calibrated against the
// execution-driven simulator: only the relative ordering across
// configurations is meaningful.
#pragma once

#include <cstdint>

#include "sim/config.h"

namespace cosparse::sim {

/// Shape of one SpMV invocation, as known *before* running it — exactly
/// the features the runtime decision tree sees. Element byte sizes are
/// parameters because the kernels own those constants (sim cannot depend
/// on kernels).
struct SpmvShape {
  std::uint64_t dimension = 0;
  std::uint64_t matrix_nnz = 0;
  std::uint64_t frontier_nnz = 0;
  std::uint32_t matrix_elem_bytes = 16;  ///< kernels::kIpElemBytes
  std::uint32_t value_bytes = 8;
};

/// Cycle estimate for one SpMV invocation of `shape` under a given
/// dataflow (`inner_product`) and memory configuration: max(bounds) +
/// serial, at least 1. Deterministic.
[[nodiscard]] Cycles estimate_spmv(const SystemConfig& cfg, bool inner_product,
                                   HwConfig hw, const SpmvShape& shape);

}  // namespace cosparse::sim
