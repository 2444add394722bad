#include "sim/analytic.h"

#include <algorithm>

namespace cosparse::sim {

Cycles estimate_spmv(const SystemConfig& cfg, bool inner_product, HwConfig hw,
                     const SpmvShape& shape) {
  double pe_bound = 0.0;
  double dram_bound = 0.0;
  double lcp_bound = 0.0;
  const auto pes = static_cast<double>(cfg.num_pes());
  const double density =
      shape.dimension == 0 ? 0.0
                           : static_cast<double>(shape.frontier_nnz) /
                                 static_cast<double>(shape.dimension);
  const double arb = cfg.xbar_conflict_factor *
                     static_cast<double>(cfg.pes_per_tile - 1) /
                     static_cast<double>(cfg.l1_banks_per_tile());

  if (inner_product) {
    // IP scans every matrix element (bitmap-filtered), so PE work tracks
    // the full nnz; the vector access rides the SPM in SCS (deterministic
    // latency + management cycles) or the shared L1 in SC (arbitrated).
    const double vec_access = hw == HwConfig::kSCS
                                  ? cfg.spm_latency + cfg.spm_mgmt_cycles
                                  : 1.0 + arb;
    const double per_elem = 2.0 + vec_access;
    pe_bound = static_cast<double>(shape.matrix_nnz) * per_elem / pes;
    // Matrix stream + one pass over the dense vector + output writeback;
    // SCS re-reads the vector segments through the vblock DMA fills.
    double bytes =
        static_cast<double>(shape.matrix_nnz) * shape.matrix_elem_bytes +
        static_cast<double>(shape.dimension) * shape.value_bytes *
            (hw == HwConfig::kSCS ? 2.0 : 1.0) +
        static_cast<double>(shape.dimension) * shape.value_bytes;
    dram_bound = bytes / cfg.dram_peak_bytes_per_cycle();
  } else {
    // OP touches only the active columns' elements (expected share of nnz
    // at uniform column density) and serializes every produced element
    // through the tile LCPs.
    const double active_nnz =
        static_cast<double>(shape.matrix_nnz) * std::min(1.0, density);
    const double heap_access = hw == HwConfig::kPS
                                   ? cfg.spm_latency + cfg.spm_mgmt_cycles
                                   : 1.0;
    const double per_elem = 3.0 + heap_access;
    pe_bound = active_nnz * per_elem / pes;
    lcp_bound = active_nnz / static_cast<double>(cfg.num_tiles) *
                cfg.lcp_cycles_per_element();
    const double bytes =
        active_nnz * shape.matrix_elem_bytes +
        static_cast<double>(shape.frontier_nnz) * 12.0 +  // x entry stream
        active_nnz * shape.value_bytes;                   // LCP writeback
    dram_bound = bytes / cfg.dram_peak_bytes_per_cycle();
  }
  const double serial_cycles = cfg.dram_latency_min;
  const double bound =
      std::max({pe_bound, dram_bound, lcp_bound}) + serial_cycles;
  return static_cast<Cycles>(std::max(bound, 1.0));
}

}  // namespace cosparse::sim
