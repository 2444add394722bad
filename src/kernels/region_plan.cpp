#include "kernels/region_plan.h"

#include <algorithm>

namespace cosparse::kernels {

Index default_vblock_cols(const sim::SystemConfig& cfg) {
  const double spm = static_cast<double>(cfg.scs_spm_bytes_per_tile());
  const auto cols = static_cast<Index>(spm / 8.0);
  // Round down to a multiple of 64 so vblock boundaries are line-aligned
  // (keeps DMA fills and bitmap words from straddling blocks).
  return std::max<Index>(64, cols / 64 * 64);
}

}  // namespace cosparse::kernels
