#include "runtime/decision.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "kernels/ip_spmv.h"
#include "kernels/op_spmv.h"
#include "runtime/audit.h"
#include "sim/analytic.h"

namespace cosparse::runtime {

const char* to_string(SwConfig c) {
  return c == SwConfig::kIP ? "IP" : "OP";
}

SwConfig sw_config_from_string(std::string_view s) {
  if (s == "IP") return SwConfig::kIP;
  if (s == "OP") return SwConfig::kOP;
  throw Error("unknown SwConfig name: " + std::string(s));
}

double Thresholds::cvd(std::uint32_t pes_per_tile,
                       double matrix_density) const {
  double v = cvd_coefficient / static_cast<double>(pes_per_tile);
  if (matrix_density > 0.0) {
    // Sparser matrix -> less IP vector reuse -> CVD rises slightly
    // (paper §III-C.1).
    v *= std::pow(matrix_density_reference / matrix_density,
                  matrix_density_exponent);
  }
  return std::clamp(v, cvd_min, cvd_max);
}

sim::HwConfig DecisionEngine::decide_hw_impl(SwConfig sw, Index dimension,
                                             std::size_t frontier_nnz,
                                             DecisionRecord* rec) const {
  if (sw == SwConfig::kIP) {
    const double density =
        dimension == 0 ? 0.0
                       : static_cast<double>(frontier_nnz) /
                             static_cast<double>(dimension);
    // Vector footprint: 8 B values + 1 bit of bitmap per vertex.
    const auto footprint = static_cast<std::size_t>(dimension) * 8 +
                           static_cast<std::size_t>(dimension) / 8;
    const bool fits_in_l1 = footprint <= cfg_.l1_bytes_per_tile();
    if (rec != nullptr) {
      rec->checks.push_back(ThresholdCheck{
          "ip_vector_exceeds_l1", static_cast<double>(footprint),
          static_cast<double>(cfg_.l1_bytes_per_tile()),
          static_cast<double>(footprint) -
              static_cast<double>(cfg_.l1_bytes_per_tile()),
          !fits_in_l1});
      rec->checks.push_back(ThresholdCheck{
          "scs_density", density, thresholds_.scs_density,
          density - thresholds_.scs_density,
          density >= thresholds_.scs_density});
    }
    if (!fits_in_l1 && density >= thresholds_.scs_density) {
      return sim::HwConfig::kSCS;
    }
    return sim::HwConfig::kSC;
  }
  // Outer product: size of the per-PE sorted list of column heads.
  const std::size_t per_pe =
      (frontier_nnz + cfg_.pes_per_tile - 1) / cfg_.pes_per_tile;
  const auto list_bytes = per_pe * kernels::kHeapNodeBytes;
  const double budget = thresholds_.ps_list_fraction *
                        static_cast<double>(cfg_.bank_bytes);
  const bool fits = static_cast<double>(list_bytes) <= budget;
  if (rec != nullptr) {
    rec->checks.push_back(ThresholdCheck{
        "op_list_exceeds_spm", static_cast<double>(list_bytes), budget,
        static_cast<double>(list_bytes) - budget, !fits});
  }
  return fits ? sim::HwConfig::kPC : sim::HwConfig::kPS;
}

sim::HwConfig DecisionEngine::decide_hw(SwConfig sw, Index dimension,
                                        std::size_t frontier_nnz) const {
  return decide_hw_impl(sw, dimension, frontier_nnz, nullptr);
}

Decision DecisionEngine::decide_impl(const SwConfig* forced, Index dimension,
                                     double matrix_density,
                                     std::size_t frontier_nnz) const {
  Decision d;
  d.vector_density = dimension == 0
                         ? 0.0
                         : static_cast<double>(frontier_nnz) /
                               static_cast<double>(dimension);
  d.cvd = thresholds_.cvd(cfg_.pes_per_tile, matrix_density);

  DecisionRecord rec;
  DecisionRecord* rp = audit_ == nullptr ? nullptr : &rec;
  if (rp != nullptr) {
    rec.forced_sw = forced != nullptr;
    rec.features.dimension = dimension;
    rec.features.matrix_density = matrix_density;
    rec.features.frontier_nnz = frontier_nnz;
    rec.features.vector_density = d.vector_density;
    rec.features.vector_footprint_bytes =
        static_cast<std::uint64_t>(dimension) * 8 +
        static_cast<std::uint64_t>(dimension) / 8;
    rec.features.l1_bytes_per_tile = cfg_.l1_bytes_per_tile();
    const std::size_t per_pe =
        (frontier_nnz + cfg_.pes_per_tile - 1) / cfg_.pes_per_tile;
    rec.features.op_list_bytes_per_pe = per_pe * kernels::kHeapNodeBytes;
    rec.features.op_list_budget_bytes = static_cast<std::uint64_t>(
        thresholds_.ps_list_fraction * static_cast<double>(cfg_.bank_bytes));
  }

  if (forced != nullptr) {
    d.sw = *forced;
  } else {
    d.sw = d.vector_density >= d.cvd ? SwConfig::kIP : SwConfig::kOP;
    if (rp != nullptr) {
      rec.checks.push_back(ThresholdCheck{
          "cvd", d.vector_density, d.cvd, d.vector_density - d.cvd,
          d.vector_density >= d.cvd});
    }
  }
  d.hw = decide_hw_impl(d.sw, dimension, frontier_nnz, rp);

  if (rp != nullptr) {
    rec.sw = d.sw;
    rec.hw = d.hw;
    rec.cvd = d.cvd;
    // Counterfactual costs for all four candidates (sim::analytic).
    sim::SpmvShape shape;
    shape.dimension = static_cast<std::uint64_t>(dimension);
    shape.matrix_nnz = static_cast<std::uint64_t>(
        matrix_density * static_cast<double>(dimension) *
        static_cast<double>(dimension));
    shape.frontier_nnz = frontier_nnz;
    shape.value_bytes = kernels::kValueBytes;
    const struct {
      SwConfig sw;
      sim::HwConfig hw;
    } candidates[] = {{SwConfig::kIP, sim::HwConfig::kSC},
                      {SwConfig::kIP, sim::HwConfig::kSCS},
                      {SwConfig::kOP, sim::HwConfig::kPC},
                      {SwConfig::kOP, sim::HwConfig::kPS}};
    for (const auto& c : candidates) {
      shape.matrix_elem_bytes = c.sw == SwConfig::kIP ? kernels::kIpElemBytes
                                                      : kernels::kOpElemBytes;
      const auto p =
          sim::estimate_spmv(cfg_, c.sw == SwConfig::kIP, c.hw, shape);
      rec.counterfactuals.push_back(
          Counterfactual{c.sw, c.hw, p.cycles,
                         c.sw == d.sw && c.hw == d.hw});
    }
    audit_->record(std::move(rec));
  }
  return d;
}

Decision DecisionEngine::decide(Index dimension, double matrix_density,
                                std::size_t frontier_nnz) const {
  return decide_impl(nullptr, dimension, matrix_density, frontier_nnz);
}

Decision DecisionEngine::decide_forced_sw(SwConfig sw, Index dimension,
                                          double matrix_density,
                                          std::size_t frontier_nnz) const {
  return decide_impl(&sw, dimension, matrix_density, frontier_nnz);
}

}  // namespace cosparse::runtime
