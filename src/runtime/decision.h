// The CoSPARSE reconfiguration decision tree (paper Fig. 2 and §III-C).
//
// Before every SpMV invocation the runtime picks:
//   1. software: inner product (dense dataflow) when the frontier density
//      is above the crossover vector density (CVD), outer product below it;
//   2. hardware: for IP, SCS when the frontier is dense enough that
//      SPM-pinned vector values pay for the per-vblock DMA fills *and* the
//      vector exceeds what the L1 cache could hold (otherwise SC); for OP,
//      PS when the per-PE sorted list of column heads outgrows the private
//      L1 bank (otherwise PC).
//
// Threshold provenance (§III-C takeaways):
//   * CVD falls from ~2% at 8 PEs/tile to ~0.5% at 32 — modeled as
//     cvd = cvd_coefficient / pes_per_tile (0.16/8 = 2%, 0.16/32 = 0.5%);
//   * sparser matrices shift the CVD slightly up (less vector reuse for
//     IP) — a small power-law correction around the densest Fig. 4 matrix;
//   * the SCS/SC split tracks Fig. 9: SCS wins at ~27-47% density, SC at
//     <= 12%.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.h"
#include "sim/config.h"

namespace cosparse::runtime {

class AuditTrail;
struct DecisionRecord;

enum class SwConfig : std::uint8_t { kIP, kOP };

[[nodiscard]] const char* to_string(SwConfig c);
/// Inverse of to_string(); throws cosparse::Error on unknown names.
[[nodiscard]] SwConfig sw_config_from_string(std::string_view s);

struct Thresholds {
  // --- software (CVD) ---
  double cvd_coefficient = 0.16;
  double matrix_density_exponent = 0.10;
  double matrix_density_reference = 2.3e-4;  ///< densest Fig. 4 matrix
  double cvd_min = 0.002;
  double cvd_max = 0.08;

  // --- hardware, inner product ---
  double scs_density = 0.20;

  // --- hardware, outer product ---
  /// PS is selected once the per-PE sorted list exceeds this fraction of
  /// one private L1 bank.
  double ps_list_fraction = 1.0;

  /// Crossover vector density for a machine with `pes_per_tile` PEs per
  /// tile running a matrix of the given density.
  [[nodiscard]] double cvd(std::uint32_t pes_per_tile,
                           double matrix_density) const;
};

struct Decision {
  SwConfig sw = SwConfig::kIP;
  sim::HwConfig hw = sim::HwConfig::kSC;
  double vector_density = 0.0;
  double cvd = 0.0;  ///< the threshold that was applied
};

class DecisionEngine {
 public:
  explicit DecisionEngine(const sim::SystemConfig& cfg, Thresholds t = {})
      : cfg_(cfg), thresholds_(t) {}

  /// Full decision for one SpMV invocation.
  [[nodiscard]] Decision decide(Index dimension, double matrix_density,
                                std::size_t frontier_nnz) const;

  /// Like decide(), but with the software configuration pinned by the
  /// caller (the engine's sw_reconfig=false modes). The hardware half of
  /// the tree still runs, and the invocation is still audited (flagged
  /// forced_sw).
  [[nodiscard]] Decision decide_forced_sw(SwConfig sw, Index dimension,
                                          double matrix_density,
                                          std::size_t frontier_nnz) const;

  /// Hardware-only decision given a forced software choice (used by the
  /// ablation modes and by Fig. 9's per-configuration sweeps). Not
  /// audited.
  [[nodiscard]] sim::HwConfig decide_hw(SwConfig sw, Index dimension,
                                        std::size_t frontier_nnz) const;

  [[nodiscard]] const Thresholds& thresholds() const { return thresholds_; }

  /// Attaches an audit trail (not owned); decide()/decide_forced_sw() then
  /// append one DecisionRecord per invocation (runtime/audit.h). Pass
  /// nullptr to detach.
  void set_audit(AuditTrail* a) { audit_ = a; }

 private:
  /// The shared body of decide()/decide_forced_sw(); `forced` pins the
  /// software configuration when non-null.
  Decision decide_impl(const SwConfig* forced, Index dimension,
                       double matrix_density, std::size_t frontier_nnz) const;
  /// The hardware half of the tree; appends threshold checks to `rec`
  /// when auditing.
  sim::HwConfig decide_hw_impl(SwConfig sw, Index dimension,
                               std::size_t frontier_nnz,
                               DecisionRecord* rec) const;

  sim::SystemConfig cfg_;
  Thresholds thresholds_;
  AuditTrail* audit_ = nullptr;
};

}  // namespace cosparse::runtime
