// Decision audit trail: why the decision tree chose what it chose.
//
// A DecisionEngine with an attached AuditTrail records, for every SpMV
// invocation it decides, one DecisionRecord:
//   * the feature vector the tree saw (frontier/vector density, the
//     vector's cache footprint vs the per-tile L1 capacity, the OP per-PE
//     sorted-list size vs its SPM budget);
//   * every threshold that was compared, with its value, threshold and
//     signed margin (value - threshold; the sign says which side won);
//   * the chosen SwConfig/HwConfig;
//   * counterfactual cycle estimates (sim::analytic::estimate_spmv) for
//     all four candidate configurations (IP/SC, IP/SCS, OP/PC, OP/PS),
//     the chosen one marked.
//
// Records are deterministic: the same inputs produce byte-identical
// records (asserted by tests/runtime/test_audit.cpp). The runtime::Engine
// owns one AuditTrail, always on — a record is a handful of numbers per
// SpMV, negligible next to the simulation itself — and serializes it as
// the "decision_audit" run-report section (DESIGN.md §9).
//
// Caveat: the record reflects the *decision engine's* choice. When the
// engine runs with hw_reconfig=false it overrides the hardware config
// after the decision; the iteration log shows the executed config, the
// audit shows the advised one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/types.h"
#include "sim/config.h"

namespace cosparse::runtime {

enum class SwConfig : std::uint8_t;
[[nodiscard]] const char* to_string(SwConfig c);

/// The feature vector of one decision (paper Fig. 2 inputs plus the
/// capacity comparisons of §III-C).
struct DecisionFeatures {
  Index dimension = 0;
  double matrix_density = 0.0;
  std::uint64_t frontier_nnz = 0;
  double vector_density = 0.0;
  /// IP dense-vector working set: 8 B values + 1 bit of bitmap per vertex.
  std::uint64_t vector_footprint_bytes = 0;
  std::uint64_t l1_bytes_per_tile = 0;
  /// OP per-PE sorted list of column heads (bytes)...
  std::uint64_t op_list_bytes_per_pe = 0;
  /// ...vs its budget (ps_list_fraction x one private L1 bank).
  std::uint64_t op_list_budget_bytes = 0;

  [[nodiscard]] Json to_json() const;
};

/// One threshold comparison inside the tree.
struct ThresholdCheck {
  std::string name;        ///< "cvd", "scs_density", "ip_l1_fit", "ps_list"
  double value = 0.0;      ///< feature value compared
  double threshold = 0.0;  ///< threshold it was compared against
  double margin = 0.0;     ///< value - threshold
  bool passed = false;     ///< true when value >= threshold

  [[nodiscard]] Json to_json() const;
};

/// Estimated cost of one candidate configuration.
struct Counterfactual {
  SwConfig sw;
  sim::HwConfig hw = sim::HwConfig::kSC;
  Cycles est_cycles = 0;
  bool chosen = false;

  [[nodiscard]] Json to_json() const;
};

struct DecisionRecord {
  std::uint32_t invocation = 0;  ///< sequential per AuditTrail
  bool forced_sw = false;        ///< SW was pinned by the caller, not decided
  DecisionFeatures features;
  std::vector<ThresholdCheck> checks;
  SwConfig sw;
  sim::HwConfig hw = sim::HwConfig::kSC;
  double cvd = 0.0;  ///< the applied crossover vector density
  std::vector<Counterfactual> counterfactuals;

  [[nodiscard]] Json to_json() const;
};

class AuditTrail {
 public:
  /// Assigns the record its sequential invocation id and stores it.
  void record(DecisionRecord rec);

  [[nodiscard]] const std::vector<DecisionRecord>& records() const {
    return records_;
  }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  void clear();

  /// The "decision_audit" run-report section: {"invocations": [...]}.
  [[nodiscard]] Json to_json() const;

 private:
  std::vector<DecisionRecord> records_;
  std::uint32_t next_invocation_ = 0;
};

}  // namespace cosparse::runtime
