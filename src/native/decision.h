// Per-iteration kernel-family tally for the native backend.
//
// The push/pull choice itself is made by the audited runtime::DecisionEngine
// — the same thresholds over the same frontier density features in both
// exec modes, so the decision_audit section of a native run is
// byte-identical to the sim run's. A native engine counts each audited SW
// decision here (IP -> row-parallel pull SpMV, OP -> column-merge push
// SpMSpV); the run report's "native" section and the engine metrics
// publish the tally.
#pragma once

#include <cstdint>

#include "common/json.h"

namespace cosparse::native {

class DecisionEngine {
 public:
  /// Counts one iteration; `pull` is the audited SW decision (sw == kIP).
  void count(bool pull) { ++(pull ? pulls_ : pushes_); }

  [[nodiscard]] std::uint64_t pulls() const { return pulls_; }
  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }

  [[nodiscard]] Json to_json() const {
    Json o = Json::object();
    o["pull_iterations"] = pulls_;
    o["push_iterations"] = pushes_;
    return o;
  }

 private:
  std::uint64_t pulls_ = 0;
  std::uint64_t pushes_ = 0;
};

}  // namespace cosparse::native
