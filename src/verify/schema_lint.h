// Pass 4: report/audit schema lint.
//
// Validates a cosparse.run_report/v1 document structurally and checks its
// cross-section invariants: per-tile stats sum to the global stats,
// memory-profile regions sum to the profile totals (which in turn match
// the shared global counters bit-exactly), iteration records carry the
// mandatory fields, and every decision-audit record numbers sequentially
// and marks exactly one chosen counterfactual. `cosparse-lint report` and
// the observability unit tests both call this, so they cannot drift
// apart.
#pragma once

#include <vector>

#include "common/json.h"
#include "verify/findings.h"

namespace cosparse::verify {

[[nodiscard]] std::vector<Finding> lint_run_report(const Json& doc);

}  // namespace cosparse::verify
