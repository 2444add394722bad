#include "verify/schema_lint.h"

#include <cmath>
#include <cstdint>
#include <string>

#include "obs/report.h"
#include "verify/telemetry_lint.h"

namespace cosparse::verify {

namespace {

constexpr const char* kPass = "report_schema";

void emit(std::vector<Finding>& out, std::string id, Severity sev,
          std::string message, std::string path) {
  out.push_back(Finding{kPass, std::move(id), sev, std::move(message),
                        Location::document(std::move(path))});
}

void lint_stats(const Json& doc, std::vector<Finding>& out) {
  const Json* stats = doc.find("stats");
  if (stats == nullptr) return;
  if (!stats->is_object()) {
    emit(out, "report.bad-section", Severity::kError,
         "stats is not an object", "stats");
    return;
  }
  const Json* tiles = doc.find("tile_stats");
  if (tiles == nullptr) return;
  if (!tiles->is_array()) {
    emit(out, "report.bad-section", Severity::kError,
         "tile_stats is not an array", "tile_stats");
    return;
  }
  // The element-wise sum over tiles must reproduce the global stats:
  // exactly for integer counters, to rounding for cycle doubles.
  for (const auto& [name, global] : stats->members()) {
    if (!global.is_number()) {
      emit(out, "report.bad-value", Severity::kError,
           "stats counter is not a number: " + name, "stats." + name);
      continue;
    }
    bool missing = false;
    if (global.type() == Json::Type::kInt) {
      std::int64_t sum = 0;
      for (std::size_t i = 0; i < tiles->size(); ++i) {
        const Json* v = tiles->at(i).find(name);
        if (v == nullptr) {
          emit(out, "report.missing-counter", Severity::kError,
               "tile_stats missing counter: " + name, "tile_stats." + name);
          missing = true;
          break;
        }
        if (!v->is_integer()) {
          emit(out, "report.bad-value", Severity::kError,
               "tile counter is not an integer: " + name,
               "tile_stats[" + std::to_string(i) + "]." + name);
          missing = true;
          break;
        }
        sum += v->as_int();
      }
      if (!missing && sum != global.as_int()) {
        emit(out, "report.tile-sum-mismatch", Severity::kError,
             "tile_stats do not sum to stats for counter: " + name,
             "tile_stats." + name);
      }
    } else {
      double sum = 0.0;
      for (std::size_t i = 0; i < tiles->size(); ++i) {
        const Json* v = tiles->at(i).find(name);
        if (v == nullptr) {
          emit(out, "report.missing-counter", Severity::kError,
               "tile_stats missing counter: " + name, "tile_stats." + name);
          missing = true;
          break;
        }
        if (!v->is_number()) {
          emit(out, "report.bad-value", Severity::kError,
               "tile counter is not a number: " + name,
               "tile_stats[" + std::to_string(i) + "]." + name);
          missing = true;
          break;
        }
        sum += v->as_double();
      }
      const double g = global.as_double();
      const double tol = 1e-6 * std::max(1.0, std::abs(g));
      if (!missing && std::abs(sum - g) > tol) {
        emit(out, "report.tile-sum-mismatch", Severity::kError,
             "tile_stats do not sum to stats for counter: " + name,
             "tile_stats." + name);
      }
    }
  }
}

void lint_iterations(const Json& doc, std::vector<Finding>& out) {
  const Json* iters = doc.find("iterations");
  if (iters == nullptr) return;
  if (!iters->is_array()) {
    emit(out, "report.bad-section", Severity::kError,
         "iterations is not an array", "iterations");
    return;
  }
  std::size_t index = 0;
  for (const Json& it : iters->items()) {
    const std::string path = "iterations[" + std::to_string(index++) + "]";
    for (const char* key :
         {"index", "frontier_nnz", "density", "sw", "hw", "cycles"}) {
      if (it.find(key) == nullptr) {
        emit(out, "report.missing-field", Severity::kError,
             std::string("iteration record missing field: ") + key,
             path + "." + key);
      }
    }
    if (const Json* sw = it.find("sw");
        sw != nullptr && sw->is_string() && sw->as_string() != "IP" &&
        sw->as_string() != "OP") {
      emit(out, "report.bad-value", Severity::kError,
           "bad iteration sw: " + sw->as_string(), path + ".sw");
    }
  }
}

void lint_memory_profile(const Json& doc, std::vector<Finding>& out) {
  const Json* prof = doc.find("memory_profile");
  if (prof == nullptr) return;
  if (!prof->is_object()) {
    emit(out, "report.bad-section", Severity::kError,
         "memory_profile is not an object", "memory_profile");
    return;
  }
  const Json* ptotals = prof->find("totals");
  const Json* regions = prof->find("regions");
  if (ptotals == nullptr || !ptotals->is_object()) {
    emit(out, "report.missing-field", Severity::kError,
         "memory_profile missing object field: totals",
         "memory_profile.totals");
    return;
  }
  if (regions == nullptr || !regions->is_object()) {
    emit(out, "report.missing-field", Severity::kError,
         "memory_profile missing object field: regions",
         "memory_profile.regions");
    return;
  }
  for (const auto& [name, total] : ptotals->members()) {
    // Region sums reproduce the profile totals (exactly for integer
    // counters, to rounding for the stall-cycle doubles).
    if (total.type() == Json::Type::kInt) {
      std::int64_t sum = 0;
      bool missing = false;
      for (const auto& [label, region] : regions->members()) {
        const Json* counters = region.find("counters");
        if (counters == nullptr) {
          emit(out, "report.missing-field", Severity::kError,
               "memory_profile region missing counters: " + label,
               "memory_profile.regions." + label);
          missing = true;
          break;
        }
        const Json* v = counters->find(name);
        if (v == nullptr) {
          emit(out, "report.missing-counter", Severity::kError,
               "memory_profile region missing counter: " + name,
               "memory_profile.regions." + label);
          missing = true;
          break;
        }
        if (!v->is_integer()) {
          emit(out, "report.bad-value", Severity::kError,
               "memory_profile region counter is not an integer: " + name,
               "memory_profile.regions." + label + ".counters." + name);
          missing = true;
          break;
        }
        sum += v->as_int();
      }
      if (!missing && sum != total.as_int()) {
        emit(out, "report.region-sum-mismatch", Severity::kError,
             "memory_profile regions do not sum to totals for counter: " +
                 name,
             "memory_profile.totals." + name);
      }
    }
    // Profile totals reproduce the global stats bit-exactly for every
    // counter name the two sections share (the MemProfiler invariant).
    if (const Json* stats = doc.find("stats"); stats != nullptr) {
      const Json* g = stats->find(name);
      if (g != nullptr && total.type() == Json::Type::kInt &&
          g->type() == Json::Type::kInt && total.as_int() != g->as_int()) {
        emit(out, "report.profile-stats-divergence", Severity::kError,
             "memory_profile total diverges from stats counter: " + name,
             "memory_profile.totals." + name);
      }
    }
  }
}

void lint_decision_audit(const Json& doc, std::vector<Finding>& out) {
  const Json* audit = doc.find("decision_audit");
  if (audit == nullptr) return;
  if (!audit->is_object()) {
    emit(out, "report.bad-section", Severity::kError,
         "decision_audit is not an object", "decision_audit");
    return;
  }
  const Json* invs = audit->find("invocations");
  if (invs == nullptr || !invs->is_array()) {
    emit(out, "report.missing-field", Severity::kError,
         "decision_audit missing array field: invocations",
         "decision_audit.invocations");
    return;
  }
  std::uint32_t expected = 0;
  std::size_t index = 0;
  for (const Json& rec : invs->items()) {
    const std::string path =
        "decision_audit.invocations[" + std::to_string(index++) + "]";
    bool complete = true;
    for (const char* key : {"invocation", "forced_sw", "features", "checks",
                            "sw", "hw", "cvd", "counterfactuals"}) {
      if (rec.find(key) == nullptr) {
        emit(out, "report.missing-field", Severity::kError,
             std::string("decision record missing field: ") + key,
             path + "." + key);
        complete = false;
      }
    }
    if (!complete) continue;
    const Json* invocation = rec.find("invocation");
    if (!invocation->is_integer()) {
      emit(out, "report.bad-value", Severity::kError,
           "decision record invocation is not an integer",
           path + ".invocation");
      ++expected;
    } else if (invocation->as_int() != expected++) {
      emit(out, "report.bad-value", Severity::kError,
           "decision records are not sequentially numbered",
           path + ".invocation");
    }
    const Json* cfs = rec.find("counterfactuals");
    if (!cfs->is_array() || cfs->size() != 4) {
      emit(out, "report.bad-value", Severity::kError,
           "decision record must carry 4 counterfactuals",
           path + ".counterfactuals");
      continue;
    }
    std::size_t chosen = 0;
    bool have_flags = true;
    for (std::size_t i = 0; i < cfs->size(); ++i) {
      const Json* flag = cfs->at(i).find("chosen");
      if (flag == nullptr) {
        emit(out, "report.missing-field", Severity::kError,
             "counterfactual missing field: chosen",
             path + ".counterfactuals");
        have_flags = false;
        break;
      }
      if (!flag->is_bool()) {
        emit(out, "report.bad-value", Severity::kError,
             "counterfactual chosen is not a bool",
             path + ".counterfactuals[" + std::to_string(i) + "].chosen");
        have_flags = false;
        break;
      }
      if (flag->as_bool()) ++chosen;
    }
    if (have_flags && chosen != 1) {
      emit(out, "report.bad-value", Severity::kError,
           "decision record must mark exactly one chosen counterfactual",
           path + ".counterfactuals");
    }
  }
}

}  // namespace

std::vector<Finding> lint_run_report(const Json& doc) {
  std::vector<Finding> out;
  if (!doc.is_object()) {
    emit(out, "report.not-object", Severity::kError,
         "report is not a JSON object", "(root)");
    return out;
  }

  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    emit(out, "report.missing-field", Severity::kError,
         "missing string field: schema", "schema");
  } else if (schema->as_string() != obs::kReportSchema) {
    emit(out, "report.bad-schema", Severity::kError,
         "unexpected schema: " + schema->as_string(), "schema");
  }
  const Json* tool = doc.find("tool");
  if (tool == nullptr || !tool->is_string() || tool->as_string().empty()) {
    emit(out, "report.missing-field", Severity::kError,
         "missing/empty string field: tool", "tool");
  }

  if (const Json* totals = doc.find("totals"); totals != nullptr) {
    if (!totals->is_object()) {
      emit(out, "report.bad-section", Severity::kError,
           "totals is not an object", "totals");
    } else if (const Json* cycles = totals->find("cycles");
               cycles == nullptr || !cycles->is_number()) {
      emit(out, "report.missing-field", Severity::kError,
           "totals missing number field: cycles", "totals.cycles");
    }
  }

  lint_stats(doc, out);
  lint_iterations(doc, out);
  lint_memory_profile(doc, out);
  lint_decision_audit(doc, out);
  for (Finding& f : lint_telemetry_section(doc)) out.push_back(std::move(f));
  return out;
}

LintReport lint_run_report_json(const Json& doc, const std::string& subject) {
  LintReport report(subject);
  report.add(lint_run_report(doc));
  report.sort_by_severity();
  return report;
}

}  // namespace cosparse::verify
