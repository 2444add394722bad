#include "verify/telemetry_lint.h"

#include <sstream>

#include "common/error.h"
#include "obs/telemetry.h"

namespace cosparse::verify {

namespace {

constexpr const char* kPass = "telemetry";

void emit(std::vector<Finding>& out, std::string id, Severity sev,
          std::string message, std::string path) {
  out.push_back(Finding{kPass, std::move(id), sev, std::move(message),
                        Location::document(std::move(path))});
}

/// Digest invariants shared by section and JSONL hists: count/sum present
/// and the quantile ladder monotone (p50 <= p90 <= p99 <= p999 <= max).
void lint_hist_object(const Json& hist, const std::string& path,
                      std::vector<Finding>& out) {
  if (!hist.is_object()) {
    emit(out, "telemetry.bad-section", Severity::kError,
         "hist is not an object", path);
    return;
  }
  for (const auto& [name, digest] : hist.members()) {
    const std::string dpath = path + "." + name;
    bool complete = true;
    for (const char* key :
         {"count", "sum", "min", "max", "p50", "p90", "p99", "p999"}) {
      const Json* v = digest.find(key);
      if (v == nullptr || !v->is_number()) {
        emit(out, "telemetry.missing-field", Severity::kError,
             std::string("histogram digest missing number field: ") + key,
             dpath + "." + key);
        complete = false;
      }
    }
    if (!complete) continue;
    const double p50 = digest.find("p50")->as_double();
    const double p90 = digest.find("p90")->as_double();
    const double p99 = digest.find("p99")->as_double();
    const double p999 = digest.find("p999")->as_double();
    const double mx = digest.find("max")->as_double();
    if (!(p50 <= p90 && p90 <= p99 && p99 <= p999 && p999 <= mx)) {
      emit(out, "telemetry.quantile-order", Severity::kError,
           "histogram quantiles are not monotone: " + name, dpath);
    }
    if (digest.find("count")->as_double() < 0.0) {
      emit(out, "telemetry.bad-value", Severity::kError,
           "histogram count is negative: " + name, dpath + ".count");
    }
  }
}

void lint_snapshot(const Json& snap, const std::string& path,
                   std::vector<Finding>& out) {
  const Json* schema = snap.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    emit(out, "telemetry.missing-field", Severity::kError,
         "snapshot missing string field: schema", path + ".schema");
  } else if (schema->as_string() != obs::kTelemetrySchema) {
    emit(out, "telemetry.bad-schema", Severity::kError,
         "unexpected snapshot schema: " + schema->as_string(),
         path + ".schema");
  }
  for (const char* key : {"seq", "wall_ms", "iterations"}) {
    const Json* v = snap.find(key);
    if (v == nullptr || !v->is_number()) {
      emit(out, "telemetry.missing-field", Severity::kError,
           std::string("snapshot missing number field: ") + key,
           path + "." + std::string(key));
    }
  }
  const Json* header = snap.find("header");
  if (header == nullptr || !header->is_object()) {
    emit(out, "telemetry.missing-field", Severity::kError,
         "snapshot missing object field: header", path + ".header");
  } else {
    // Self-describing-stream contract (ISSUE satellite 6): every snapshot
    // names its producing tool and the resolved sim-thread count.
    for (const char* key : {"tool", "sim_threads"}) {
      if (header->find(key) == nullptr) {
        emit(out, "telemetry.missing-header", Severity::kWarning,
             std::string("snapshot header missing field: ") + key,
             path + ".header." + key);
      }
    }
  }
  if (const Json* hist = snap.find("hist"); hist != nullptr) {
    lint_hist_object(*hist, path + ".hist", out);
  } else {
    emit(out, "telemetry.missing-field", Severity::kError,
         "snapshot missing object field: hist", path + ".hist");
  }
}

}  // namespace

std::vector<Finding> lint_telemetry_section(const Json& doc) {
  std::vector<Finding> out;
  const Json* tel = doc.find("telemetry");
  if (tel == nullptr) return out;  // telemetry is opt-in
  if (!tel->is_object()) {
    emit(out, "telemetry.bad-section", Severity::kError,
         "telemetry is not an object", "telemetry");
    return out;
  }
  const Json* schema = tel->find("schema");
  if (schema == nullptr || !schema->is_string()) {
    emit(out, "telemetry.missing-field", Severity::kError,
         "telemetry missing string field: schema", "telemetry.schema");
  } else if (schema->as_string() != obs::kTelemetrySchema) {
    emit(out, "telemetry.bad-schema", Severity::kError,
         "unexpected telemetry schema: " + schema->as_string(),
         "telemetry.schema");
  }
  const Json* snaps = tel->find("snapshots");
  if (snaps == nullptr || !snaps->is_number()) {
    emit(out, "telemetry.missing-field", Severity::kError,
         "telemetry missing number field: snapshots", "telemetry.snapshots");
  }
  if (const Json* hist = tel->find("hist"); hist != nullptr) {
    lint_hist_object(*hist, "telemetry.hist", out);
  } else {
    emit(out, "telemetry.missing-field", Severity::kError,
         "telemetry missing object field: hist", "telemetry.hist");
  }
  if (const Json* slo = tel->find("slo"); slo != nullptr) {
    if (!slo->is_object() || slo->find("rules") == nullptr ||
        !slo->find("rules")->is_array() ||
        slo->find("violations") == nullptr ||
        !slo->find("violations")->is_array()) {
      emit(out, "telemetry.bad-section", Severity::kError,
           "telemetry.slo must carry rules and violations arrays",
           "telemetry.slo");
    }
  }
  return out;
}

std::vector<Finding> lint_telemetry_jsonl(const std::string& text) {
  std::vector<Finding> out;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  std::size_t snapshots = 0;
  std::int64_t last_seq = -1;
  double last_wall_ms = -1.0;
  double last_iterations = -1.0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string path = "line[" + std::to_string(line_no) + "]";
    Json snap;
    try {
      snap = Json::parse(line);
    } catch (const Error& e) {
      emit(out, "telemetry.bad-json", Severity::kError,
           std::string("unparseable JSONL line: ") + e.what(), path);
      continue;
    }
    ++snapshots;
    lint_snapshot(snap, path, out);
    // Monotonicity across the stream: strictly increasing seq, monotone
    // wall clock and iteration progress.
    const Json* seq = snap.find("seq");
    if (seq != nullptr && seq->is_number() && !seq->is_integer()) {
      emit(out, "telemetry.bad-value", Severity::kError,
           "snapshot seq is not an integer", path + ".seq");
    } else if (seq != nullptr && seq->is_number()) {
      if (seq->as_int() <= last_seq) {
        emit(out, "telemetry.seq-not-increasing", Severity::kError,
             "snapshot seq does not strictly increase", path + ".seq");
      }
      last_seq = seq->as_int();
    }
    const Json* wall = snap.find("wall_ms");
    if (wall != nullptr && wall->is_number()) {
      if (wall->as_double() < last_wall_ms) {
        emit(out, "telemetry.time-regression", Severity::kError,
             "snapshot wall_ms regresses", path + ".wall_ms");
      }
      last_wall_ms = wall->as_double();
    }
    const Json* iters = snap.find("iterations");
    if (iters != nullptr && iters->is_number()) {
      if (iters->as_double() < last_iterations) {
        emit(out, "telemetry.progress-regression", Severity::kError,
             "snapshot iterations regress", path + ".iterations");
      }
      last_iterations = iters->as_double();
    }
  }
  if (snapshots == 0) {
    emit(out, "telemetry.empty-stream", Severity::kError,
         "telemetry JSONL stream holds no snapshots", "(root)");
  }
  return out;
}

}  // namespace cosparse::verify
