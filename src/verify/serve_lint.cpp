#include "verify/serve_lint.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>

#include "serve/cache.h"
#include "sparse/datasets.h"

namespace cosparse::verify {

namespace {

constexpr const char* kPass = "serve_config";
constexpr const char* kSchema = "cosparse.serve_config/v1";

void emit(std::vector<Finding>& out, std::string id, Severity sev,
          std::string message, std::string path) {
  out.push_back(Finding{kPass, std::move(id), sev, std::move(message),
                        Location::config_field(std::move(path))});
}

bool is_uint(const Json& v) {
  return v.type() == Json::Type::kInt && v.as_int() >= 0;
}

/// Requires a non-negative integer field; emits on mismatch. Returns the
/// value (or fallback when bad) so range checks can continue.
std::uint64_t expect_uint(const Json& v, const std::string& path,
                          std::vector<Finding>& out,
                          std::uint64_t fallback = 1) {
  if (!is_uint(v)) {
    emit(out, "serve.bad-type", Severity::kError,
         path + " must be a non-negative integer", path);
    return fallback;
  }
  return static_cast<std::uint64_t>(v.as_int());
}

bool known_dataset(const std::string& name) {
  const auto& specs = sparse::DatasetRegistry::specs();
  return std::any_of(
      specs.begin(), specs.end(),
      [&](const sparse::DatasetSpec& s) { return s.name == name; });
}

/// The serve cache's resident_bytes() over the scaled spec, as the
/// scheduler's virtual cache twin charges it.
std::uint64_t dataset_bytes(const sparse::DatasetSpec& spec,
                            std::uint64_t scale, std::uint64_t tiles) {
  const std::uint64_t v = std::max<std::uint64_t>(1, spec.vertices / scale);
  const std::uint64_t e = std::max<std::uint64_t>(1, spec.edges / scale);
  return serve::resident_bytes(v, e, tiles);
}

void lint_traffic(const Json& traffic, std::vector<Finding>& out,
                  std::uint64_t scale, std::uint64_t tiles,
                  const Json* budget) {
  if (!traffic.is_object()) {
    emit(out, "serve.bad-type", Severity::kError,
         "traffic must be an object", "traffic");
    return;
  }
  static const std::set<std::string> kKnown = {
      "arrival",        "request_interval_us", "request_total_cnt",
      "burst_factor",   "burst_fraction",      "burst_period_us",
      "seed",           "datasets",            "algos",
      "tenants"};
  std::string arrival = "poisson";
  for (const auto& [key, value] : traffic.members()) {
    const std::string path = "traffic." + key;
    if (kKnown.find(key) == kKnown.end()) {
      emit(out, "serve.unknown-field", Severity::kError,
           "unknown traffic field '" + key + "'", path);
      continue;
    }
    if (key == "arrival") {
      if (!value.is_string()) {
        emit(out, "serve.bad-type", Severity::kError,
             "traffic.arrival must be a string", path);
      } else if (value.as_string() != "poisson" &&
                 value.as_string() != "bursty") {
        emit(out, "serve.bad-value", Severity::kError,
             "traffic.arrival must be \"poisson\" or \"bursty\", got '" +
                 value.as_string() + "'",
             path);
      } else {
        arrival = value.as_string();
      }
    } else if (key == "request_interval_us" || key == "burst_period_us") {
      if (expect_uint(value, path, out) == 0)
        emit(out, "serve.bad-value", Severity::kError, path + " must be >= 1",
             path);
    } else if (key == "request_total_cnt" || key == "tenants") {
      if (expect_uint(value, path, out) == 0)
        emit(out, "serve.bad-value", Severity::kError, path + " must be >= 1",
             path);
    } else if (key == "seed") {
      expect_uint(value, path, out);
    } else if (key == "burst_factor") {
      if (!value.is_number()) {
        emit(out, "serve.bad-type", Severity::kError,
             path + " must be a number", path);
      } else if (value.as_double() < 1.0) {
        emit(out, "serve.bad-value", Severity::kError, path + " must be >= 1",
             path);
      }
    } else if (key == "burst_fraction") {
      if (!value.is_number()) {
        emit(out, "serve.bad-type", Severity::kError,
             path + " must be a number", path);
      } else if (value.as_double() <= 0.0 || value.as_double() >= 1.0) {
        emit(out, "serve.bad-value", Severity::kError,
             path + " must be in (0, 1)", path);
      }
    } else if (key == "datasets") {
      if (!value.is_array() || value.items().empty()) {
        emit(out, "serve.bad-value", Severity::kError,
             "traffic.datasets must be a non-empty array of dataset names",
             path);
        continue;
      }
      std::uint64_t largest = 0;
      for (const Json& item : value.items()) {
        if (!item.is_string()) {
          emit(out, "serve.bad-type", Severity::kError,
               "traffic.datasets entries must be strings", path);
          continue;
        }
        if (!known_dataset(item.as_string())) {
          emit(out, "serve.unknown-dataset", Severity::kError,
               "dataset '" + item.as_string() +
                   "' is not in the Table III registry (every request on "
                   "it would error at admission)",
               path);
          continue;
        }
        largest = std::max(
            largest,
            dataset_bytes(sparse::DatasetRegistry::spec(item.as_string()),
                          scale, tiles));
      }
      if (budget != nullptr && is_uint(*budget) && largest > 0 &&
          static_cast<std::uint64_t>(budget->as_int()) < largest) {
        emit(out, "serve.budget-below-dataset", Severity::kWarning,
             "cache_budget_bytes (" + std::to_string(budget->as_int()) +
                 ") is below the largest requested dataset (" +
                 std::to_string(largest) +
                 " bytes at this scale): every load of it runs over budget",
             "cache_budget_bytes");
      }
    } else if (key == "algos") {
      if (!value.is_array() || value.items().empty()) {
        emit(out, "serve.bad-value", Severity::kError,
             "traffic.algos must be a non-empty array of algorithm names",
             path);
        continue;
      }
      for (const Json& item : value.items()) {
        if (!item.is_string() ||
            (item.as_string() != "bfs" && item.as_string() != "sssp" &&
             item.as_string() != "pagerank" && item.as_string() != "cf")) {
          emit(out, "serve.bad-value", Severity::kError,
               "traffic.algos entries must be one of bfs/sssp/pagerank/cf",
               path);
        }
      }
    }
  }
  // Burst knobs on a poisson trace are ignored; call that out so a config
  // that meant to be bursty does not silently test the wrong thing.
  if (arrival == "poisson" &&
      (traffic.find("burst_factor") != nullptr ||
       traffic.find("burst_fraction") != nullptr ||
       traffic.find("burst_period_us") != nullptr)) {
    emit(out, "serve.unused-burst-knobs", Severity::kWarning,
         "burst_* fields have no effect when traffic.arrival is \"poisson\"",
         "traffic.arrival");
  }
}

}  // namespace

std::vector<Finding> lint_serve_config(const Json& doc) {
  std::vector<Finding> out;
  if (!doc.is_object()) {
    emit(out, "serve.bad-document", Severity::kError,
         "serve config is not a JSON object", "(root)");
    return out;
  }
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    emit(out, "serve.missing-schema", Severity::kError,
         std::string("missing schema (expected \"") + kSchema + "\")",
         "schema");
  } else if (schema->as_string() != kSchema) {
    emit(out, "serve.wrong-schema", Severity::kError,
         "unexpected schema '" + schema->as_string() + "' (expected \"" +
             kSchema + "\")",
         "schema");
    return out;
  }

  static const std::set<std::string> kKnown = {
      "schema",        "scheduler_type", "max_active_reqs",
      "max_batch_size", "virtual_workers", "cache_budget_bytes",
      "exec_mode",     "system",         "scale",
      "dataset_seed",  "traffic"};
  std::uint64_t max_active = 64;
  std::uint64_t max_batch = 8;
  std::uint64_t scale = 64;
  std::uint64_t tiles = 8;  // ServeConfig's default system is 8x8
  for (const auto& [key, value] : doc.members()) {
    if (kKnown.find(key) == kKnown.end()) {
      emit(out, "serve.unknown-field", Severity::kError,
           "unknown serve_config field '" + key + "'", key);
      continue;
    }
    if (key == "scheduler_type") {
      if (!value.is_string() || (value.as_string() != "fcfs" &&
                                 value.as_string() != "same-dataset-batch")) {
        emit(out, "serve.bad-value", Severity::kError,
             "scheduler_type must be \"fcfs\" or \"same-dataset-batch\"",
             key);
      }
    } else if (key == "exec_mode") {
      if (!value.is_string() || (value.as_string() != "sim" &&
                                 value.as_string() != "native")) {
        emit(out, "serve.bad-value", Severity::kError,
             "exec_mode must be \"sim\" or \"native\"", key);
      }
    } else if (key == "system") {
      if (!value.is_string() ||
          value.as_string().find('x') == std::string::npos) {
        emit(out, "serve.bad-value", Severity::kError,
             "system must be an AxB spec like \"8x8\"", key);
      } else {
        tiles = std::max<std::uint64_t>(
            1, std::strtoull(value.as_string().c_str(), nullptr, 10));
      }
    } else if (key == "max_active_reqs") {
      max_active = expect_uint(value, key, out);
      if (max_active == 0)
        emit(out, "serve.bad-value", Severity::kError,
             "max_active_reqs must be >= 1", key);
    } else if (key == "max_batch_size") {
      max_batch = expect_uint(value, key, out);
      if (max_batch == 0)
        emit(out, "serve.bad-value", Severity::kError,
             "max_batch_size must be >= 1", key);
    } else if (key == "virtual_workers" || key == "scale") {
      const std::uint64_t v = expect_uint(value, key, out);
      if (v == 0)
        emit(out, "serve.bad-value", Severity::kError, key + " must be >= 1",
             key);
      if (key == "scale" && v > 0) scale = v;
    } else if (key == "cache_budget_bytes" || key == "dataset_seed") {
      expect_uint(value, key, out);
    }
  }
  if (max_batch > max_active) {
    emit(out, "serve.batch-exceeds-active", Severity::kWarning,
         "max_batch_size (" + std::to_string(max_batch) +
             ") exceeds max_active_reqs (" + std::to_string(max_active) +
             "): admission control caps every batch below its size",
         "max_batch_size");
  }
  if (const Json* traffic = doc.find("traffic"); traffic != nullptr)
    lint_traffic(*traffic, out, scale, tiles, doc.find("cache_budget_bytes"));
  return out;
}

LintReport lint_serve_config_json(const Json& doc,
                                  const std::string& subject) {
  LintReport report(subject);
  report.add(lint_serve_config(doc));
  report.sort_by_severity();
  return report;
}

}  // namespace cosparse::verify
