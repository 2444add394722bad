#include "verify/serve_lint.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "serve/config.h"
#include "serve/scheduler.h"

namespace cosparse::verify {

namespace {

constexpr const char* kPass = "serve_config";

void emit(std::vector<Finding>& out, std::string id, Severity sev,
          std::string message, std::string path) {
  out.push_back(Finding{kPass, std::move(id), sev, std::move(message),
                        Location::config_field(std::move(path))});
}

}  // namespace

std::vector<Finding> lint_serve_config(const Json& doc) {
  const serve::ParsedServeConfig parsed = serve::parse_serve_config(doc);
  std::vector<Finding> out;
  for (const serve::ConfigProblem& p : parsed.problems)
    emit(out, p.id, Severity::kError, p.message, p.path);

  // Advisory warnings: legal configs that defeat themselves, judged on
  // the parsed config (defaults included).
  const serve::ServeConfig& cfg = parsed.config;
  if (cfg.max_batch_size > cfg.max_active_reqs) {
    emit(out, "serve.batch-exceeds-active", Severity::kWarning,
         "max_batch_size (" + std::to_string(cfg.max_batch_size) +
             ") exceeds max_active_reqs (" +
             std::to_string(cfg.max_active_reqs) +
             "): admission control caps every batch below its size",
         "max_batch_size");
  }
  // Charged exactly as the scheduler's virtual cache twin charges it.
  const serve::CostModel cost{cfg.scale,
                              serve::parse_system(cfg.system).num_tiles};
  std::uint64_t largest = 0;
  for (const std::string& dataset : cfg.traffic.datasets)
    largest = std::max(largest, cost.bytes(dataset));
  if (cfg.cache_budget_bytes < largest) {
    emit(out, "serve.budget-below-dataset", Severity::kWarning,
         "cache_budget_bytes (" + std::to_string(cfg.cache_budget_bytes) +
             ") is below the largest requested dataset (" +
             std::to_string(largest) +
             " bytes at this scale): every load of it runs over budget",
         "cache_budget_bytes");
  }
  // Burst knobs on a poisson trace are ignored; call that out so a config
  // that meant to be bursty does not silently test the wrong thing.
  const Json* traffic = doc.find("traffic");
  if (cfg.traffic.arrival == "poisson" && traffic != nullptr &&
      (traffic->find("burst_factor") != nullptr ||
       traffic->find("burst_fraction") != nullptr ||
       traffic->find("burst_period_us") != nullptr)) {
    emit(out, "serve.unused-burst-knobs", Severity::kWarning,
         "burst_* fields have no effect when traffic.arrival is \"poisson\"",
         "traffic.arrival");
  }
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
