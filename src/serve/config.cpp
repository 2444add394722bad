#include "serve/config.h"

#include <limits>

#include "common/error.h"

namespace cosparse::serve {

namespace {

[[noreturn]] void bad(const std::string& field, const std::string& why) {
  throw Error("serve_config: field '" + field + "' " + why);
}

std::uint64_t get_u64(const Json& v, const std::string& field) {
  if (v.type() != Json::Type::kInt) bad(field, "must be an integer");
  const std::int64_t raw = v.as_int();
  if (raw < 0) bad(field, "must be >= 0");
  return static_cast<std::uint64_t>(raw);
}

std::uint32_t get_u32(const Json& v, const std::string& field) {
  const std::uint64_t wide = get_u64(v, field);
  if (wide > std::numeric_limits<std::uint32_t>::max())
    bad(field, "is out of range");
  return static_cast<std::uint32_t>(wide);
}

double get_real(const Json& v, const std::string& field) {
  if (!v.is_number()) bad(field, "must be a number");
  return v.as_double();
}

std::string get_string(const Json& v, const std::string& field) {
  if (!v.is_string()) bad(field, "must be a string");
  return v.as_string();
}

std::vector<std::string> get_string_list(const Json& v,
                                         const std::string& field) {
  if (!v.is_array()) bad(field, "must be an array of strings");
  std::vector<std::string> out;
  for (const Json& item : v.items()) {
    if (!item.is_string()) bad(field, "must be an array of strings");
    out.push_back(item.as_string());
  }
  return out;
}

TrafficConfig traffic_from_json(const Json& doc) {
  if (!doc.is_object()) bad("traffic", "must be an object");
  TrafficConfig t;
  for (const auto& [key, value] : doc.members()) {
    const std::string path = "traffic." + key;
    if (key == "arrival") {
      t.arrival = get_string(value, path);
    } else if (key == "request_interval_us") {
      t.request_interval_us = get_u64(value, path);
    } else if (key == "request_total_cnt") {
      t.request_total_cnt = get_u32(value, path);
    } else if (key == "burst_factor") {
      t.burst_factor = get_real(value, path);
    } else if (key == "burst_fraction") {
      t.burst_fraction = get_real(value, path);
    } else if (key == "burst_period_us") {
      t.burst_period_us = get_u64(value, path);
    } else if (key == "seed") {
      t.seed = get_u64(value, path);
    } else if (key == "datasets") {
      t.datasets = get_string_list(value, path);
    } else if (key == "algos") {
      t.algos = get_string_list(value, path);
    } else if (key == "tenants") {
      t.tenants = get_u32(value, path);
    } else {
      bad(path, "is not a known traffic field");
    }
  }
  return t;
}

}  // namespace

ServeConfig ServeConfig::from_json(const Json& doc) {
  if (!doc.is_object()) throw Error("serve_config: document is not an object");
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string())
    bad("schema", "is missing (expected \"" +
                      std::string(kServeConfigSchema) + "\")");
  if (schema->as_string() != kServeConfigSchema)
    bad("schema", "has unexpected value '" + schema->as_string() + "'");

  ServeConfig cfg;
  bool saw_traffic = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "schema") {
      continue;
    } else if (key == "scheduler_type") {
      cfg.scheduler_type = get_string(value, key);
    } else if (key == "max_active_reqs") {
      cfg.max_active_reqs = get_u32(value, key);
    } else if (key == "max_batch_size") {
      cfg.max_batch_size = get_u32(value, key);
    } else if (key == "virtual_workers") {
      cfg.virtual_workers = get_u32(value, key);
    } else if (key == "cache_budget_bytes") {
      cfg.cache_budget_bytes = get_u64(value, key);
    } else if (key == "exec_mode") {
      cfg.exec_mode = get_string(value, key);
    } else if (key == "system") {
      cfg.system = get_string(value, key);
    } else if (key == "scale") {
      cfg.scale = get_u32(value, key);
    } else if (key == "dataset_seed") {
      cfg.dataset_seed = get_u64(value, key);
    } else if (key == "traffic") {
      cfg.traffic = traffic_from_json(value);
      saw_traffic = true;
    } else {
      bad(key, "is not a known serve_config field");
    }
  }
  (void)saw_traffic;  // traffic is optional; defaults serve a smoke mix

  // Range checks (the same invariants serve_lint reports as findings).
  if (cfg.scheduler_type != "fcfs" &&
      cfg.scheduler_type != "same-dataset-batch")
    bad("scheduler_type", "must be \"fcfs\" or \"same-dataset-batch\"");
  if (cfg.max_active_reqs == 0) bad("max_active_reqs", "must be >= 1");
  if (cfg.max_batch_size == 0) bad("max_batch_size", "must be >= 1");
  if (cfg.virtual_workers == 0) bad("virtual_workers", "must be >= 1");
  if (cfg.scale == 0) bad("scale", "must be >= 1");
  if (cfg.exec_mode != "sim" && cfg.exec_mode != "native")
    bad("exec_mode", "must be \"sim\" or \"native\"");
  if (cfg.traffic.arrival != "poisson" && cfg.traffic.arrival != "bursty")
    bad("traffic.arrival", "must be \"poisson\" or \"bursty\"");
  if (cfg.traffic.request_interval_us == 0)
    bad("traffic.request_interval_us", "must be >= 1");
  if (cfg.traffic.burst_factor < 1.0)
    bad("traffic.burst_factor", "must be >= 1");
  if (cfg.traffic.burst_fraction <= 0.0 || cfg.traffic.burst_fraction >= 1.0)
    bad("traffic.burst_fraction", "must be in (0, 1)");
  if (cfg.traffic.burst_period_us == 0)
    bad("traffic.burst_period_us", "must be >= 1");
  if (cfg.traffic.datasets.empty())
    bad("traffic.datasets", "must name at least one dataset");
  if (cfg.traffic.algos.empty())
    bad("traffic.algos", "must name at least one algorithm");
  if (cfg.traffic.tenants == 0) bad("traffic.tenants", "must be >= 1");
  return cfg;
}

Json ServeConfig::to_json() const {
  Json j = Json::object();
  j["schema"] = std::string(kServeConfigSchema);
  j["scheduler_type"] = scheduler_type;
  j["max_active_reqs"] = max_active_reqs;
  j["max_batch_size"] = max_batch_size;
  j["virtual_workers"] = virtual_workers;
  j["cache_budget_bytes"] = cache_budget_bytes;
  j["exec_mode"] = exec_mode;
  j["system"] = system;
  j["scale"] = scale;
  j["dataset_seed"] = dataset_seed;
  Json t = Json::object();
  t["arrival"] = traffic.arrival;
  t["request_interval_us"] = traffic.request_interval_us;
  t["request_total_cnt"] = traffic.request_total_cnt;
  t["burst_factor"] = traffic.burst_factor;
  t["burst_fraction"] = traffic.burst_fraction;
  t["burst_period_us"] = traffic.burst_period_us;
  t["seed"] = traffic.seed;
  Json datasets = Json::array();
  for (const std::string& d : traffic.datasets) datasets.push_back(d);
  t["datasets"] = std::move(datasets);
  Json algos = Json::array();
  for (const std::string& a : traffic.algos) algos.push_back(a);
  t["algos"] = std::move(algos);
  t["tenants"] = traffic.tenants;
  j["traffic"] = std::move(t);
  return j;
}

sim::SystemConfig parse_system(const std::string& spec) {
  const auto x = spec.find('x');
  if (x == std::string::npos || x == 0 || x + 1 >= spec.size())
    throw Error("serve: system spec must look like 8x8: " + spec);
  const auto tiles =
      static_cast<std::uint32_t>(std::stoul(spec.substr(0, x)));
  const auto pes =
      static_cast<std::uint32_t>(std::stoul(spec.substr(x + 1)));
  return sim::SystemConfig::transmuter(tiles, pes);
}

}  // namespace cosparse::serve
