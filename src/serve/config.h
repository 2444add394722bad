// cosparse.serve_config/v1 — the cosparsed serving-daemon configuration.
//
// The shape follows NeuPIMs' SimulationConfig client/scheduler split
// (SNIPPETS.md snippet 2): the scheduler block carries scheduler_type /
// max_active_reqs, the traffic block carries request_interval /
// request_total_cnt plus the arrival-process and workload-mix knobs the
// deterministic load generator replays (serve/trace.h). Everything that
// influences the *virtual* schedule lives here — host-side execution
// knobs (--serve-threads) deliberately do not, so the schedule and every
// per-request result digest are a pure function of this document
// (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "sim/config.h"

namespace cosparse::serve {

inline constexpr std::string_view kServeConfigSchema =
    "cosparse.serve_config/v1";

/// Arrival process + workload mix for the load generator.
struct TrafficConfig {
  /// "poisson" (exponential inter-arrivals) or "bursty" (a deterministic
  /// on/off modulation of the Poisson rate: bursts arrive burst_factor×
  /// faster for burst_fraction of every burst_period_us).
  std::string arrival = "poisson";
  /// Mean inter-arrival time in virtual microseconds (NeuPIMs
  /// request_interval).
  std::uint64_t request_interval_us = 1000;
  /// Total requests in the trace (NeuPIMs request_total_cnt).
  std::uint32_t request_total_cnt = 100;
  double burst_factor = 8.0;    ///< in-burst rate multiplier (bursty only)
  double burst_fraction = 0.2;  ///< duty cycle of the burst phase
  std::uint64_t burst_period_us = 20000;  ///< burst cycle length
  std::uint64_t seed = 1;       ///< drives arrivals AND the workload mix
  /// Dataset mix (DatasetRegistry names); requests draw uniformly.
  std::vector<std::string> datasets = {"twitter", "vsp"};
  /// Algorithm mix ("bfs"/"sssp"/"pagerank"/"cf"); uniform draw.
  std::vector<std::string> algos = {"bfs", "pagerank"};
  std::uint32_t tenants = 4;    ///< tenant-<i> round-draw population
};

struct ServeConfig {
  // ---- scheduler (NeuPIMs naming) ----
  /// "fcfs" (one request per dispatch, strict arrival order) or
  /// "same-dataset-batch" (coalesce queued requests for the oldest
  /// waiter's dataset, up to max_batch_size).
  std::string scheduler_type = "same-dataset-batch";
  /// Admission bound on ready + running requests; arrivals beyond it are
  /// rejected with a structured response, never queued unboundedly.
  std::uint32_t max_active_reqs = 64;
  std::uint32_t max_batch_size = 8;
  /// Virtual service parallelism of the modeled daemon. Part of the
  /// schedule semantics (NOT the host thread count): keeping it in the
  /// config is what makes the schedule identical for every
  /// --serve-threads value.
  std::uint32_t virtual_workers = 2;

  // ---- matrix cache ----
  std::uint64_t cache_budget_bytes = 256ULL << 20;

  // ---- execution ----
  std::string exec_mode = "native";  ///< default backend ("sim"/"native")
  std::string system = "8x8";        ///< simulated system for sim mode
  std::uint32_t scale = 64;          ///< dataset scale divisor
  std::uint64_t dataset_seed = 0;    ///< stand-in generator seed offset

  TrafficConfig traffic;

  /// Strict parse of a cosparse.serve_config/v1 document: throws the
  /// first of parse_serve_config()'s problems as cosparse::Error
  /// ("serve_config: field '<path>' <why>").
  [[nodiscard]] static ServeConfig from_json(const Json& doc);
  /// Inverse of from_json (schema tag included).
  [[nodiscard]] Json to_json() const;
};

/// One problem in a serve_config document.
struct ConfigProblem {
  std::string path;     ///< dotted field path; "(root)" for the document
  std::string id;       ///< finding id, e.g. "serve.bad-type"
  std::string message;  ///< e.g. "field 'traffic.algos' must not be empty"
};

struct ParsedServeConfig {
  ServeConfig config;  ///< legal fields set, defaults for all the others
  std::vector<ConfigProblem> problems;  ///< in document order
};

/// The one definition of cosparse.serve_config/v1: walks the document
/// against the schema's field tables and collects every problem. from_json
/// throws the first; cosparse-lint serve reports them all.
[[nodiscard]] ParsedServeConfig parse_serve_config(const Json& doc);

/// Parses the config's "AxB" system spec: A >= 1 tiles of B PEs, B even
/// and >= 2, both plain decimal. Throws cosparse::Error when malformed.
[[nodiscard]] sim::SystemConfig parse_system(const std::string& spec);

}  // namespace cosparse::serve
