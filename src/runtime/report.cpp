#include "runtime/report.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>

#include "native/exec_mode.h"
#include "native/simd.h"
#include "obs/telemetry.h"
#include "sim/profile.h"

namespace cosparse::runtime {

Json metrics_view(std::span<const IterationRecord> iterations,
                  std::span<const DecisionRecord> decisions,
                  std::span<const AlgoRunRecord> algo_runs,
                  native::ExecMode mode) {
  std::map<std::string, std::uint64_t> counters;  // sorted by name
  const auto count = [&counters](const std::string& name,
                                 std::uint64_t by = 1) {
    counters[name] += by;
  };
  // Inclusive upper bucket edges; one overflow bucket catches the rest.
  static constexpr double kDensityBounds[] = {1e-4, 1e-3, 0.01, 0.05,
                                              0.1,  0.25, 0.5,  1.0};
  std::vector<std::uint64_t> buckets(std::size(kDensityBounds) + 1, 0);
  double density_sum = 0.0;
  for (const IterationRecord& rec : iterations) {
    count("engine.iterations");
    if (rec.sw_switched) count("engine.sw_switches");
    if (rec.hw_switched) count("engine.hw_switches");
    if (rec.converted_frontier) count("engine.frontier_conversions");
    if (mode == native::ExecMode::kNative) {
      count(std::string("native.kernel.") +
            (rec.sw == SwConfig::kIP ? "pull" : "push"));
    } else {
      count(std::string("engine.cycles.") + sim::to_string(rec.hw),
            rec.cycles);
    }
    ++buckets[static_cast<std::size_t>(
        std::lower_bound(std::begin(kDensityBounds), std::end(kDensityBounds),
                         rec.density) -
        std::begin(kDensityBounds))];
    density_sum += rec.density;
  }
  for (const DecisionRecord& d : decisions) {
    count(std::string("decision.sw.") + to_string(d.sw));
    count(std::string("decision.hw.") + sim::to_string(d.hw));
  }
  for (const AlgoRunRecord& run : algo_runs) {
    const std::string prefix = "algo." + run.algo;
    count(prefix + ".runs");
    count(prefix + ".iterations", run.iterations);
    count(prefix + ".cycles", run.cycles);
  }

  Json out = Json::object();
  if (!counters.empty()) {
    Json c = Json::object();
    for (const auto& [name, value] : counters) c[name] = value;
    out["counters"] = std::move(c);
  }
  if (!iterations.empty()) {
    Json bounds = Json::array();
    for (const double b : kDensityBounds) bounds.push_back(b);
    Json bucket_counts = Json::array();
    for (const std::uint64_t n : buckets) bucket_counts.push_back(n);
    Json density = Json::object();
    density["bounds"] = std::move(bounds);
    density["bucket_counts"] = std::move(bucket_counts);
    density["count"] = iterations.size();
    density["sum"] = density_sum;
    out["histograms"]["engine.frontier_density"] = std::move(density);
  }
  return out;
}

obs::Report make_run_report(const Engine& eng, std::string tool) {
  obs::Report rep(std::move(tool));
  const sim::Machine& m = eng.machine();

  const bool is_native = eng.exec_mode() == native::ExecMode::kNative;

  Json config = eng.system().to_json();
  Json opts = Json::object();
  opts["exec_mode"] = std::string(native::to_string(eng.exec_mode()));
  opts["sw_reconfig"] = eng.options().sw_reconfig;
  opts["hw_reconfig"] = eng.options().hw_reconfig;
  opts["fixed_sw"] = to_string(eng.options().fixed_sw);
  if (eng.options().fixed_hw.has_value()) {
    opts["fixed_hw"] = sim::to_string(*eng.options().fixed_hw);
  }
  opts["nnz_balanced"] = eng.options().nnz_balanced;
  opts["vblocked"] = eng.options().vblocked;
  config["engine"] = std::move(opts);
  rep.set("config", std::move(config));

  Json iters = Json::array();
  for (const IterationRecord& rec : eng.iterations()) {
    iters.push_back(to_json(rec));
  }
  rep.set("iterations", std::move(iters));

  rep.set("decision_audit", eng.audit().to_json());

  if (is_native) {
    // No cycle model: the stats/tile_stats/derived/totals/memory_profile
    // sections would all be zeros, so they are omitted entirely —
    // cosparse-prof annotates their absence as "(native mode: no cycle
    // model)" instead of erroring. The "native" section records what ran.
    Json nat = eng.native_decisions().to_json();
    nat["simd"] = std::string(native::to_string(native::simd_level()));
    rep.set("native", std::move(nat));
  } else {
    rep.set("stats", m.stats().to_json());
    Json tiles = Json::array();
    for (const sim::Stats& ts : m.tile_stats()) tiles.push_back(ts.to_json());
    rep.set("tile_stats", std::move(tiles));

    Json derived = m.stats().derived_json();
    derived["load_imbalance"] = m.load_imbalance();
    rep.set("derived", std::move(derived));

    Json totals = Json::object();
    totals["cycles"] = m.cycles();
    totals["energy_pj"] = m.energy_pj();
    totals["watts"] = m.watts();
    totals["iterations"] = eng.iterations().size();
    rep.set("totals", std::move(totals));

    if (m.profiler() != nullptr) {
      rep.set("memory_profile", m.profiler()->to_json());
    }
  }

  rep.set("metrics", metrics_view(eng.iterations(), eng.audit().records(),
                                  eng.algo_runs(), eng.exec_mode()));

  // Telemetry is wall-clock-bearing, so it lives in its own section that
  // obs::results_subset() strips for the bit-neutrality comparison.
  if (eng.telemetry() != nullptr) {
    rep.set("telemetry", eng.telemetry()->report_json());
  }
  return rep;
}

}  // namespace cosparse::runtime
