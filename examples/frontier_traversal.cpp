// Graph traversal with per-iteration reconfiguration: runs BFS and SSSP
// on a Table III stand-in and prints the iteration-by-iteration story —
// frontier density rising and collapsing, and the runtime flipping between
// the outer-product (sparse) and inner-product (dense) dataflows with the
// matching memory configuration, exactly the behaviour of paper Fig. 9.
//
//   ./frontier_traversal [--graph pokec] [--scale 32] [--source 0]
#include <cmath>
#include <iostream>
#include <string>

#include "common/cli.h"
#include "common/digest.h"
#include "common/table.h"
#include "common/threads.h"
#include "graph/algorithms.h"
#include "native/exec_mode.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "runtime/engine.h"
#include "runtime/report.h"
#include "sim/profile.h"
#include "sparse/datasets.h"

using namespace cosparse;

namespace {

void print_iterations(const graph::AlgoStats& stats) {
  Table t({"iter", "frontier", "density", "dataflow", "memory", "switched",
           "Kcycles"});
  for (const auto& it : stats.per_iteration) {
    t.add_row({std::to_string(it.index), std::to_string(it.frontier_nnz),
               Table::fmt_pct(it.density), to_string(it.sw),
               sim::to_string(it.hw),
               it.hw_switched ? (it.sw_switched ? "SW+HW" : "HW")
                              : (it.sw_switched ? "SW" : "-"),
               Table::fmt(static_cast<double>(it.cycles) / 1e3, 1)});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("frontier_traversal",
                "BFS + SSSP with per-iteration reconfiguration");
  cli.add_option("graph", "dataset name (Table III)", "pokec");
  cli.add_option("scale", "dataset scale divisor", "32");
  cli.add_option("source", "source vertex", "0");
  cli.add_option("seed", "stand-in generator seed offset (0 = canonical)",
                 "0");
  cli.add_flag("profile",
               "attach the region-attributed memory profiler (adds the "
               "memory_profile report section; see cosparse-prof)");
  cli.add_option("report-out", "write a JSON run report to this path", "");
  cli.add_option("sim-threads",
                 "host threads for native kernels (0 = serial; "
                 "COSPARSE_SIM_THREADS is the fallback; results are "
                 "bit-identical for any value)",
                 "");
  cli.add_option("exec-mode",
                 "execution backend: sim (cycle-accurate, the default) or "
                 "native (results-only host kernels, no cycle model; "
                 "COSPARSE_EXEC_MODE is the fallback)",
                 "");
  obs::TelemetrySession::add_cli_options(cli);
  obs::CpuProfileSession::add_cli_options(cli);
  if (!cli.parse(argc, argv)) return 1;

  sparse::DatasetRegistry registry;
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const auto graph = registry.load(
      cli.str("graph"), static_cast<unsigned>(cli.integer("scale")), seed);
  const auto source = static_cast<Index>(cli.integer("source"));
  const auto system = sim::SystemConfig::transmuter(16, 16);
  // One profiler spans all three traversal engines: region counters are
  // keyed by label, so BFS, CC and SSSP accumulate into one breakdown.
  sim::MemProfiler profiler;
  const bool profile = cli.flag("profile");

  runtime::EngineOptions obs_opts;
  const std::optional<std::uint32_t> sim_threads = sim_threads_from_cli(cli);
  if (!sim_threads.has_value()) return 2;
  obs_opts.sim_threads = sim_threads;
  obs_opts.exec_mode = native::resolve_exec_mode(
      cli.str("exec-mode").empty()
          ? std::nullopt
          : std::optional<std::string>(cli.str("exec-mode")));
  // One telemetry stream spans all three traversal engines: algo.bfs.*,
  // algo.cc.* and algo.sssp.* histograms accumulate into the same
  // snapshots.
  obs::TelemetrySession telemetry;
  telemetry.init(cli, "frontier_traversal");
  obs_opts.telemetry = telemetry.telemetry();
  // One CPU-profile likewise spans all three traversals: samples land in
  // graph.bfs / graph.cc / graph.sssp phases of a single flamegraph.
  obs::CpuProfileSession cpu_profile;
  cpu_profile.init(cli, "frontier_traversal");

  // Bitwise digests of all three results: the sim and native runs of one
  // graph must produce identical ones (the native byte-compare gates read
  // this section; DESIGN.md §14).
  Json results = Json::object();
  int exit_code = 0;
  std::cout << "Traversals on " << graph.name() << " stand-in ("
            << graph.num_vertices() << " vertices, " << graph.num_edges()
            << " edges), " << system.name() << " system\n\n";

  {
    runtime::Engine engine(graph.adjacency(), system, obs_opts);
    if (profile) engine.machine().set_profiler(&profiler);
    const auto bfs = graph::bfs(engine, source);
    std::size_t reached = 0;
    std::int64_t max_level = 0;
    for (auto l : bfs.level) {
      if (l >= 0) {
        ++reached;
        max_level = std::max(max_level, l);
      }
    }
    std::cout << "BFS from vertex " << source << ": reached " << reached
              << " vertices, eccentricity " << max_level << "\n";
    Digest levels;
    for (const auto l : bfs.level) {
      levels.update_u64(static_cast<std::uint64_t>(l));
    }
    results["bfs_levels_digest"] = levels.hex();
    print_iterations(bfs.stats);
    std::cout << "total " << bfs.stats.cycles / 1000 << " Kcycles, "
              << bfs.stats.sw_switches() << " dataflow switches, "
              << bfs.stats.hw_switches() << " memory reconfigurations\n\n";
  }

  {
    // Connected components run on the symmetrized adjacency (weakly
    // connected components of the directed stand-in).
    runtime::Engine engine(sparse::symmetrize(graph.adjacency()), system,
                           obs_opts);
    if (profile) engine.machine().set_profiler(&profiler);
    const auto cc = graph::connected_components(engine);
    Digest components;
    for (const Index c : cc.component) components.update_index(c);
    results["cc_components_digest"] = components.hex();
    std::cout << "Connected components: " << cc.num_components
              << " components in " << cc.stats.iterations
              << " label-propagation iterations, "
              << cc.stats.cycles / 1000 << " Kcycles\n\n";
  }

  {
    runtime::Engine engine(graph.adjacency(), system, obs_opts);
    if (profile) engine.machine().set_profiler(&profiler);
    const auto sssp = graph::sssp(engine, source);
    double max_dist = 0;
    std::size_t reached = 0;
    for (auto d : sssp.dist) {
      if (!std::isinf(d)) {
        ++reached;
        max_dist = std::max(max_dist, d);
      }
    }
    std::cout << "SSSP from vertex " << source << ": reached " << reached
              << " vertices, farthest distance " << max_dist << "\n";
    Digest distances;
    for (const Value d : sssp.dist) distances.update_value(d);
    results["sssp_dist_digest"] = distances.hex();
    print_iterations(sssp.stats);
    std::cout << "total " << sssp.stats.cycles / 1000 << " Kcycles, "
              << sssp.stats.sw_switches() << " dataflow switches, "
              << sssp.stats.hw_switches() << " memory reconfigurations\n";

    // The report covers the last engine (the SSSP run) alone, metrics
    // included. Telemetry finalizes first so its final snapshot and SLO
    // verdict reach the report.
    exit_code = telemetry.finalize();
    cpu_profile.finalize();
    if (const std::string path = cli.str("report-out"); !path.empty()) {
      obs::Report report =
          runtime::make_run_report(engine, "frontier_traversal");
      if (cpu_profile.armed()) {
        report.set("cpu_profile", cpu_profile.report());
      }
      Json dataset = Json::object();
      dataset["graph"] = graph.name();
      dataset["vertices"] = graph.num_vertices();
      dataset["edges"] = graph.num_edges();
      dataset["seed"] = seed;
      report.set("dataset", std::move(dataset));
      report.set("results", std::move(results));
      report.write(path);
      std::cout << "wrote run report to " << path << "\n";
    }
  }
  return exit_code;
}
