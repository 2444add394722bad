// PageRank over a social network (the workload the paper's intro
// motivates): ranks the twitter stand-in graph on the simulated 16x16
// system, prints the most influential vertices, and compares simulated
// cost against the native mini-Ligra baseline.
//
//   ./social_pagerank [--graph twitter] [--scale 16] [--iterations 20]
#include <algorithm>
#include <iostream>

#include "baselines/ligra/apps.h"
#include "common/cli.h"
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

int main(int argc, char** argv) {
  CliParser cli("social_pagerank", "PageRank on a Table III social graph");
  cli.add_option("graph", "dataset name (Table III)", "twitter");
  cli.add_option("scale", "dataset scale divisor", "16");
  cli.add_option("iterations", "PageRank iterations", "20");
  cli.add_option("system", "simulated system AxB", "16x16");
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
  std::cout << "PageRank on " << graph.name() << " stand-in: "
            << graph.num_vertices() << " vertices, " << graph.num_edges()
            << " edges\n\n";

  const auto sys_spec = cli.str("system");
  const auto x = sys_spec.find('x');
  const auto system = sim::SystemConfig::transmuter(
      static_cast<std::uint32_t>(std::stoul(sys_spec.substr(0, x))),
      static_cast<std::uint32_t>(std::stoul(sys_spec.substr(x + 1))));

  runtime::EngineOptions eng_opts;
  const std::optional<std::uint32_t> sim_threads = sim_threads_from_cli(cli);
  if (!sim_threads.has_value()) return 2;
  eng_opts.sim_threads = sim_threads;
  eng_opts.exec_mode = native::resolve_exec_mode(
      cli.str("exec-mode").empty()
          ? std::nullopt
          : std::optional<std::string>(cli.str("exec-mode")));
  const bool is_native = eng_opts.exec_mode == native::ExecMode::kNative;
  obs::TelemetrySession telemetry;
  telemetry.init(cli, "social_pagerank");
  eng_opts.telemetry = telemetry.telemetry();
  obs::CpuProfileSession cpu_profile;
  cpu_profile.init(cli, "social_pagerank");
  runtime::Engine engine(graph.adjacency(), system, eng_opts);
  sim::MemProfiler profiler;
  if (cli.flag("profile")) engine.machine().set_profiler(&profiler);
  graph::PageRankOptions opts;
  opts.max_iterations = static_cast<std::uint32_t>(cli.integer("iterations"));
  const auto result = graph::pagerank(engine, graph.out_degrees(), opts);

  // Top-10 vertices by rank.
  std::vector<Index> order(graph.num_vertices());
  for (Index v = 0; v < graph.num_vertices(); ++v) order[v] = v;
  std::partial_sort(order.begin(), order.begin() + 10, order.end(),
                    [&](Index a, Index b) {
                      return result.rank[a] > result.rank[b];
                    });
  std::cout << "top vertices by rank:\n";
  for (int i = 0; i < 10; ++i) {
    const Index v = order[static_cast<std::size_t>(i)];
    std::cout << "  #" << i + 1 << "  vertex " << v << "  rank "
              << result.rank[v] << "  (in-degree-heavy hub)\n";
  }

  std::cout << "\nconverged to residual " << result.residual << " in "
            << result.stats.iterations << " iterations\n";
  if (is_native) {
    std::cout << "native mode: no cycle model (results are byte-identical "
                 "to sim mode)\n";
  } else {
    std::cout << "simulated: " << result.stats.seconds(system.freq_ghz) * 1e3
              << " ms, " << result.stats.joules() * 1e3 << " mJ at "
              << result.stats.watts(system.freq_ghz) << " W\n";

    // Native baseline for context (energy via Xeon package power).
    const auto lg = baselines::ligra::LigraGraph::build(graph.adjacency());
    const auto ligra = baselines::ligra::ligra_pagerank(
        lg, opts.damping, opts.tolerance, opts.max_iterations);
    std::cout << "mini-Ligra (native): " << ligra.costs.seconds * 1e3
              << " ms, " << ligra.costs.joules * 1e3 << " mJ -> CoSPARSE is "
              << ligra.costs.joules / result.stats.joules()
              << "x more energy-efficient here\n";
  }

  // Finalize before the report so the final flush snapshot and SLO
  // verdict land in the telemetry section.
  const int exit_code = telemetry.finalize();
  cpu_profile.finalize();
  if (const std::string path = cli.str("report-out"); !path.empty()) {
    obs::Report report = runtime::make_run_report(engine, "social_pagerank");
    if (cpu_profile.armed()) report.set("cpu_profile", cpu_profile.report());
    Json dataset = Json::object();
    dataset["graph"] = graph.name();
    dataset["vertices"] = graph.num_vertices();
    dataset["edges"] = graph.num_edges();
    dataset["seed"] = seed;
    report.set("dataset", std::move(dataset));
    report.write(path);
    std::cout << "wrote run report to " << path << "\n";
  }
  return exit_code;
}
