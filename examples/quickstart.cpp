// Quickstart: the CoSPARSE public API in ~60 lines.
//
// Builds a small random graph, runs two SpMV iterations through the
// reconfiguring engine — one sparse frontier, one dense — plus a BFS over
// the same graph, and shows the software/hardware configuration the
// runtime picked for each step, plus the simulated cost. With
// --report-out the same run emits a machine-readable JSON run report.
//
//   ./quickstart [--vertices N] [--edges M] [--seed S] [--profile]
//                [--exec-mode sim|native]
//                [--report-out run.json]
//                [--telemetry-interval 1i --telemetry-out t.jsonl
//                 --slo 'p99.engine.iteration_ms<50']
#include <iostream>

#include "common/cli.h"
#include "common/digest.h"
#include "common/threads.h"
#include "graph/algorithms.h"
#include "kernels/semiring.h"
#include "native/exec_mode.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "runtime/engine.h"
#include "runtime/report.h"
#include "sim/profile.h"
#include "sparse/generate.h"

using namespace cosparse;

int main(int argc, char** argv) {
  CliParser cli("quickstart", "CoSPARSE API quickstart");
  cli.add_option("vertices", "number of vertices", "20000");
  cli.add_option("edges", "number of edges", "200000");
  cli.add_option("seed", "RNG seed for the graph and frontiers", "42");
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
                 "COSPARSE_EXEC_MODE is the fallback; results are "
                 "byte-identical across modes)",
                 "");
  obs::TelemetrySession::add_cli_options(cli);
  obs::CpuProfileSession::add_cli_options(cli);
  if (!cli.parse(argc, argv)) return 1;
  const auto n = static_cast<Index>(cli.integer("vertices"));
  const auto m = static_cast<std::uint64_t>(cli.integer("edges"));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));

  // 1. An input graph (any sparse::Coo adjacency works; see sparse/io.h
  //    for Matrix Market / SNAP edge-list loaders).
  const sparse::Coo adjacency =
      sparse::uniform_random(n, n, m, seed,
                             sparse::ValueDist::kUniform01);

  // 2. A simulated Transmuter-class system (Table II defaults) and the
  //    engine: it keeps both matrix layouts resident and reconfigures the
  //    memory hierarchy per SpMV invocation.
  const auto system = sim::SystemConfig::transmuter(4, 8);
  runtime::EngineOptions opts;
  const std::optional<std::uint32_t> sim_threads = sim_threads_from_cli(cli);
  if (!sim_threads.has_value()) return 2;
  opts.sim_threads = sim_threads;
  opts.exec_mode = native::resolve_exec_mode(
      cli.str("exec-mode").empty()
          ? std::nullopt
          : std::optional<std::string>(cli.str("exec-mode")));
  // Continuous telemetry (off unless --telemetry-interval or
  // COSPARSE_TELEMETRY arms it): streaming histograms snapshotted to
  // JSONL, watched by the SLO rules. Render the JSONL with
  // `cosparse-prof summarize --telemetry`.
  obs::TelemetrySession telemetry;
  telemetry.init(cli, "quickstart");
  opts.telemetry = telemetry.telemetry();
  // Host-CPU sampling profiler (off unless --cpu-profile names an output
  // path): folded stacks + flamegraph on exit, cpu_profile report section.
  obs::CpuProfileSession cpu_profile;
  cpu_profile.init(cli, "quickstart");
  runtime::Engine engine(adjacency, system, opts);

  // With --profile, every memory-hierarchy event is attributed to the
  // allocation region it touched; the breakdown lands in the report's
  // memory_profile section (inspect with cosparse-prof summarize/diff).
  sim::MemProfiler profiler;
  if (cli.flag("profile")) engine.machine().set_profiler(&profiler);

  // 3. SpMV with a *sparse* frontier (0.1% of vertices active): the
  //    decision tree picks the outer-product dataflow.
  const auto sparse_x = sparse::random_sparse_vector(n, 0.001, seed + 1);
  const auto out1 = engine.spmv(
      runtime::Engine::Frontier::from_sparse(sparse_x), kernels::PlainSpmv{});

  // 4. SpMV with a *dense* frontier: inner product, and a hardware
  //    reconfiguration on the way.
  const auto dense_x = kernels::DenseFrontier::from_dense(
      sparse::random_dense_vector(n, seed + 2));
  const auto out2 = engine.spmv(
      runtime::Engine::Frontier::from_dense(dense_x), kernels::PlainSpmv{});

  // 5. A whole graph algorithm over the same engine: BFS drives SpMV until
  //    the frontier empties, reconfiguring as the density changes.
  const auto bfs = graph::bfs(engine, /*source=*/0);
  std::size_t reached = 0;
  for (auto l : bfs.level) reached += l >= 0 ? 1 : 0;

  const bool is_native = opts.exec_mode == native::ExecMode::kNative;
  std::cout << "CoSPARSE quickstart on a " << n << "-vertex, " << m
            << "-edge random graph, " << system.name() << " system ("
            << native::to_string(opts.exec_mode) << " mode)\n\n";
  for (const auto& it : engine.iterations()) {
    std::cout << "iteration " << it.index << ": frontier density "
              << it.density * 100 << "%, ran " << to_string(it.sw) << " in "
              << sim::to_string(it.hw)
              << (it.hw_switched ? " (reconfigured)" : "");
    if (!is_native) {
      std::cout << ", " << it.cycles << " cycles, " << it.energy_pj * 1e-6
                << " uJ";
    }
    std::cout << "\n";
  }
  std::cout << "\ntouched " << out1.num_touched() << " rows (sparse run), "
            << out2.num_touched() << " rows (dense run)\n"
            << "BFS from vertex 0: reached " << reached << " vertices in "
            << bfs.stats.iterations << " iterations\n";
  if (is_native) {
    std::cout << "native mode: no cycle model (results are byte-identical "
                 "to sim mode)\n";
  } else {
    std::cout << "total: " << engine.total_cycles() << " cycles, "
              << engine.total_energy_pj() * 1e-6 << " uJ, avg "
              << engine.machine().watts() << " W\n";
  }

  // 6. Machine-readable output: one JSON run report (global + per-tile
  //    stats, iteration records, metrics, telemetry). Finalize telemetry
  //    first so the final flush snapshot and SLO verdict land in the
  //    report's telemetry section; the returned code is nonzero only under
  //    --slo-strict with a violated rule.
  const int exit_code = telemetry.finalize();
  cpu_profile.finalize();  // stop sampling before the report is cut
  if (const std::string path = cli.str("report-out"); !path.empty()) {
    obs::Report report = runtime::make_run_report(engine, "quickstart");
    Json dataset = Json::object();
    dataset["vertices"] = n;
    dataset["edges"] = m;
    dataset["seed"] = seed;
    report.set("dataset", std::move(dataset));
    // Bitwise result digests: the same graph run under --exec-mode sim and
    // --exec-mode native must produce identical digests (the CI native
    // quickstart gates compare this section byte-for-byte; DESIGN.md §14).
    const auto digest_output = [](const runtime::Engine::Output& out) {
      Digest d;
      d.update_u64(out.num_touched());
      out.for_each_touched(
          [&d](Index r, Value v) { d.update_index(r); d.update_value(v); });
      return d.hex();
    };
    Digest bfs_digest;
    for (const auto l : bfs.level) {
      bfs_digest.update_u64(static_cast<std::uint64_t>(l));
    }
    Json results = Json::object();
    results["spmv_sparse_digest"] = digest_output(out1);
    results["spmv_dense_digest"] = digest_output(out2);
    results["bfs_levels_digest"] = bfs_digest.hex();
    results["bfs_reached"] = reached;
    results["bfs_iterations"] = bfs.stats.iterations;
    report.set("results", std::move(results));
    if (cpu_profile.armed()) {
      report.set("cpu_profile", cpu_profile.report());
    }
    report.write(path);
    std::cout << "wrote run report to " << path << "\n";
  }
  return exit_code;
}
