// Collaborative filtering as a recommender: factorizes a synthetic
// user-item rating matrix with the paper's rank-1 gradient-descent CF
// (Table I), shows the training loss falling per iteration, and prints a
// few sample predictions vs. held-out ground truth.
//
//   ./recommender_cf [--users 2000] [--items 2000] [--ratings 40000]
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/threads.h"
#include "graph/algorithms.h"
#include "native/exec_mode.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "runtime/engine.h"
#include "runtime/report.h"
#include "sim/profile.h"
#include "sparse/formats.h"

using namespace cosparse;

int main(int argc, char** argv) {
  CliParser cli("recommender_cf", "rank-1 CF recommender demo");
  cli.add_option("users", "number of users", "2000");
  cli.add_option("items", "number of items", "2000");
  cli.add_option("ratings", "number of observed ratings", "40000");
  cli.add_option("iterations", "gradient iterations", "60");
  cli.add_option("seed", "RNG seed for the rating matrix", "2024");
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

  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const auto users = static_cast<Index>(cli.integer("users"));
  const auto items = static_cast<Index>(cli.integer("items"));
  const auto num_ratings = static_cast<std::size_t>(cli.integer("ratings"));
  const Index n = users + items;  // bipartite graph in one vertex space

  // Ground truth: every user/item has a hidden affinity factor; a rating
  // is the product of the two. CF must recover factors that reproduce it.
  Rng rng(seed);
  std::vector<double> hidden(n);
  for (Index v = 0; v < n; ++v) hidden[v] = 0.4 + 0.5 * rng.next_double();

  std::vector<sparse::Triplet> ratings;
  ratings.reserve(num_ratings);
  for (std::size_t k = 0; k < num_ratings; ++k) {
    const auto u = static_cast<Index>(rng.next_below(users));
    const auto i = static_cast<Index>(users + rng.next_below(items));
    ratings.push_back({u, i, hidden[u] * hidden[i]});
  }
  const sparse::Coo rating_matrix(n, n, std::move(ratings));

  std::cout << "CF recommender: " << users << " users x " << items
            << " items, " << rating_matrix.nnz() << " observed ratings\n\n";

  const auto system = sim::SystemConfig::transmuter(8, 8);
  runtime::EngineOptions eng_opts;
  const std::optional<std::uint32_t> sim_threads = sim_threads_from_cli(cli);
  if (!sim_threads.has_value()) return 2;
  eng_opts.sim_threads = sim_threads;
  eng_opts.exec_mode = native::resolve_exec_mode(
      cli.str("exec-mode").empty()
          ? std::nullopt
          : std::optional<std::string>(cli.str("exec-mode")));
  obs::TelemetrySession telemetry;
  telemetry.init(cli, "recommender_cf");
  eng_opts.telemetry = telemetry.telemetry();
  obs::CpuProfileSession cpu_profile;
  cpu_profile.init(cli, "recommender_cf");
  runtime::Engine engine(rating_matrix, system, eng_opts);
  sim::MemProfiler profiler;
  if (cli.flag("profile")) engine.machine().set_profiler(&profiler);
  graph::CfOptions opts;
  opts.iterations = static_cast<std::uint32_t>(cli.integer("iterations"));
  opts.beta = 0.05;
  opts.lambda = 0.001;
  const auto model = graph::cf(engine, rating_matrix, opts);

  std::cout << "training loss:\n";
  for (std::size_t i = 0; i < model.loss_per_iteration.size();
       i += std::max<std::size_t>(1, model.loss_per_iteration.size() / 8)) {
    std::cout << "  iter " << i << ": " << model.loss_per_iteration[i]
              << "\n";
  }
  std::cout << "  final: " << model.loss_per_iteration.back() << "\n\n";

  std::cout << "sample predictions (user, item): predicted vs true\n";
  Rng pick(7);
  for (int s = 0; s < 6; ++s) {
    const auto u = static_cast<Index>(pick.next_below(users));
    const auto i = static_cast<Index>(users + pick.next_below(items));
    std::cout << "  (" << u << ", " << i - users << "): "
              << model.latent[u] * model.latent[i] << " vs "
              << hidden[u] * hidden[i] << "\n";
  }

  std::cout << "\nall " << model.stats.iterations
            << " iterations ran the dense inner-product dataflow ("
            << model.stats.hw_switches()
            << " hardware reconfigurations after warmup)";
  if (eng_opts.exec_mode == native::ExecMode::kNative) {
    std::cout << "; native mode, no cycle model\n";
  } else {
    std::cout << "; simulated "
              << model.stats.seconds(system.freq_ghz) * 1e3 << " ms, "
              << model.stats.joules() * 1e3 << " mJ\n";
  }

  // Finalize before the report so the final flush snapshot and SLO
  // verdict land in the telemetry section.
  const int exit_code = telemetry.finalize();
  cpu_profile.finalize();
  if (const std::string path = cli.str("report-out"); !path.empty()) {
    obs::Report report = runtime::make_run_report(engine, "recommender_cf");
    if (cpu_profile.armed()) report.set("cpu_profile", cpu_profile.report());
    Json dataset = Json::object();
    dataset["users"] = users;
    dataset["items"] = items;
    dataset["ratings"] = rating_matrix.nnz();
    dataset["seed"] = seed;
    report.set("dataset", std::move(dataset));
    report.write(path);
    std::cout << "wrote run report to " << path << "\n";
  }
  return exit_code;
}
