#include "bench_util.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include <memory>

#include "common/error.h"
#include "common/threads.h"
#include "kernels/address_map.h"
#include "kernels/partition.h"
#include "kernels/semiring.h"
#include "native/simd.h"
#include "sim/parallel.h"
#include "sim/profile.h"
#include "sparse/generate.h"

namespace cosparse::bench {

namespace {
/// The process-wide telemetry registry, or nullptr unless
/// --telemetry-interval / COSPARSE_TELEMETRY armed it (defined below).
obs::Telemetry* telemetry();
}  // namespace

Index vblock_cols_for(const sim::SystemConfig& cfg) {
  const double spm = static_cast<double>(cfg.scs_spm_bytes_per_tile());
  const auto cols = static_cast<Index>(spm / 8.0);
  return std::max<Index>(64, cols / 64 * 64);
}

KernelRun time_ip(const sparse::Coo& m, const kernels::DenseFrontier& x,
                  const sim::SystemConfig& cfg, sim::HwConfig hw,
                  bool nnz_balanced, bool vblocked) {
  sim::Machine machine(cfg, hw);
  machine.set_profiler(profiler());
  machine.set_telemetry(telemetry());
  kernels::AddressMap amap(machine);
  const auto part = kernels::IpPartitionedMatrix::build(
      m, cfg.num_pes(), vblocked ? vblock_cols_for(cfg) : 0, nnz_balanced);
  {
    const obs::PhaseScope kp("kernel.ip");
    kernels::run_inner_product(machine, amap, part, x, kernels::PlainSpmv{});
  }
  KernelRun run;
  run.cycles = machine.cycles();
  run.energy_pj = machine.energy_pj();
  run.stats = machine.stats();
  run.load_imbalance = machine.load_imbalance();
  return run;
}

KernelRun time_op(const sparse::Coo& m, const sparse::SparseVector& x,
                  const sim::SystemConfig& cfg, sim::HwConfig hw,
                  bool nnz_balanced) {
  sim::Machine machine(cfg, hw);
  machine.set_profiler(profiler());
  machine.set_telemetry(telemetry());
  kernels::AddressMap amap(machine);
  const auto striped =
      kernels::OpStripedMatrix::build(m, cfg.num_tiles, nnz_balanced);
  {
    const obs::PhaseScope kp("kernel.op");
    kernels::run_outer_product(machine, amap, striped, x, nullptr,
                               kernels::PlainSpmv{});
  }
  KernelRun run;
  run.cycles = machine.cycles();
  run.energy_pj = machine.energy_pj();
  run.stats = machine.stats();
  run.load_imbalance = machine.load_imbalance();
  return run;
}

std::vector<sim::SystemConfig> parse_systems(const std::string& list) {
  std::vector<sim::SystemConfig> out;
  std::string item;
  std::stringstream ss(list);
  while (std::getline(ss, item, ',')) {
    const auto x = item.find('x');
    COSPARSE_REQUIRE(x != std::string::npos,
                     "system spec must look like 4x8: " + item);
    const auto tiles = static_cast<std::uint32_t>(
        std::stoul(item.substr(0, x)));
    const auto pes =
        static_cast<std::uint32_t>(std::stoul(item.substr(x + 1)));
    out.push_back(sim::SystemConfig::transmuter(tiles, pes));
  }
  COSPARSE_REQUIRE(!out.empty(), "no systems given");
  return out;
}

std::vector<SweepMatrix> sweep_matrices(unsigned scale, bool power_law,
                                        std::uint64_t seed) {
  COSPARSE_REQUIRE(scale >= 1, "scale must be >= 1");
  // Paper family: N in {131k, 262k, 524k, 1M}, equal nnz (~4.19M), so the
  // largest matrix is also the sparsest (Fig. 5's observation).
  const std::vector<std::pair<std::string, Index>> dims = {
      {"N=131k", 131072},
      {"N=262k", 262144},
      {"N=524k", 524288},
      {"N=1M", 1048576},
  };
  const std::uint64_t nnz = 4194304 / scale;
  std::vector<SweepMatrix> out;
  std::uint64_t s = seed;
  for (const auto& [label, n] : dims) {
    const Index dim = n / scale;
    out.push_back(
        {label, power_law
                    ? sparse::power_law(dim, dim, nnz, 2.1, s,
                                        sparse::ValueDist::kUniform01)
                    : sparse::uniform_random(dim, dim, nnz, s,
                                             sparse::ValueDist::kUniform01)});
    ++s;
  }
  return out;
}

namespace {

/// Process-wide observability sinks shared by every harness binary. Armed
/// by init_observability(); all defaults are inert.
struct ObsState {
  std::string report_path;
  obs::Report report{"bench"};
  std::unique_ptr<sim::MemProfiler> profiler;  ///< armed by --profile
  std::unique_ptr<sim::ParallelExecutor> executor;  ///< armed by --sim-threads
  /// Armed by --telemetry-interval / COSPARSE_TELEMETRY (cadence, JSONL
  /// output, SLO watchdog).
  obs::TelemetrySession telemetry;
  /// Armed by --cpu-profile / COSPARSE_CPU_PROFILE (sampling CPU
  /// profiler; folded stacks + flamegraph + cpu_profile report section).
  obs::CpuProfileSession cpu_profile;
  /// --exec-mode / COSPARSE_EXEC_MODE resolution (default sim).
  native::ExecMode exec_mode = native::ExecMode::kSim;
};

ObsState& obs_state() {
  static ObsState s;
  return s;
}

obs::Telemetry* telemetry() { return obs_state().telemetry.telemetry(); }

}  // namespace

void emit(const std::string& name, const Table& table) {
  table.print(std::cout);
  std::cout << std::endl;
  std::filesystem::create_directories("bench_out");
  table.write_csv("bench_out/" + name + ".csv");

  // Mirror into the run report so --report-out captures the same rows the
  // CSV does.
  Json t = Json::object();
  Json header = Json::array();
  for (const auto& h : table.header()) header.push_back(h);
  t["header"] = std::move(header);
  Json rows = Json::array();
  for (const auto& row : table.data()) {
    Json r = Json::array();
    for (const auto& cell : row) r.push_back(cell);
    rows.push_back(std::move(r));
  }
  t["rows"] = std::move(rows);
  obs_state().report.root()["tables"][name] = std::move(t);
}

void add_common_options(CliParser& cli, const std::string& default_scale) {
  cli.add_option("scale", "size divisor (1 = paper-exact dimensions)",
                 default_scale);
  cli.add_option("seed", "base RNG seed", "1000");
  add_observability_options(cli);
}

void add_observability_options(CliParser& cli) {
  cli.add_option("report-out",
                 "write a machine-readable JSON run report to this path", "");
  cli.add_flag("profile",
               "attach the region-attributed memory profiler (adds the "
               "memory_profile report section; see cosparse-prof)");
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
}

void init_observability(const CliParser& cli) {
  ObsState& st = obs_state();
  st.report = obs::Report(cli.program());
  st.report_path = cli.str("report-out");
  if (cli.has("profile") && cli.flag("profile")) {
    st.profiler = std::make_unique<sim::MemProfiler>();
  }
  const std::optional<std::uint32_t> sim_threads = sim_threads_from_cli(cli);
  if (!sim_threads.has_value()) std::exit(2);  // usage error, reported
  if (*sim_threads >= 1) {
    st.executor = std::make_unique<sim::ParallelExecutor>(*sim_threads);
    // Recorded only when a pool exists: the setting never changes results,
    // and serial reports stay byte-comparable across hosts that do or
    // don't set COSPARSE_SIM_THREADS.
    st.report.set("sim_threads", *sim_threads);
  }
  // Runs are only reproducible with their seed; keep it in the report.
  if (cli.has("seed")) st.report.set("seed", cli.integer("seed"));
  std::optional<std::string> mode;
  if (cli.has("exec-mode") && !cli.str("exec-mode").empty()) {
    mode = cli.str("exec-mode");
  }
  st.exec_mode = native::resolve_exec_mode(mode);
  // Honest-machine stamp: a run report must say what hardware and
  // execution mode produced it. (Machine-dependent by design — never
  // byte-compare a section that names the CPU.)
  Json host = Json::object();
  host["exec_mode"] = std::string(native::to_string(st.exec_mode));
  host["cpu_model"] = native::cpu_model_string();
  host["simd"] = std::string(native::to_string(native::simd_level()));
  host["host_cores"] = std::thread::hardware_concurrency();
  st.report.set("host", std::move(host));
  st.telemetry.init(cli, cli.program());
  st.cpu_profile.init(cli, cli.program());
}

sim::MemProfiler* profiler() { return obs_state().profiler.get(); }

sim::ParallelExecutor* executor() { return obs_state().executor.get(); }

runtime::EngineOptions engine_options() {
  runtime::EngineOptions o;
  o.executor = executor();
  o.telemetry = telemetry();
  o.exec_mode = obs_state().exec_mode;
  // A null executor must stay null: engine_options() callers already got
  // the process-wide resolution above, so suppress the engine's own
  // environment lookup.
  if (o.executor == nullptr) o.sim_threads = 0;
  return o;
}

void report_set(const std::string& key, Json value) {
  obs_state().report.set(key, std::move(value));
}

Json to_json(const KernelRun& run) {
  Json o = Json::object();
  o["cycles"] = run.cycles;
  o["energy_pj"] = run.energy_pj;
  o["load_imbalance"] = run.load_imbalance;
  o["stats"] = run.stats.to_json();
  return o;
}

int finish_run() {
  ObsState& st = obs_state();
  // Finalize before writing the report: the final flush snapshot and the
  // watchdog's verdict belong in the telemetry section.
  const int exit_code = st.telemetry.finalize();
  st.cpu_profile.finalize();  // stop sampling before the report is cut
  if (!st.report_path.empty()) {
    if (st.profiler != nullptr) {
      st.report.set("memory_profile", st.profiler->to_json());
    }
    if (st.telemetry.armed()) {
      st.report.set("telemetry", st.telemetry.telemetry()->report_json());
    }
    if (st.cpu_profile.armed()) {
      st.report.set("cpu_profile", st.cpu_profile.report());
    }
    st.report.write(st.report_path);
  }
  return exit_code;
}

}  // namespace cosparse::bench
