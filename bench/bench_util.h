// Shared helpers for the figure/table reproduction harnesses.
//
// Every fig*/tab* binary prints the same rows/series the paper reports
// (as an aligned text table) and mirrors them to CSV under bench_out/.
// Sizes default to a documented scale divisor so the full suite runs on a
// laptop-class machine; pass --scale 1 for paper-exact dimensions.
#pragma once

#include <string>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "common/table.h"
#include "kernels/frontier.h"
#include "kernels/ip_spmv.h"
#include "kernels/op_spmv.h"
#include "native/exec_mode.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "runtime/engine.h"
#include "sim/machine.h"
#include "sparse/formats.h"
#include "sparse/vector.h"

namespace cosparse::bench {

struct KernelRun {
  Cycles cycles = 0;
  Picojoules energy_pj = 0;
  sim::Stats stats;
  double load_imbalance = 0.0;  ///< max/mean per-tile busy cycles

  [[nodiscard]] double seconds(double freq_ghz = 1.0) const {
    return static_cast<double>(cycles) / (freq_ghz * 1e9);
  }
  [[nodiscard]] double joules() const { return energy_pj * 1e-12; }
};

/// vblock width used by the IP kernel for this system (matches
/// runtime::Engine's choice).
Index vblock_cols_for(const sim::SystemConfig& cfg);

/// Times one inner-product SpMV on a fresh machine in `hw`.
KernelRun time_ip(const sparse::Coo& m, const kernels::DenseFrontier& x,
                  const sim::SystemConfig& cfg, sim::HwConfig hw,
                  bool nnz_balanced = true, bool vblocked = true);

/// Times one outer-product SpMV on a fresh machine in `hw`.
KernelRun time_op(const sparse::Coo& m, const sparse::SparseVector& x,
                  const sim::SystemConfig& cfg, sim::HwConfig hw,
                  bool nnz_balanced = true);

/// Parses "4x8,8x16" into system configs.
std::vector<sim::SystemConfig> parse_systems(const std::string& list);

/// The uniform sweep matrices of Figs. 4-6: dimensions {131k, 262k, 524k,
/// 1M} / scale with ~4.19M / scale non-zeros each (equal-nnz family).
struct SweepMatrix {
  std::string label;  ///< e.g. "N=131k" (paper labeling, pre-scale)
  sparse::Coo matrix;
};
std::vector<SweepMatrix> sweep_matrices(unsigned scale, bool power_law,
                                        std::uint64_t seed = 1000);

/// Prints the table, writes bench_out/<name>.csv (creating the dir) and
/// mirrors the rows into the run report's "tables" section.
void emit(const std::string& name, const Table& table);

/// Adds the standard options shared by all harnesses, including the
/// observability output --report-out.
void add_common_options(CliParser& cli, const std::string& default_scale);

/// Just the observability options (for harnesses that do not take
/// --scale). Included in add_common_options().
void add_observability_options(CliParser& cli);

// ---- process-wide observability (one run report per binary) ----

/// Reads --report-out and the profiling/telemetry options and arms the
/// sinks below. Call once right after cli.parse(); harmless to skip — the
/// sinks then stay disabled/unwritten. Exits the process with code 2
/// (usage error) when --sim-threads is not a thread count.
void init_observability(const CliParser& cli);

/// The process-wide executor for native kernels, or nullptr when they run
/// serially. Resolved from --sim-threads (falling back to the
/// COSPARSE_SIM_THREADS environment variable); engine_options() forwards
/// it. The simulator is serial, so thread count never changes results —
/// only the wall-clock time of native runs.
[[nodiscard]] sim::ParallelExecutor* executor();

/// The process-wide memory profiler, or nullptr unless --profile was
/// given. time_ip/time_op attach it automatically; harnesses driving a
/// runtime::Engine attach it with engine.machine().set_profiler(...)
/// (a nullptr is accepted and detaches). finish_run() folds the
/// accumulated per-region profile into the report's "memory_profile"
/// section.
[[nodiscard]] sim::MemProfiler* profiler();

/// Default EngineOptions with the process-wide telemetry registry (also
/// attached by time_ip/time_op), executor and execution mode (--exec-mode,
/// COSPARSE_EXEC_MODE fallback, default sim) already attached; harnesses
/// adjust the remaining fields as usual.
[[nodiscard]] runtime::EngineOptions engine_options();

/// Sets a top-level section of the run report (e.g. "config", "dataset").
void report_set(const std::string& key, Json value);

/// Serializes one KernelRun for report sections: cycles, energy, stats,
/// load imbalance.
[[nodiscard]] Json to_json(const KernelRun& run);

/// Folds the memory profile and, when armed, the telemetry and CPU-profile
/// sections into the report, then writes the report to the path requested
/// at init_observability() time (no-op when none was requested).
/// Finalizes the telemetry session — final snapshot, JSONL close, SLO
/// verdict — and returns the exit code the binary should propagate: 0
/// normally, 3 when --slo-strict was given and a rule was violated. Call
/// `return bench::finish_run();` at the end of main().
[[nodiscard]] int finish_run();

}  // namespace cosparse::bench
