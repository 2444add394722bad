// cosparsed's serving core: schedule deterministically, execute in
// parallel, report.
//
// Server::replay() runs the full pipeline for one ServeConfig:
//
//   generate_trace()       — seeded arrivals + workload mix (trace.h)
//   build_schedule()       — single-threaded virtual-time DES: admission,
//                            batching, virtual latencies (scheduler.h)
//   execute()              — the scheduled batches run for real, spread
//                            over --serve-threads host threads; each batch
//                            leases its dataset's PreparedMatrix from the
//                            MatrixCache and runs its requests
//                            back-to-back on one Engine built on it (sim
//                            or native per config.exec_mode)
//   report()               — cosparse.run_report/v1 document
//
// Determinism contract (DESIGN.md §16): the schedule is fixed before any
// host thread starts, engine decisions are pure functions of the frontier
// sequence, and per-request results depend only on (dataset, algo,
// source, iterations, seed) — so the report's functional subset (schema /
// tool / seed / dataset / results, `cosparse-prof extract --functional`)
// is byte-identical for every --serve-threads value. Host wall time goes
// in the "timing" section and telemetry only; both are excluded from the
// byte-compare.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/cache.h"
#include "serve/config.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "sparse/datasets.h"

namespace cosparse::obs {
class Telemetry;
}  // namespace cosparse::obs

namespace cosparse::serve {

struct ServerOptions {
  /// Host threads executing scheduled batches (>= 1). Changes wall time
  /// only, never results.
  std::uint32_t serve_threads = 1;
  /// Continuous-telemetry registry (not owned; may be null). Histograms
  /// are observed post-join on the calling thread only, honoring the
  /// obs/telemetry.h threading contract.
  obs::Telemetry* telemetry = nullptr;
  /// Optional real-edge-list directory for the DatasetRegistry.
  std::string data_dir;
};

class Server {
 public:
  explicit Server(ServeConfig cfg, ServerOptions opts = {});

  /// Trace generation + scheduling + execution + report for the config's
  /// traffic section.
  [[nodiscard]] Json replay();

  /// Serves an explicit request list (e.g. parsed from a --requests JSONL
  /// stream). `pre_errors` are responses manufactured upstream — JSONL
  /// lines that failed to parse — merged into the report by id.
  [[nodiscard]] Json serve(const std::vector<QueryRequest>& trace,
                           std::vector<QueryResponse> pre_errors = {});

  /// Introspection for tests: the last run's schedule and host-side cache
  /// counters.
  [[nodiscard]] const Schedule& schedule() const { return schedule_; }
  [[nodiscard]] const CacheStats& cache_stats() const { return cache_stats_; }
  [[nodiscard]] const ServeConfig& config() const { return cfg_; }

 private:
  /// Runs every scheduled batch across opts_.serve_threads workers,
  /// filling digests / iteration counts / wall times into
  /// schedule_.responses (disjoint slots per batch; no locking).
  void execute(const std::vector<QueryRequest>& trace);
  [[nodiscard]] Json make_report(std::vector<QueryResponse> pre_errors);

  ServeConfig cfg_;
  ServerOptions opts_;
  sparse::DatasetRegistry registry_;
  Schedule schedule_;
  CacheStats cache_stats_;
  /// Host wall time of one batch and its split, written by the batch's
  /// worker into its own slot and observed into telemetry after the join.
  struct BatchTiming {
    double wall_ms = 0.0;
    double load_ms = 0.0;     ///< 0 unless this batch's acquire missed
    double prepare_ms = 0.0;  ///< 0 unless this batch's acquire missed
    double exec_ms = 0.0;     ///< engine build + the batch's requests
  };
  std::vector<BatchTiming> batch_timing_;
  double total_wall_ms_ = 0.0;
};

}  // namespace cosparse::serve
