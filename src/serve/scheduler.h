// Deterministic admission + batching scheduler for the serving daemon.
//
// The scheduler is a single-threaded discrete-event simulation on the
// virtual clock: it consumes a trace (serve/trace.h) and a ServeConfig
// and produces the complete serving schedule — which requests are
// admitted or rejected, how admitted requests coalesce into batches,
// which virtual worker runs each batch, and every virtual dispatch /
// finish timestamp. Nothing in here reads the wall clock or depends on
// --serve-threads (modeled parallelism is config.virtual_workers), so
// the schedule is a pure function of (config, trace). Real execution
// (serve/server.h) then replays the batch plan on however many host
// threads the operator asked for; because the plan is already fixed,
// per-request results and the report's results section are byte-equal
// across thread counts (DESIGN.md §16).
//
// Scheduling policies (config.scheduler_type):
//   fcfs               — single-request dispatch in strict arrival order.
//   same-dataset-batch — the oldest waiting request picks the dataset;
//                        up to max_batch_size waiters on that dataset
//                        coalesce onto one engine instance. Because the
//                        oldest waiter always drives selection, no
//                        request waits forever (starvation-freedom, see
//                        tests/serve/test_serve_properties.cpp).
//
// Admission control: a request arriving while (waiting + running)
// >= max_active_reqs is rejected immediately. Unknown datasets become
// kError responses without entering the queue.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/config.h"
#include "serve/request.h"

namespace cosparse::serve {

/// Deterministic virtual-time cost model. Costs are pure integer
/// functions of the (scaled) Table III dataset specs and the algorithm —
/// they model relative magnitudes (CF > PageRank > SSSP > BFS; load ~
/// edge count) rather than measured wall time, which lives in the
/// report's timing section instead.
struct CostModel {
  unsigned scale = 64;
  std::uint32_t num_tiles = 8;  ///< of the config's system

  /// Resident bytes the virtual cache charges for a dataset: the cache's
  /// resident_bytes() over the scaled spec.
  [[nodiscard]] std::uint64_t bytes(const std::string& dataset) const;
  /// Cold-load cost charged once per virtual cache miss.
  [[nodiscard]] std::uint64_t load_us(const std::string& dataset) const;
  /// Per-request service cost on an already-resident dataset.
  [[nodiscard]] std::uint64_t service_us(const std::string& dataset,
                                         Algo algo) const;
};

/// One scheduled batch: the unit real execution parallelizes over.
struct BatchPlan {
  std::uint32_t id = 0;  ///< 1-based, in dispatch order
  std::string dataset;
  /// Indices into the trace (NOT request ids), in arrival order.
  std::vector<std::size_t> request_indices;
  std::uint64_t dispatch_us = 0;
  std::uint64_t finish_us = 0;  ///< virtual worker becomes free here
  std::uint32_t worker = 0;     ///< virtual worker id in [0, virtual_workers)
  bool cache_miss = false;      ///< virtual cache model predicted a load
};

/// Queue depth observed after each simulation event (soak tests assert
/// the cumulative counters derived from these are monotone).
struct QueueSample {
  std::uint64_t t_us = 0;
  std::uint32_t waiting = 0;
  std::uint32_t running = 0;
};

struct ScheduleStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errored = 0;  ///< unknown dataset at admission
  std::uint32_t peak_active = 0;
  std::uint32_t peak_queue_depth = 0;
  std::uint64_t makespan_us = 0;    ///< last virtual finish
  std::uint64_t max_wait_us = 0;    ///< max dispatch - arrival
  std::uint64_t cache_hits = 0;     ///< virtual cache model
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_over_budget = 0;

  [[nodiscard]] Json to_json() const;
};

/// The full deterministic schedule. `responses` is in trace order with
/// status/virtual-time fields filled in; digests stay empty until real
/// execution (serve/server.h) runs the batch plan.
struct Schedule {
  std::vector<QueryResponse> responses;
  std::vector<BatchPlan> batches;
  std::vector<QueueSample> queue_depth;
  ScheduleStats stats;
};

/// Runs the discrete-event simulation. Pure: same (config, trace) in,
/// identical schedule out.
[[nodiscard]] Schedule build_schedule(const ServeConfig& cfg,
                                      const std::vector<QueryRequest>& trace);

/// Virtual-latency percentile over kOk responses using the sorted-index
/// method (ceil(p/100 * n) - 1); deterministic, no interpolation.
/// Returns 0 when no response completed.
[[nodiscard]] std::uint64_t latency_percentile_us(
    const std::vector<QueryResponse>& responses, double p);

/// Deterministic "serve" report section: stats, batch plan summary and
/// queue-depth samples (everything virtual-clock, nothing wall-clock).
[[nodiscard]] Json schedule_json(const Schedule& schedule);

}  // namespace cosparse::serve
