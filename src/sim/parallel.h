// Host thread pool for native kernels (native::HostMachine::for_tiles) and
// for serve batches (serve::Server). The simulator
// (sim::Machine) is serial and never uses it.
//
// The executor is deliberately dumb: run(count, fn) hands the indices
// [0, count) to a fixed pool of worker threads and blocks until every task
// finished. Determinism is the caller's job — native kernel tasks write
// only task-exclusive output slots (DESIGN.md §14) — so the executor only
// provides raw concurrency, and any thread count, including 1, produces
// bit-identical results. Each task runs under the submitting thread's
// phase-tag stack, so the CPU profiler attributes pool-thread samples to
// the phase that dispatched them.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/sampler.h"

namespace cosparse::sim {

class ParallelExecutor {
 public:
  /// Spawns exactly `threads` workers (at least 1). The calling thread
  /// never executes tasks itself, so threads == 1 still exercises the full
  /// cross-thread dispatch path (useful for tests and TSan).
  explicit ParallelExecutor(std::uint32_t threads);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  [[nodiscard]] std::uint32_t num_threads() const {
    return static_cast<std::uint32_t>(threads_.size());
  }

  /// Runs fn(i) for every i in [0, count) across the pool and waits for
  /// completion. Not reentrant. The first exception a task throws is
  /// rethrown here (remaining tasks still drain).
  void run(std::uint32_t count, const std::function<void(std::uint32_t)>& fn);

 private:
  void worker();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::uint32_t)>* job_ = nullptr;
  obs::PhaseStack job_phases_;  ///< the submitter's tags, for every task
  std::uint32_t next_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t pending_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace cosparse::sim
