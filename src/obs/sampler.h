// In-process sampling CPU profiler with phase-tagged stacks.
//
// Everything observability built so far explains *simulated* time (cycles,
// misses, telemetry percentiles); this file explains *host* time — where
// the simulator/runtime itself spends CPU. A SampleProfiler arms one timer
// per registered thread on that thread's CPU clock, so the kernel delivers
// SIGPROF to each thread at a fixed cadence of its own CPU time;
// the async-signal-safe handler captures a raw backtrace plus the calling
// thread's *phase-tag stack* — a tiny thread-local stack of interned
// strings pushed by PhaseScope where the code enters a logical phase
// (`engine.spmv`, `kernel.ip`, `sim.exec`, `graph.bfs`, ...) — into a
// per-thread lock-free ring buffer. sim::ParallelExecutor runs each pool
// task under the submitting thread's stack (current_phase_stack()), so
// samples on pool threads land in the submitter's phase. Symbolization
// (dladdr + demangling) happens entirely off the hot path, at stop().
//
// The output is folded-stack text (`phase;phase;symbol;symbol count`, one
// line per distinct stack — the flamegraph interchange format consumed by
// obs/flame.h and `cosparse-prof flame`/`flamediff`) plus a per-leaf-phase
// aggregate for the report's `cpu_profile` section.
//
// Profiling is bit-neutral to simulated results: the handler only reads
// host state and writes into preallocated sampler-owned buffers, and
// SA_RESTART keeps interrupted syscalls transparent. `obs::results_subset`
// strips the `cpu_profile` section exactly like `telemetry`, and the
// differential harness byte-compares profiled vs unprofiled runs. The full
// signal-safety argument lives in DESIGN.md §13.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/json.h"

namespace cosparse::obs {

inline constexpr std::string_view kCpuProfileSchema = "cosparse.cpu_profile/v1";

/// Phase tags kept per thread stack and per sample (outermost first).
inline constexpr int kMaxPhaseDepth = 8;

/// A copy of one thread's phase-tag stack. Tags are string literals or
/// interned pointers, so the copy stays valid on any thread.
struct PhaseStack {
  const char* tags[kMaxPhaseDepth] = {};
  int depth = 0;  ///< at most kMaxPhaseDepth
};

/// The calling thread's current phase-tag stack (outermost tags kept).
[[nodiscard]] PhaseStack current_phase_stack() noexcept;

/// Returns a stable, process-lifetime pointer for a phase-tag string.
/// PhaseScope keeps only the pointer (the signal handler copies pointers,
/// never characters), so tags built at runtime — e.g. "graph." + algo —
/// must be interned; string literals can be passed to PhaseScope directly.
[[nodiscard]] const char* intern_phase_tag(const std::string& tag);

/// RAII phase tag: pushes `tag` onto the calling thread's phase stack for
/// the scope's lifetime. `tag` must outlive the scope — pass a string
/// literal or an intern_phase_tag() pointer. Always maintained (a handful
/// of thread-local stores) so a profiler started mid-run still sees the
/// current phase; when no profiler is active that is the entire cost.
class PhaseScope {
 public:
  explicit PhaseScope(const char* tag) noexcept;
  /// Pushes every tag of `stack`, outermost first: runs work handed to
  /// another thread under the phases of the thread that handed it over.
  explicit PhaseScope(const PhaseStack& stack) noexcept;
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  void* state_;     ///< the thread's registered phase/ring state
  int pushed_ = 0;  ///< tags this scope pushed (popped at exit)
};

struct SampleProfilerOptions {
  /// SIGPROF cadence in CPU microseconds. The kernel rounds to its timer
  /// granularity (often ~1-10 ms of process CPU time per signal).
  std::uint32_t period_us = 1000;
  /// Ring capacity per registered thread (~270 B each, preallocated at
  /// start); samples beyond it are counted as dropped rather than
  /// recorded. The default covers ~65 s of CPU per thread at 1 kHz.
  std::uint32_t max_samples_per_thread = 65536;
};

/// The profiler itself. One instance may be active per process at a time
/// (the handler and the sample rings are process-wide); start() fails
/// rather than preempting an already-running instance. Typical use is via
/// CpuProfileSession below.
class SampleProfiler {
 public:
  static constexpr int kMaxFrames = 24;  ///< raw PCs kept per sample

  explicit SampleProfiler(SampleProfilerOptions opts = {});
  ~SampleProfiler();  ///< stops (and discards nothing) if still running

  SampleProfiler(const SampleProfiler&) = delete;
  SampleProfiler& operator=(const SampleProfiler&) = delete;

  /// Arms the timer and signal handler. Returns false when the platform
  /// has no POSIX profiling timer or another SampleProfiler is active.
  bool start();

  /// Disarms the timer, waits out any in-flight handler, harvests and
  /// symbolizes every thread's ring, and releases the ring storage.
  /// Idempotent; the accessors below are valid afterwards.
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  /// Whether any SampleProfiler in this process is currently armed.
  [[nodiscard]] static bool any_active();
  /// Whether this build/platform can profile at all (POSIX signals).
  [[nodiscard]] static bool platform_supported();

  // ---- results (valid after stop()) ----

  [[nodiscard]] std::uint64_t num_samples() const { return num_samples_; }
  /// Ring-capacity overflows plus samples on threads that never pushed a
  /// phase tag (and therefore had no ring registered).
  [[nodiscard]] std::uint64_t dropped_samples() const { return dropped_; }
  /// Threads that contributed at least one sample.
  [[nodiscard]] std::uint32_t num_threads() const { return num_threads_; }
  [[nodiscard]] std::uint32_t period_us() const { return opts_.period_us; }

  /// Folded-stack text: one "phase;...;symbol;... count" line per distinct
  /// stack, sorted lexicographically (deterministic given the samples).
  /// When samples were dropped, a leading "(dropped) N" line records them,
  /// so the file's total is every sample taken.
  [[nodiscard]] std::string folded() const;

  /// Sample count per *leaf* phase of the kept samples (deepest tag at
  /// capture time; samples taken outside any PhaseScope fall into
  /// "(untagged)"), sorted by descending count then name.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  phase_totals() const;

  /// The report's `cpu_profile` section: schema, period, sample/drop/
  /// thread counts and per-phase {samples, share} of the kept samples.
  /// Wall-clock-dependent, so obs::results_subset strips it
  /// (bit-neutrality contract).
  [[nodiscard]] Json report_json() const;

 private:
  SampleProfilerOptions opts_;
  bool running_ = false;
  std::uint64_t num_samples_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t num_threads_ = 0;
  [[nodiscard]] std::string kept_folded() const;  ///< without "(dropped)"
  /// stack key ("ph;ph;sym;sym") -> sample count, built at stop().
  std::vector<std::pair<std::string, std::uint64_t>> stacks_;
};

// ---- per-binary wiring ----

/// Owns one SampleProfiler wired from the standard CLI options, mirroring
/// TelemetrySession: disarmed unless --cpu-profile (or COSPARSE_CPU_PROFILE)
/// names an output path. finalize() writes the folded stacks there plus a
/// self-contained flamegraph at "<path>.html".
class CpuProfileSession {
 public:
  /// Registers --cpu-profile and --cpu-profile-period-us on `cli`. Call
  /// before cli.parse().
  static void add_cli_options(CliParser& cli);

  CpuProfileSession();
  ~CpuProfileSession();

  CpuProfileSession(const CpuProfileSession&) = delete;
  CpuProfileSession& operator=(const CpuProfileSession&) = delete;

  /// Arms and starts the profiler when an output path was requested
  /// (CLI option first, COSPARSE_CPU_PROFILE as the fallback).
  void init(const CliParser& cli, const std::string& tool);

  [[nodiscard]] bool armed() const { return profiler_ != nullptr; }

  /// Stops the profiler and writes the folded stacks + flamegraph HTML.
  /// Idempotent. Returns 0 (profiling never fails a run; IO errors print
  /// a warning and still return 0 so they cannot mask the run's verdict).
  int finalize();

  /// The `cpu_profile` report section; object() until finalize() ran on
  /// an armed session.
  [[nodiscard]] const Json& report() const { return report_; }

 private:
  std::unique_ptr<SampleProfiler> profiler_;
  std::string path_;
  std::string tool_;
  Json report_ = Json::object();
  bool finalized_ = false;
};

}  // namespace cosparse::obs
