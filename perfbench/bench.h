// Shared pieces of the perfbench runner: options, the in-memory span
// recorder, and the Run record every workload fills in.
//
// Spans are recorded only from the benchmark's own code, around each call
// into a layer (load, transpose, layout builds, Engine construction, each
// query, each serve phase, each probe). They stay in memory and are
// written out with the run record when the runner exits; perfbench/run.py
// turns them into per-layer self times.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/telemetry.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Host threads every workload may use (kernels, simulation or serving).
inline constexpr std::uint32_t kHostThreads = 4;
/// Set-up is repeated at least kSetupReps times and for at least
/// kSetupMinSeconds per run; setup_s is the median repetition.
inline constexpr std::size_t kSetupReps = 3;
inline constexpr double kSetupMinSeconds = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: corrupt one validated digest so the checks must fail.
  bool corrupt_digest = false;
};

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Records [construction, destruction) as one span, nested under the
  /// innermost open one. A no-op when recording is off.
  class Scope {
   public:
    Scope(Spans* spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t index_ = 0;
  };

  /// `on` = false opens no span (for untraced replays inside a traced run).
  [[nodiscard]] Scope scope(const char* name, bool on = true) {
    return Scope(enabled_ && on ? this : nullptr, name);
  }
  /// [[name, parent index or -1, begin ms, end ms], ...]
  [[nodiscard]] cosparse::Json to_json() const;

 private:
  struct Span {
    std::string name;
    std::int64_t parent = -1;
    double begin_ms = 0.0;
    double end_ms = 0.0;
  };

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
};

/// Everything one runner invocation measured; serialized by to_json().
struct Run {
  explicit Run(Options o)
      : opt(std::move(o)), spans(opt.trace),
        telemetry(opt.trace ? std::make_unique<cosparse::obs::Telemetry>()
                            : nullptr) {}

  /// Counts `n` operations as attempted and `bad` of them as failed; a
  /// non-empty `detail` is kept as the reason.
  void check(std::uint64_t n, std::uint64_t bad, const std::string& what,
             const std::string& detail);
  void add_op(const char* kind, double ms) { ops.push_back({kind, ms}); }
  [[nodiscard]] cosparse::Json to_json() const;
  /// Whether another set-up repetition is due.
  [[nodiscard]] bool more_setup() const;

  Options opt;
  Spans spans;
  /// In-program histograms (engine, sim, serve); only in traced runs.
  std::unique_ptr<cosparse::obs::Telemetry> telemetry;

  std::vector<double> setup_s;
  struct Op {
    const char* kind;
    double ms;
  };
  /// Every timed operation of the measured phase, in order.
  std::vector<Op> ops;
  /// Wall time of the measured operations (their summed durations).
  double ops_wall_s = 0.0;
  /// Traced runs: the same operations replayed with tracing off.
  double untraced_replay_s = 0.0;
  double traced_replay_s = 0.0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Per-layer values the workload measured directly (counts, telemetry
  /// sums, probes); every workload reports the same keys.
  cosparse::Json layers = cosparse::Json::object();
  cosparse::Json config = cosparse::Json::object();
};

void run_sim_sssp(Run& run);
void run_native_analytics(Run& run);
void run_serve_mixed(Run& run);

}  // namespace perfbench
