// Continuous telemetry: streaming histograms sampled into periodic
// snapshots, evaluated against SLO rules and handed to an exporter.
//
// Everything observability built before this file is *batch* — traces,
// metrics and run reports materialize only after a run finishes. The
// Telemetry registry is the continuous layer: producers (runtime::Engine,
// sim::Machine, graph algorithms) observe into named StreamingHistograms
// on the hot path, and on a configurable wall-clock or iteration cadence
// (--telemetry-interval / COSPARSE_TELEMETRY) a TelemetrySnapshot — the
// percentile digests of every histogram plus a self-describing header
// (tool, seed, sim-threads, interval) — is taken, checked by the
// SloWatchdog, and published to the TelemetryExporter (obs/exporter.h) as
// one JSONL line and an OpenMetrics exposition. `cosparse-top` tails the
// JSONL stream live.
//
// Threading contract: histograms are observed and snapshots taken on the
// producing thread only (the simulation is single-threaded outside tile
// phases, and tile-phase timings are folded in after the phase joins), so
// the hot path takes no locks; the exporter's background thread only ever
// sees fully-built snapshot strings. Telemetry reads the host wall clock
// and simulator state but never writes simulator state, so enabling it
// cannot change simulated results — the differential harness enforces
// this bit-neutrality.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "obs/histogram.h"

namespace cosparse::obs {

class TelemetryExporter;

inline constexpr std::string_view kTelemetrySchema = "cosparse.telemetry/v1";

// ---- cadence configuration ----

struct TelemetryConfig {
  bool enabled = false;
  /// Snapshot every N producer iterations (0 = no iteration cadence).
  std::uint64_t every_iterations = 0;
  /// Snapshot every N milliseconds of wall clock (0 = no wall cadence).
  double every_ms = 0.0;
  /// The spec string this config was parsed from (stamped into headers).
  std::string spec;

  /// Parses an interval spec: "100i" or a plain "100" = every 100
  /// iterations; "250ms" / "2s" = wall-clock cadence. Empty = disabled.
  /// Throws cosparse::Error on malformed specs.
  [[nodiscard]] static TelemetryConfig parse(const std::string& spec);
  /// parse(getenv("COSPARSE_TELEMETRY")); disabled when unset/empty.
  [[nodiscard]] static TelemetryConfig from_env();
};

// ---- snapshots ----

struct TelemetrySnapshot {
  std::uint64_t seq = 0;
  double wall_ms = 0.0;          ///< since Telemetry construction
  std::uint64_t iterations = 0;  ///< producer progress at snapshot time
  /// Name-ordered percentile digests of every histogram.
  std::vector<std::pair<std::string, HistogramSummary>> hist;
  Json header = Json::object();  ///< tool/seed/sim_threads/interval, ...
  Json extra;                    ///< producer-specific live state (tiles)

  [[nodiscard]] const HistogramSummary* find(const std::string& name) const;
  /// One JSONL line body (schema, seq, wall_ms, iterations, header fields,
  /// hist digests, extra). SLO violations are appended by Telemetry.
  [[nodiscard]] Json to_json() const;
};

// ---- SLO watchdog ----

/// One declarative rule, e.g. "p99.engine.iteration_ms<5": the <stat> of
/// histogram <metric> must satisfy <op> <threshold> at every snapshot.
/// stat is one of p50|p90|p99|p999|min|max|mean|count|sum; op is one of
/// < <= > >=. The pseudo-metric "no_progress_ms" (no stat prefix) reads
/// the wall time since the iteration counter last advanced — e.g.
/// "no_progress_ms<5000" is a 5-second no-progress timeout.
struct SloRule {
  std::string text;    ///< original rule string
  std::string stat;    ///< "p99", "mean", ... (empty for no_progress_ms)
  std::string metric;  ///< histogram name, or "no_progress_ms"
  std::string op;      ///< "<", "<=", ">", ">="
  double threshold = 0.0;
};

/// Parses one rule; throws cosparse::Error on malformed input.
[[nodiscard]] SloRule parse_slo_rule(const std::string& text);
/// Parses a comma-separated rule list (empty input -> empty list).
[[nodiscard]] std::vector<SloRule> parse_slo_rules(const std::string& list);

struct SloViolation {
  std::uint64_t seq = 0;  ///< snapshot that tripped the rule
  std::string rule;       ///< rule text
  double observed = 0.0;
  double threshold = 0.0;
  std::string message;

  [[nodiscard]] Json to_json() const;
};

class SloWatchdog {
 public:
  void add_rule(SloRule rule) { rules_.push_back(std::move(rule)); }
  [[nodiscard]] const std::vector<SloRule>& rules() const { return rules_; }

  /// Evaluates every rule against one snapshot; returns this snapshot's
  /// violations (also accumulated into violations()). Rules naming a
  /// histogram absent from the snapshot (or one with no samples yet) are
  /// skipped, not violated.
  std::vector<SloViolation> evaluate(const TelemetrySnapshot& snap);

  [[nodiscard]] const std::vector<SloViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool tripped() const { return !violations_.empty(); }

  /// {"rules": [...], "violations": [...]} for the report's telemetry
  /// section.
  [[nodiscard]] Json to_json() const;

 private:
  std::vector<SloRule> rules_;
  std::vector<SloViolation> violations_;
  // no_progress_ms state: when the iteration counter last advanced.
  std::uint64_t last_iterations_ = 0;
  double last_progress_ms_ = 0.0;
  bool saw_snapshot_ = false;
};

// ---- the registry ----

class Telemetry {
 public:
  /// Milliseconds-since-start clock; injectable so exporter/golden tests
  /// are deterministic. The default reads std::chrono::steady_clock.
  using NowFn = std::function<double()>;

  explicit Telemetry(TelemetryConfig cfg = {}, NowFn now_ms = nullptr);

  /// Whether the snapshot cadence is armed. Histograms record regardless —
  /// a producer may attach a disabled Telemetry purely to collect
  /// end-of-run distributions.
  [[nodiscard]] bool enabled() const { return cfg_.enabled; }
  [[nodiscard]] const TelemetryConfig& config() const { return cfg_; }

  /// Lookup-or-create; the reference stays valid for the registry's life.
  StreamingHistogram& histogram(const std::string& name);
  [[nodiscard]] const StreamingHistogram* find_histogram(
      const std::string& name) const;

  /// Header fields stamped into every snapshot (seed, sim_threads, tool,
  /// interval) so JSONL streams are self-describing offline.
  void set_header(const std::string& key, Json value);
  [[nodiscard]] const Json& header() const { return header_; }

  /// Sinks (not owned; must outlive the Telemetry while attached).
  void set_exporter(TelemetryExporter* exporter) { exporter_ = exporter; }
  void set_watchdog(SloWatchdog* watchdog) { watchdog_ = watchdog; }
  [[nodiscard]] SloWatchdog* watchdog() const { return watchdog_; }

  /// Producer progress pulse: called once per unit of progress (engine
  /// iteration). Takes a snapshot when the configured cadence is due.
  /// `extra` (optional) is invoked only when a snapshot actually fires,
  /// to embed producer live state (per-tile busy cycles, ...) into it.
  /// Self-reports its own cost into the "telemetry.overhead_ms"
  /// histogram.
  void tick(std::uint64_t iterations,
            const std::function<Json()>& extra = nullptr);

  /// Forces a final snapshot (when enabled) regardless of cadence — call
  /// once at end of run so short runs still emit their distributions.
  void flush();

  [[nodiscard]] std::uint64_t snapshots_taken() const { return seq_; }
  [[nodiscard]] std::uint64_t last_iterations() const {
    return last_iterations_;
  }

  /// The run report's "telemetry" section: schema, header, snapshot
  /// count, final histogram digests and the watchdog's rules/violations.
  [[nodiscard]] Json report_json() const;

 private:
  void take_snapshot(const std::function<Json()>& extra);

  TelemetryConfig cfg_;
  NowFn now_ms_;
  std::map<std::string, std::unique_ptr<StreamingHistogram>> histograms_;
  Json header_ = Json::object();
  TelemetryExporter* exporter_ = nullptr;
  SloWatchdog* watchdog_ = nullptr;
  std::uint64_t seq_ = 0;
  std::uint64_t last_iterations_ = 0;
  std::uint64_t next_iteration_due_ = 0;
  double last_snapshot_ms_ = 0.0;
};

// ---- per-binary wiring ----

/// Owns the Telemetry + exporter + watchdog trio for one binary and wires
/// them from the standard CLI options / environment. Disabled (armed() ==
/// false) unless --telemetry-interval or COSPARSE_TELEMETRY is given.
class TelemetrySession {
 public:
  /// Registers --telemetry-interval, --telemetry-out, --prom-out, --slo
  /// and --slo-strict on `cli`. Call before cli.parse().
  static void add_cli_options(CliParser& cli);

  // Defined in telemetry.cpp, where TelemetryExporter is complete (the
  // unique_ptr members need its destructor even for the default ctor's
  // unwind path).
  TelemetrySession();
  ~TelemetrySession();

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  /// Arms the session from parsed CLI options (environment fallbacks:
  /// COSPARSE_TELEMETRY for the interval, COSPARSE_SLO for rules). Stamps
  /// tool, interval, seed (when the binary declares --seed) and the
  /// resolved sim-threads into the snapshot header.
  void init(const CliParser& cli, const std::string& tool);

  [[nodiscard]] bool armed() const { return telemetry_ != nullptr; }
  /// nullptr when not armed — pass directly to EngineOptions::telemetry.
  [[nodiscard]] Telemetry* telemetry() { return telemetry_.get(); }

  /// Final snapshot, exporter drain + shutdown, SLO verdict. Returns the
  /// process exit code the binary should propagate: 0 normally, 3 when
  /// --slo-strict was given and any rule was violated. Idempotent.
  int finalize();

 private:
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<TelemetryExporter> exporter_;
  std::unique_ptr<SloWatchdog> watchdog_;
  bool strict_ = false;
  bool finalized_ = false;
  int exit_code_ = 0;
};

}  // namespace cosparse::obs
