// Telemetry export: JSONL time series + OpenMetrics text exposition.
//
// The exporter runs a background thread so snapshot publication never
// blocks the simulation hot path: Telemetry hands it fully-rendered
// strings, the worker appends each snapshot as one line of telemetry
// JSONL (flushed per line so `tail -f` sees snapshots as they happen)
// and atomically rewrites the OpenMetrics file (write-temp + rename) with
// the latest exposition so standard scrapers always read a complete
// document ending in "# EOF". Tests run with
// background = false, which writes synchronously on publish() — byte-for-
// byte the same output, no thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "obs/telemetry.h"

namespace cosparse::obs {

/// Renders one snapshot as an OpenMetrics text exposition: counters for
/// seq/iterations, a gauge for wall_ms, one summary family per histogram
/// (quantile samples + _sum/_count), terminated by "# EOF". Metric names
/// are prefixed "cosparse_" and sanitized to [a-zA-Z0-9_:].
[[nodiscard]] std::string to_openmetrics(const TelemetrySnapshot& snap);

/// OpenMetrics-safe metric name ("engine.iteration_ms" ->
/// "cosparse_engine_iteration_ms").
[[nodiscard]] std::string openmetrics_name(const std::string& name);

struct ExporterOptions {
  std::string jsonl_path;  ///< empty disables the JSONL stream
  std::string prom_path;   ///< empty disables the OpenMetrics file
  bool background = true;  ///< false = synchronous writes (tests)
};

class TelemetryExporter {
 public:
  explicit TelemetryExporter(ExporterOptions opts);
  ~TelemetryExporter();  ///< stop(): drains the queue, joins the worker

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// Enqueues one snapshot (`jsonl_line` without trailing newline;
  /// `prom_text` a complete exposition). Non-blocking in background mode.
  void publish(std::string jsonl_line, std::string prom_text);

  /// Blocks until every published snapshot has been written to disk.
  void flush();

  /// flush() + worker shutdown; further publish() calls are dropped.
  /// Called by the destructor; safe to call twice.
  void stop();

  [[nodiscard]] std::uint64_t lines_written() const;

 private:
  void worker();
  void write_one(const std::string& line, const std::string& prom);

  ExporterOptions opts_;
  std::ofstream jsonl_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<std::pair<std::string, std::string>> queue_;
  std::uint64_t lines_written_ = 0;
  bool stop_ = false;
  bool busy_ = false;
  std::thread thread_;
};

}  // namespace cosparse::obs
