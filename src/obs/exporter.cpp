#include "obs/exporter.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "common/log.h"

namespace cosparse::obs {

std::string openmetrics_name(const std::string& name) {
  std::string out = "cosparse_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

namespace {

void append_number(std::ostringstream& os, double v) {
  // Json::dump renders integral doubles without an exponent; reuse it so
  // OpenMetrics samples and JSONL snapshots agree digit-for-digit.
  os << Json(v).dump();
}

void append_summary(std::ostringstream& os, const std::string& name,
                    const HistogramSummary& s) {
  const std::string m = openmetrics_name(name);
  os << "# TYPE " << m << " summary\n";
  const std::pair<const char*, double> quantiles[] = {
      {"0.5", s.p50}, {"0.9", s.p90}, {"0.99", s.p99}, {"0.999", s.p999}};
  for (const auto& [q, v] : quantiles) {
    os << m << "{quantile=\"" << q << "\"} ";
    append_number(os, v);
    os << "\n";
  }
  os << m << "_sum ";
  append_number(os, s.sum);
  os << "\n";
  os << m << "_count " << s.count << "\n";
}

}  // namespace

std::string to_openmetrics(const TelemetrySnapshot& snap) {
  std::ostringstream os;
  os << "# TYPE cosparse_snapshot_seq counter\n";
  os << "cosparse_snapshot_seq_total " << snap.seq << "\n";
  os << "# TYPE cosparse_iterations counter\n";
  os << "cosparse_iterations_total " << snap.iterations << "\n";
  os << "# TYPE cosparse_wall_ms gauge\n";
  os << "cosparse_wall_ms ";
  append_number(os, snap.wall_ms);
  os << "\n";
  for (const auto& [name, s] : snap.hist) append_summary(os, name, s);
  os << "# EOF\n";
  return os.str();
}

TelemetryExporter::TelemetryExporter(ExporterOptions opts)
    : opts_(std::move(opts)) {
  if (!opts_.jsonl_path.empty()) {
    jsonl_.open(opts_.jsonl_path, std::ios::out | std::ios::trunc);
    if (!jsonl_) {
      log::warn("telemetry: cannot open JSONL output",
                log::kv("path", opts_.jsonl_path));
    }
  }
  if (opts_.background) {
    thread_ = std::thread([this] { worker(); });
  }
}

TelemetryExporter::~TelemetryExporter() { stop(); }

void TelemetryExporter::write_one(const std::string& line,
                                  const std::string& prom) {
  if (jsonl_.is_open()) {
    jsonl_ << line << "\n";
    jsonl_.flush();  // per-line so `tail -f` sees it live
  }
  if (!opts_.prom_path.empty()) {
    // Write-temp + rename: scrapers never observe a torn exposition.
    const std::string tmp = opts_.prom_path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::out | std::ios::trunc);
      out << prom;
    }
    if (std::rename(tmp.c_str(), opts_.prom_path.c_str()) != 0) {
      log::warn("telemetry: cannot rename OpenMetrics output",
                log::kv("path", opts_.prom_path));
    }
  }
}

void TelemetryExporter::publish(std::string jsonl_line, std::string prom_text) {
  if (!opts_.background) {
    write_one(jsonl_line, prom_text);
    std::lock_guard<std::mutex> lock(mu_);
    ++lines_written_;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    queue_.emplace_back(std::move(jsonl_line), std::move(prom_text));
  }
  work_cv_.notify_one();
}

void TelemetryExporter::worker() {
  for (;;) {
    std::pair<std::string, std::string> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      item = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    write_one(item.first, item.second);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++lines_written_;
      busy_ = false;
    }
    done_cv_.notify_all();
  }
}

void TelemetryExporter::flush() {
  if (!opts_.background) return;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

void TelemetryExporter::stop() {
  if (opts_.background) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  if (jsonl_.is_open()) jsonl_.close();
}

std::uint64_t TelemetryExporter::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_written_;
}

}  // namespace cosparse::obs
