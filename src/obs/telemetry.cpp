#include "obs/telemetry.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include "common/error.h"
#include "common/log.h"
#include "common/threads.h"
#include "obs/exporter.h"

namespace cosparse::obs {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// Parses a full nonnegative decimal number; throws on anything else.
double parse_number(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    throw Error(what + ": not a number: '" + text + "'");
  }
  COSPARSE_REQUIRE(used == text.size(),
                   what << ": trailing garbage in '" << text << "'");
  COSPARSE_REQUIRE(v > 0.0, what << ": must be positive, got '" << text << "'");
  return v;
}

}  // namespace

// ---- TelemetryConfig ----

TelemetryConfig TelemetryConfig::parse(const std::string& spec) {
  TelemetryConfig cfg;
  cfg.spec = trim(spec);
  if (cfg.spec.empty()) return cfg;
  const std::string& s = cfg.spec;
  if (s.size() > 2 && s.substr(s.size() - 2) == "ms") {
    cfg.every_ms = parse_number(s.substr(0, s.size() - 2), "telemetry interval");
  } else if (s.size() > 1 && s.back() == 's') {
    cfg.every_ms =
        1000.0 * parse_number(s.substr(0, s.size() - 1), "telemetry interval");
  } else {
    std::string digits = s;
    if (s.size() > 1 && s.back() == 'i') digits = s.substr(0, s.size() - 1);
    const double n = parse_number(digits, "telemetry interval");
    COSPARSE_REQUIRE(n == static_cast<double>(static_cast<std::uint64_t>(n)),
                     "telemetry interval: iteration cadence must be an integer, "
                     "got '" << s << "'");
    cfg.every_iterations = static_cast<std::uint64_t>(n);
  }
  cfg.enabled = true;
  return cfg;
}

TelemetryConfig TelemetryConfig::from_env() {
  const char* spec = std::getenv("COSPARSE_TELEMETRY");
  return parse(spec == nullptr ? "" : spec);
}

// ---- TelemetrySnapshot ----

const HistogramSummary* TelemetrySnapshot::find(const std::string& name) const {
  for (const auto& [n, s] : hist) {
    if (n == name) return &s;
  }
  return nullptr;
}

Json TelemetrySnapshot::to_json() const {
  Json o = Json::object();
  o["schema"] = kTelemetrySchema;
  o["seq"] = seq;
  o["wall_ms"] = wall_ms;
  o["iterations"] = iterations;
  o["header"] = header;
  Json h = Json::object();
  for (const auto& [name, s] : hist) h[name] = s.to_json();
  o["hist"] = std::move(h);
  return o;
}

// ---- SLO rules ----

namespace {

bool is_known_stat(const std::string& s) {
  return s == "p50" || s == "p90" || s == "p99" || s == "p999" || s == "min" ||
         s == "max" || s == "mean" || s == "count" || s == "sum";
}

}  // namespace

SloRule parse_slo_rule(const std::string& text) {
  const std::string t = trim(text);
  const std::size_t pos = t.find_first_of("<>");
  COSPARSE_REQUIRE(pos != std::string::npos,
                   "SLO rule needs a comparison (< <= > >=): '" << t << "'");
  SloRule rule;
  rule.text = t;
  rule.op = t.substr(pos, (pos + 1 < t.size() && t[pos + 1] == '=') ? 2 : 1);
  const std::string lhs = trim(t.substr(0, pos));
  const std::string rhs = trim(t.substr(pos + rule.op.size()));
  COSPARSE_REQUIRE(!lhs.empty(), "SLO rule has an empty left side: '" << t << "'");
  std::size_t used = 0;
  try {
    rule.threshold = std::stod(rhs, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  COSPARSE_REQUIRE(used == rhs.size() && !rhs.empty(),
                   "SLO rule threshold is not a number: '" << t << "'");
  if (lhs == "no_progress_ms") {
    rule.metric = lhs;
    return rule;
  }
  const std::size_t dot = lhs.find('.');
  COSPARSE_REQUIRE(dot != std::string::npos,
                   "SLO rule left side must be <stat>.<metric> or "
                   "no_progress_ms: '" << t << "'");
  rule.stat = lhs.substr(0, dot);
  rule.metric = lhs.substr(dot + 1);
  COSPARSE_REQUIRE(is_known_stat(rule.stat),
                   "SLO rule stat must be one of p50|p90|p99|p999|min|max|mean|"
                   "count|sum: '" << t << "'");
  COSPARSE_REQUIRE(!rule.metric.empty(),
                   "SLO rule names no metric: '" << t << "'");
  return rule;
}

std::vector<SloRule> parse_slo_rules(const std::string& list) {
  std::vector<SloRule> rules;
  std::string item;
  std::istringstream in(list);
  while (std::getline(in, item, ',')) {
    if (trim(item).empty()) continue;
    rules.push_back(parse_slo_rule(item));
  }
  return rules;
}

Json SloViolation::to_json() const {
  Json o = Json::object();
  o["seq"] = seq;
  o["rule"] = rule;
  o["observed"] = observed;
  o["threshold"] = threshold;
  o["message"] = message;
  return o;
}

namespace {

double stat_of(const HistogramSummary& s, const std::string& stat) {
  if (stat == "p50") return s.p50;
  if (stat == "p90") return s.p90;
  if (stat == "p99") return s.p99;
  if (stat == "p999") return s.p999;
  if (stat == "min") return s.min;
  if (stat == "max") return s.max;
  if (stat == "mean") return s.mean();
  if (stat == "count") return static_cast<double>(s.count);
  if (stat == "sum") return s.sum;
  COSPARSE_CHECK_MSG(false, "unknown SLO stat: " << stat);
  return 0.0;
}

bool satisfies(double v, const std::string& op, double threshold) {
  if (op == "<") return v < threshold;
  if (op == "<=") return v <= threshold;
  if (op == ">") return v > threshold;
  return v >= threshold;  // ">="
}

}  // namespace

std::vector<SloViolation> SloWatchdog::evaluate(const TelemetrySnapshot& snap) {
  if (!saw_snapshot_ || snap.iterations > last_iterations_) {
    last_iterations_ = snap.iterations;
    last_progress_ms_ = snap.wall_ms;
  }
  saw_snapshot_ = true;

  std::vector<SloViolation> out;
  for (const SloRule& rule : rules_) {
    double observed = 0.0;
    if (rule.metric == "no_progress_ms") {
      observed = snap.wall_ms - last_progress_ms_;
    } else {
      const HistogramSummary* s = snap.find(rule.metric);
      if (s == nullptr || s->count == 0) continue;  // not violated: no data yet
      observed = stat_of(*s, rule.stat);
    }
    if (satisfies(observed, rule.op, rule.threshold)) continue;
    SloViolation v;
    v.seq = snap.seq;
    v.rule = rule.text;
    v.observed = observed;
    v.threshold = rule.threshold;
    std::ostringstream msg;
    msg << "SLO violated at snapshot " << snap.seq << ": " << rule.text
        << " (observed " << observed << ")";
    v.message = msg.str();
    log::warn("slo violation", log::kv("rule", rule.text),
              log::kv("observed", observed), log::kv("seq", snap.seq));
    out.push_back(v);
    violations_.push_back(std::move(v));
  }
  return out;
}

Json SloWatchdog::to_json() const {
  Json o = Json::object();
  Json rules = Json::array();
  for (const SloRule& r : rules_) rules.push_back(r.text);
  o["rules"] = std::move(rules);
  Json violations = Json::array();
  for (const SloViolation& v : violations_) violations.push_back(v.to_json());
  o["violations"] = std::move(violations);
  o["tripped"] = tripped();
  return o;
}

// ---- Telemetry ----

Telemetry::Telemetry(TelemetryConfig cfg, NowFn now_ms)
    : cfg_(std::move(cfg)), now_ms_(std::move(now_ms)) {
  if (!now_ms_) {
    const auto start = std::chrono::steady_clock::now();
    now_ms_ = [start]() {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };
  }
  next_iteration_due_ = cfg_.every_iterations;
}

StreamingHistogram& Telemetry::histogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<StreamingHistogram>())
             .first;
  }
  return *it->second;
}

const StreamingHistogram* Telemetry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void Telemetry::set_header(const std::string& key, Json value) {
  header_[key] = std::move(value);
}

void Telemetry::tick(std::uint64_t iterations) {
  last_iterations_ = iterations;
  if (!cfg_.enabled) return;
  const double t0 = now_ms_();
  bool due = false;
  if (cfg_.every_iterations > 0 && iterations >= next_iteration_due_) {
    due = true;
  }
  if (cfg_.every_ms > 0.0 && t0 - last_snapshot_ms_ >= cfg_.every_ms) {
    due = true;
  }
  if (due) take_snapshot();
  histogram("telemetry.overhead_ms").observe(now_ms_() - t0);
}

void Telemetry::flush() {
  if (!cfg_.enabled) return;
  take_snapshot();
}

void Telemetry::take_snapshot() {
  TelemetrySnapshot snap;
  snap.seq = seq_++;
  snap.wall_ms = now_ms_();
  snap.iterations = last_iterations_;
  snap.header = header_;
  snap.hist.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    if (h->count() == 0) continue;
    snap.hist.emplace_back(name, h->summary());
  }

  std::vector<SloViolation> violations;
  if (watchdog_ != nullptr) violations = watchdog_->evaluate(snap);

  if (exporter_ != nullptr) {
    Json line = snap.to_json();
    if (!violations.empty()) {
      Json arr = Json::array();
      for (const SloViolation& v : violations) arr.push_back(v.to_json());
      line["slo_violations"] = std::move(arr);
    }
    exporter_->publish(line.dump(), to_openmetrics(snap));
  }

  last_snapshot_ms_ = snap.wall_ms;
  if (cfg_.every_iterations > 0) {
    next_iteration_due_ = last_iterations_ + cfg_.every_iterations;
  }
}

Json Telemetry::report_json() const {
  Json o = Json::object();
  o["schema"] = kTelemetrySchema;
  o["enabled"] = cfg_.enabled;
  if (!cfg_.spec.empty()) o["interval"] = cfg_.spec;
  o["header"] = header_;
  o["snapshots"] = seq_;
  Json h = Json::object();
  for (const auto& [name, hist] : histograms_) {
    if (hist->count() == 0) continue;
    h[name] = hist->summary().to_json();
  }
  o["hist"] = std::move(h);
  if (watchdog_ != nullptr) o["slo"] = watchdog_->to_json();
  return o;
}

// ---- TelemetrySession ----

void TelemetrySession::add_cli_options(CliParser& cli) {
  cli.add_option("telemetry-interval",
                 "snapshot cadence: <N>i iterations or <N>ms/<N>s wall clock "
                 "(empty = telemetry off; env COSPARSE_TELEMETRY)",
                 "");
  cli.add_option("telemetry-out", "telemetry JSONL time-series path",
                 "telemetry.jsonl");
  cli.add_option("prom-out", "OpenMetrics exposition path", "metrics.prom");
  cli.add_option("slo",
                 "comma-separated SLO rules, e.g. "
                 "'p99.engine.iteration_ms<5,no_progress_ms<5000' "
                 "(env COSPARSE_SLO)",
                 "");
  cli.add_flag("slo-strict", "exit nonzero if any SLO rule is violated");
}

TelemetrySession::TelemetrySession() = default;

TelemetrySession::~TelemetrySession() { finalize(); }

void TelemetrySession::init(const CliParser& cli, const std::string& tool) {
  std::string spec;
  if (cli.has("telemetry-interval")) spec = cli.str("telemetry-interval");
  TelemetryConfig cfg =
      spec.empty() ? TelemetryConfig::from_env() : TelemetryConfig::parse(spec);
  if (!cfg.enabled) return;

  telemetry_ = std::make_unique<Telemetry>(cfg);
  telemetry_->set_header("tool", tool);
  telemetry_->set_header("interval", cfg.spec);
  if (cli.has("seed")) telemetry_->set_header("seed", cli.integer("seed"));
  telemetry_->set_header("sim_threads", sim_threads_from_cli(cli).value_or(0));

  ExporterOptions eopts;
  if (cli.has("telemetry-out")) eopts.jsonl_path = cli.str("telemetry-out");
  if (cli.has("prom-out")) eopts.prom_path = cli.str("prom-out");
  if (!eopts.jsonl_path.empty() || !eopts.prom_path.empty()) {
    exporter_ = std::make_unique<TelemetryExporter>(eopts);
    telemetry_->set_exporter(exporter_.get());
  }

  std::string rules;
  if (cli.has("slo")) rules = cli.str("slo");
  if (rules.empty()) {
    const char* env = std::getenv("COSPARSE_SLO");
    if (env != nullptr) rules = env;
  }
  if (!rules.empty()) {
    watchdog_ = std::make_unique<SloWatchdog>();
    for (SloRule& r : parse_slo_rules(rules)) watchdog_->add_rule(std::move(r));
    telemetry_->set_watchdog(watchdog_.get());
  }
  strict_ = cli.has("slo-strict") && cli.flag("slo-strict");
}

int TelemetrySession::finalize() {
  if (finalized_) return exit_code_;
  finalized_ = true;
  if (telemetry_ != nullptr) telemetry_->flush();
  if (exporter_ != nullptr) exporter_->stop();
  if (strict_ && watchdog_ != nullptr && watchdog_->tripped()) {
    log::error("exiting nonzero: --slo-strict with ",
               watchdog_->violations().size(), " SLO violation(s)");
    exit_code_ = 3;
  }
  return exit_code_;
}

}  // namespace cosparse::obs
