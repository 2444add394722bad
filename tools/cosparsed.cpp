#include "cosparsed.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/json.h"
#include "native/exec_mode.h"
#include "obs/telemetry.h"
#include "serve/config.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace cosparse::tools {

namespace {

/// Reads the JSONL request stream: ids are assigned by line number
/// (1-based, blank lines still count so errors are reportable by line),
/// well-formed requests go to `trace`, everything else becomes a
/// structured error response in `errors`.
void read_requests(std::istream& in, std::vector<serve::QueryRequest>& trace,
                   std::vector<serve::QueryResponse>& errors) {
  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    serve::ParsedRequest parsed = serve::parse_request_line(line);
    if (parsed.ok()) {
      parsed.request->id = lineno;
      trace.push_back(std::move(*parsed.request));
    } else {
      serve::QueryResponse resp;
      resp.id = lineno;
      resp.status = serve::Status::kError;
      resp.error = parsed.error;
      resp.error_field = parsed.error_field;
      errors.push_back(std::move(resp));
    }
  }
  // The scheduler consumes arrivals in nondecreasing virtual time; a
  // stable sort keeps line order (= id order) among equal arrivals.
  std::stable_sort(trace.begin(), trace.end(),
                   [](const serve::QueryRequest& a,
                      const serve::QueryRequest& b) {
                     return a.arrival_us < b.arrival_us;
                   });
}

}  // namespace

int cosparsed_main(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err) {
  CliParser cli("cosparsed",
                "Multi-tenant graph-query serving daemon: deterministic "
                "trace replay or JSONL request serving over the Table III "
                "datasets (see --help of cosparse-lint serve for config "
                "linting)");
  cli.add_option("config", "cosparse.serve_config/v1 document (required)",
                 "");
  cli.add_option("requests",
                 "JSONL request stream ('-' = stdin); omitted: replay the "
                 "config's traffic section",
                 "");
  cli.add_option("serve-threads",
                 "host threads executing scheduled batches (wall time "
                 "only; results are byte-identical for any value)",
                 "1");
  cli.add_option("exec-mode", "override the config's exec_mode (sim|native)",
                 "");
  cli.add_option("data-dir",
                 "real edge-list directory for the dataset registry "
                 "(default: synthetic Table III stand-ins)",
                 "");
  cli.add_option("report-out", "run-report output path",
                 "cosparsed_report.json");
  cli.add_option("responses-out",
                 "per-response JSONL (wire form, includes wall times)", "");
  cli.add_option("trace-out",
                 "write the expanded request trace as JSONL and exit "
                 "(replay mode only; feed it back via --requests)",
                 "");
  obs::TelemetrySession::add_cli_options(cli);
  if (!cli.parse(argc, argv)) return 2;

  if (cli.str("config").empty()) {
    err << "cosparsed: --config is required\n";
    return 2;
  }

  serve::ServeConfig cfg;
  try {
    std::ifstream in(cli.str("config"));
    if (!in.good())
      throw Error("cannot open config file: " + cli.str("config"));
    std::stringstream buf;
    buf << in.rdbuf();
    cfg = serve::ServeConfig::from_json(Json::parse(buf.str()));
  } catch (const Error& e) {
    err << "cosparsed: " << e.what() << "\n";
    return 2;
  }

  if (const std::string mode = cli.str("exec-mode"); !mode.empty()) {
    try {
      cfg.exec_mode = native::to_string(native::exec_mode_from_string(mode));
    } catch (const Error& e) {
      err << "cosparsed: --exec-mode: " << e.what() << "\n";
      return 2;
    }
  }

  // Deterministic trace export: the load generator half on its own.
  if (!cli.str("trace-out").empty()) {
    const auto trace = serve::generate_trace(cfg.traffic);
    std::ofstream o(cli.str("trace-out"));
    if (!o.good()) {
      err << "cosparsed: cannot write " << cli.str("trace-out") << "\n";
      return 2;
    }
    for (const serve::QueryRequest& r : trace)
      o << serve::to_json(r).dump() << "\n";
    out << "cosparsed: wrote " << trace.size() << " request(s) to "
        << cli.str("trace-out") << "\n";
    return 0;
  }

  obs::TelemetrySession session;
  session.init(cli, "cosparsed");

  serve::ServerOptions sopts;
  sopts.serve_threads =
      static_cast<std::uint32_t>(std::max<std::int64_t>(
          1, cli.integer("serve-threads")));
  sopts.telemetry = session.telemetry();
  sopts.data_dir = cli.str("data-dir");
  serve::Server server(std::move(cfg), sopts);

  std::vector<serve::QueryResponse> pre_errors;
  Json report;
  try {
    if (cli.str("requests").empty()) {
      report = server.replay();
    } else {
      std::vector<serve::QueryRequest> trace;
      if (cli.str("requests") == "-") {
        read_requests(std::cin, trace, pre_errors);
      } else {
        std::ifstream in(cli.str("requests"));
        if (!in.good()) {
          err << "cosparsed: cannot open " << cli.str("requests") << "\n";
          return 2;
        }
        read_requests(in, trace, pre_errors);
      }
      report = server.serve(trace, pre_errors);
    }
  } catch (const Error& e) {
    err << "cosparsed: " << e.what() << "\n";
    return 2;
  }

  // Final telemetry snapshot BEFORE serializing the report so the
  // document carries the complete histogram digests and SLO verdicts
  // finalize() will gate on.
  if (session.armed()) {
    session.telemetry()->flush();
    report["telemetry"] = session.telemetry()->report_json();
  }

  const serve::ScheduleStats& stats = server.schedule().stats;
  out << "cosparsed: " << stats.admitted << " admitted, " << stats.rejected
      << " rejected, " << stats.errored + pre_errors.size() << " errored ("
      << server.schedule().batches.size() << " batches, scheduler="
      << server.config().scheduler_type << ", exec="
      << server.config().exec_mode << ", " << sopts.serve_threads
      << " serve thread(s))\n";
  out << "  virtual latency p50/p99: "
      << serve::latency_percentile_us(server.schedule().responses, 50.0)
      << "/"
      << serve::latency_percentile_us(server.schedule().responses, 99.0)
      << " us; makespan " << stats.makespan_us << " us; peak queue "
      << stats.peak_queue_depth << "\n";
  if (const Json* timing = report.find("timing"); timing != nullptr) {
    out << "  host wall: " << timing->find("total_wall_ms")->as_double()
        << " ms total, request p99 "
        << timing->find("request_ms_p99")->as_double() << " ms, "
        << timing->find("throughput_rps")->as_double() << " req/s\n";
  }

  if (!cli.str("report-out").empty()) {
    std::ofstream o(cli.str("report-out"));
    if (!o.good()) {
      err << "cosparsed: cannot write " << cli.str("report-out") << "\n";
      return 2;
    }
    o << report.dump(1) << "\n";
    out << "  wrote " << cli.str("report-out") << "\n";
  }

  if (!cli.str("responses-out").empty()) {
    std::vector<const serve::QueryResponse*> ordered;
    for (const serve::QueryResponse& r : server.schedule().responses)
      ordered.push_back(&r);
    for (const serve::QueryResponse& r : pre_errors) ordered.push_back(&r);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const serve::QueryResponse* a,
                        const serve::QueryResponse* b) {
                       return a->id < b->id;
                     });
    std::ofstream o(cli.str("responses-out"));
    if (!o.good()) {
      err << "cosparsed: cannot write " << cli.str("responses-out") << "\n";
      return 2;
    }
    for (const serve::QueryResponse* r : ordered)
      o << serve::wire_json(*r).dump() << "\n";
    out << "  wrote " << ordered.size() << " response(s) to "
        << cli.str("responses-out") << "\n";
  }

  return session.finalize();
}

}  // namespace cosparse::tools
