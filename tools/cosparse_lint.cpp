#include "cosparse_lint.h"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/code_lint.h"
#include "common/error.h"
#include "common/json.h"
#include "verify/baseline.h"
#include "verify/schema_lint.h"
#include "verify/serve_lint.h"
#include "verify/telemetry_lint.h"

namespace cosparse::tools {

namespace {

constexpr const char* kUsage =
    "usage: cosparse-lint report|telemetry|serve|code <file>... [options]\n"
    "\n"
    "subcommands:\n"
    "  report     lint cosparse.run_report/v1 documents\n"
    "  telemetry  lint telemetry JSONL streams (--telemetry-out files)\n"
    "  serve      lint cosparse.serve_config/v1 documents (cosparsed\n"
    "             trace configs)\n"
    "  code       scan the source tree for signal-safety, FP-exactness,\n"
    "             determinism and phase-hygiene hazards; <file> is the\n"
    "             build's compile_commands.json\n"
    "\n"
    "options:\n"
    "  --json               print one cosparse.lint_findings/v1 document\n"
    "  --strict             exit nonzero on warnings too\n"
    "  --baseline <file>    cosparse.lint_baseline/v1 suppressions\n"
    "  --root <dir>         (code) source root; default: parent of the\n"
    "                       compile db's directory\n"
    "  --report-out <file>  also write the lint_findings JSON to <file>\n";

struct Options {
  std::string subcommand;
  std::vector<std::string> files;
  bool json = false;
  bool strict = false;
  std::string baseline_path;
  std::string root;
  std::string report_out;
};

bool parse_args(int argc, const char* const* argv, Options& opts,
                std::ostream& err) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || (args[0] != "report" && args[0] != "telemetry" &&
                       args[0] != "serve" && args[0] != "code")) {
    err << "cosparse-lint: expected a subcommand"
        << (args.empty() ? std::string() : ", got '" + args[0] + "'") << "\n";
    return false;
  }
  opts.subcommand = args[0];
  std::size_t i = 1;
  const auto value = [&](const char* flag, std::string& slot) {
    if (i + 1 >= args.size()) {
      err << "cosparse-lint: " << flag << " needs an argument\n";
      return false;
    }
    slot = args[++i];
    return true;
  };
  for (; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--json") {
      opts.json = true;
    } else if (a == "--strict") {
      opts.strict = true;
    } else if (a == "--baseline") {
      if (!value("--baseline", opts.baseline_path)) return false;
    } else if (a == "--root") {
      if (!value("--root", opts.root)) return false;
    } else if (a == "--report-out") {
      if (!value("--report-out", opts.report_out)) return false;
    } else if (!a.empty() && a[0] == '-') {
      err << "cosparse-lint: unknown option " << a << "\n";
      return false;
    } else {
      opts.files.push_back(a);
    }
  }
  if (opts.subcommand == "code") {
    if (opts.files.size() > 1) {
      err << "cosparse-lint: code takes at most one compile_commands.json\n";
      return false;
    }
    if (opts.files.empty() && opts.root.empty()) {
      err << "cosparse-lint: code needs a compile_commands.json or --root\n";
      return false;
    }
  } else if (opts.files.empty()) {
    err << "cosparse-lint: no input files\n";
    return false;
  }
  return true;
}

/// Loads and parses --baseline; a missing/invalid file is a usage error
/// (exit 2) — silently ignoring a broken baseline would un-gate CI.
bool load_baseline(const Options& opts, verify::Baseline& baseline,
                   std::ostream& err) {
  if (opts.baseline_path.empty()) return true;
  std::ifstream in(opts.baseline_path);
  if (!in.good()) {
    err << "cosparse-lint: cannot open baseline " << opts.baseline_path
        << "\n";
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    baseline = verify::Baseline::from_json(Json::parse(buf.str()));
  } catch (const Error& e) {
    err << "cosparse-lint: bad baseline " << opts.baseline_path << ": "
        << e.what() << "\n";
    return false;
  }
  return true;
}

verify::LintReport lint_code_subject(const Options& opts) {
  namespace fs = std::filesystem;
  analyze::CodeLintOptions code;
  if (!opts.files.empty()) code.compile_db_path = opts.files.front();
  if (!opts.root.empty()) {
    code.root = opts.root;
  } else {
    // <root>/build/compile_commands.json → <root>.
    code.root =
        fs::absolute(code.compile_db_path).parent_path().parent_path()
            .string();
  }
  return analyze::lint_code(code);
}

}  // namespace

void print_lint_report(std::ostream& os, const verify::LintReport& report) {
  os << report.subject() << ":\n";
  for (const auto& f : report.findings()) {
    os << "  " << (f.suppressed ? "suppressed " : "")
       << verify::to_string(f.severity) << "[" << f.id << "] @"
       << f.location.name << ": " << f.message << "\n";
  }
  os << "  " << report.count(verify::Severity::kError) << " error(s), "
     << report.count(verify::Severity::kWarning) << " warning(s), "
     << report.count(verify::Severity::kInfo) << " info(s)";
  if (report.suppressed_count() > 0)
    os << ", " << report.suppressed_count() << " suppressed";
  os << "\n";
}

int lint_main(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  Options opts;
  if (!parse_args(argc, argv, opts, err)) {
    err << kUsage;
    return 2;
  }
  verify::Baseline baseline;
  if (!load_baseline(opts, baseline, err)) return 2;

  std::vector<verify::LintReport> reports;
  if (opts.subcommand == "code") {
    try {
      reports.push_back(lint_code_subject(opts));
    } catch (const Error& e) {
      err << "cosparse-lint: " << e.what() << "\n";
      return 2;
    }
  } else {
    for (const std::string& path : opts.files) {
      std::ifstream in(path);
      if (!in.good()) {
        err << "cosparse-lint: cannot open " << path << "\n";
        return 2;
      }
      std::stringstream buf;
      buf << in.rdbuf();

      verify::LintReport report(path);
      try {
        if (opts.subcommand == "telemetry") {
          report.add(verify::lint_telemetry_jsonl(buf.str()));
          report.sort_by_severity();
        } else {
          const Json doc = Json::parse(buf.str());
          report = opts.subcommand == "report"
                       ? verify::lint_run_report_json(doc, path)
                       : verify::lint_serve_config_json(doc, path);
        }
      } catch (const Error& e) {
        // Reported under the pass the subcommand's findings carry.
        const char* pass = opts.subcommand == "report"  ? "report_schema"
                           : opts.subcommand == "serve" ? "serve_config"
                                                        : "telemetry";
        report.add(verify::Finding{pass, opts.subcommand + ".unparseable",
                                   verify::Severity::kError, e.what(),
                                   verify::Location::document("(root)")});
      }
      reports.push_back(std::move(report));
    }
  }

  bool gate_tripped = false;
  for (verify::LintReport& report : reports) {
    baseline.apply(report);
    if (!opts.json) print_lint_report(out, report);
    if (report.errors() > 0 ||
        (opts.strict && report.count(verify::Severity::kWarning) > 0)) {
      gate_tripped = true;
    }
  }
  const Json doc = verify::lint_findings_json(opts.subcommand, reports);
  if (opts.json) out << doc.dump(2) << "\n";
  if (!opts.report_out.empty()) {
    std::ofstream o(opts.report_out);
    if (!o.good()) {
      err << "cosparse-lint: cannot write " << opts.report_out << "\n";
      return 2;
    }
    o << doc.dump(2) << "\n";
  }
  return gate_tripped ? 1 : 0;
}

}  // namespace cosparse::tools
