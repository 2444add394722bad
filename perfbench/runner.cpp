// perfbench_runner: runs one perfbench workload and writes everything it
// measured, with its provenance, as one JSON document.
//
//   perfbench_runner --workload sim_sssp|native_analytics|serve_mixed
//                    --seed N --seconds S --trace 0|1 --out FILE
//                    [--corrupt-digest]
//
// Exit code 0 when every check passed, 1 when one failed (the document is
// still written), 2 on bad arguments or an exception (no document).
// perfbench/run.py builds this binary and turns the document into metrics.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "native/simd.h"

namespace perfbench {

using cosparse::Json;

Spans::Scope::Scope(Spans* spans, const char* name) : spans_(spans) {
  if (spans_ == nullptr) return;
  index_ = spans_->spans_.size();
  spans_->spans_.push_back(
      {name, spans_->open_,
       std::chrono::duration<double, std::milli>(Clock::now() - spans_->origin_)
           .count(),
       0.0});
  spans_->open_ = static_cast<std::int64_t>(index_);
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  Span& s = spans_->spans_[index_];
  s.end_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                       spans_->origin_)
                 .count();
  spans_->open_ = s.parent;
}

Json Spans::to_json() const {
  Json out = Json::array();
  for (const Span& s : spans_) {
    Json row = Json::array();
    row.push_back(s.name);
    row.push_back(s.parent);
    row.push_back(s.begin_ms);
    row.push_back(s.end_ms);
    out.push_back(std::move(row));
  }
  return out;
}

void Run::check(std::uint64_t n, std::uint64_t bad, const std::string& what,
                const std::string& detail) {
  attempted += n;
  failed += bad;
  if (!detail.empty()) failures.push_back(what + ": " + detail);
}

bool Run::more_setup() const {
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < kSetupReps || total < kSetupMinSeconds;
}

Json Run::to_json() const {
  Json o = Json::object();
  o["workload"] = opt.workload;
  o["seed"] = opt.seed;
  o["seconds"] = opt.seconds;
  o["trace"] = opt.trace;
  o["config"] = config;
  o["attempted"] = attempted;
  o["failed"] = failed;
  Json jf = Json::array();
  for (const std::string& f : failures) jf.push_back(f);
  o["failures"] = std::move(jf);
  Json js = Json::array();
  for (const double s : setup_s) js.push_back(s);
  o["setup_s"] = std::move(js);
  Json kinds = Json::array();
  Json ms = Json::array();
  for (const Op& op : ops) {
    kinds.push_back(op.kind);
    ms.push_back(op.ms);
  }
  o["op_kind"] = std::move(kinds);
  o["op_ms"] = std::move(ms);
  o["ops_wall_s"] = ops_wall_s;
  o["layers"] = layers;
  if (opt.trace) {
    o["spans"] = spans.to_json();
    o["traced_replay_s"] = traced_replay_s;
    o["untraced_replay_s"] = untraced_replay_s;
  }
  return o;
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

Json provenance(int argc, char** argv, const Run& run) {
  Json p = Json::object();
  Json args = Json::array();
  for (int i = 0; i < argc; ++i) args.push_back(argv[i]);
  p["argv"] = std::move(args);
  p["workload"] = run.opt.workload;
  p["seed"] = run.opt.seed;
  p["build_type"] = PERFBENCH_BUILD_TYPE;
  p["compiler"] = PERFBENCH_COMPILER;
  for (const char* key : {"exec_mode", "sim_threads", "serve_threads"}) {
    const Json* v = run.config.find(key);
    p[key] = v != nullptr ? *v : Json();
  }
  p["host_cores"] = std::thread::hardware_concurrency();
  p["cpu_model"] = cpu_model();
  p["simd"] = cosparse::native::to_string(cosparse::native::simd_level());
  return p;
}

int usage(const std::string& why) {
  std::cerr << "perfbench_runner: " << why
            << "\nusage: perfbench_runner --workload "
               "sim_sssp|native_analytics|serve_mixed --seed N --seconds S "
               "--trace 0|1 --out FILE [--corrupt-digest]\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string out_path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--corrupt-digest") {
        opt.corrupt_digest = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = v == "1";
      } else if (a == "--out") {
        out_path = v;
      } else {
        return usage("unknown option " + a);
      }
    }
  } catch (const std::exception&) {
    return usage("bad option value");
  }
  if (out_path.empty()) return usage("--out is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  Run run(opt);
  try {
    if (opt.workload == "sim_sssp") {
      run_sim_sssp(run);
    } else if (opt.workload == "native_analytics") {
      run_native_analytics(run);
    } else if (opt.workload == "serve_mixed") {
      run_serve_mixed(run);
    } else {
      return usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }

  Json doc = run.to_json();
  doc["provenance"] = provenance(argc, argv, run);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  doc["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  std::ofstream out(out_path);
  out << doc.dump(1) << "\n";
  if (!out) {
    std::cerr << "perfbench_runner: cannot write " << out_path << "\n";
    return 2;
  }
  for (const std::string& f : run.failures) std::cerr << "FAILED " << f << "\n";
  return run.failed == 0 && run.failures.empty() ? 0 : 1;
}
