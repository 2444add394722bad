// The self-scan acceptance test: `cosparse-lint code` run over this
// very repository must be clean — no errors, no warnings beyond the
// accepted set — with every legacy telemetry clock read surfaced as a
// waived info finding and the SampleProfiler SIGPROF handler proven
// against the async-signal-safe allowlist. This is the same gate CI
// runs via the cosparse-lint binary; keeping it in ctest means a local
// `ctest` catches a hazard before the push. A plain text scan also keeps
// hard-coded /tmp paths out of tests/.
#include "analyze/code_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace cosparse::analyze {
namespace {

using verify::Finding;
using verify::LintReport;
using verify::Severity;

const LintReport& self_report() {
  static const LintReport report = [] {
    const std::string db =
        std::string(COSPARSE_BINARY_ROOT) + "/compile_commands.json";
    return lint_code({COSPARSE_SOURCE_ROOT,
                      std::filesystem::exists(db) ? db : std::string()});
  }();
  return report;
}

TEST(SelfScan, RepositoryIsCleanUnderStrictGate) {
  const LintReport& r = self_report();
  EXPECT_EQ(r.count(Severity::kError), 0u) << r.to_json().dump(2);
  // --strict promotes warnings; the only tolerated warning is the
  // missing-compile-db degradation when the build didn't export one.
  for (const Finding& f : r.findings()) {
    if (f.severity == Severity::kWarning)
      EXPECT_EQ(f.id, "code.compile-db-missing") << f.message;
  }
}

TEST(SelfScan, SigprofHandlerIsWalked) {
  const LintReport& r = self_report();
  const auto it = std::find_if(
      r.findings().begin(), r.findings().end(),
      [](const Finding& f) { return f.id == "signal.root"; });
  ASSERT_NE(it, r.findings().end());
  EXPECT_NE(it->message.find("cosparse_sigprof_handler"), std::string::npos);
  EXPECT_EQ(it->location.name.rfind("src/obs/sampler.cpp:", 0), 0u);
}

/// `// cosparse-lint: allow(determinism)` annotations in the directories
/// the determinism pass scans.
std::size_t determinism_waivers_in_source() {
  const std::string marker = "cosparse-lint: allow(determinism)";
  std::size_t n = 0;
  for (const char* dir : {"src/sim", "src/runtime", "src/native", "src/graph"}) {
    for (const auto& e : std::filesystem::recursive_directory_iterator(
             std::filesystem::path(COSPARSE_SOURCE_ROOT) / dir)) {
      const std::string ext = e.path().extension().string();
      if (ext != ".h" && ext != ".cpp") continue;
      std::ifstream in(e.path());
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      for (std::size_t at = text.find(marker); at != std::string::npos;
           at = text.find(marker, at + marker.size())) {
        ++n;
      }
    }
  }
  return n;
}

TEST(SelfScan, TelemetryClockReadsAreWaivedNotSilent) {
  // The 8 wall-clock sites (sim/machine.cpp, runtime/engine.h,
  // graph/algorithms.cpp) are telemetry-only and bit-neutral; every one
  // must appear as an explicit allow(...) info, not vanish.
  const LintReport& r = self_report();
  const auto waived = static_cast<std::size_t>(std::count_if(
      r.findings().begin(), r.findings().end(),
      [](const Finding& f) { return f.id == "determinism.allowed"; }));
  EXPECT_EQ(waived, determinism_waivers_in_source());
  EXPECT_GE(waived, 8u);
}

TEST(SelfScan, TestsWriteNoFixedTmpPaths) {
  // ctest -j runs every test case as its own concurrent process, so a
  // hard-coded /tmp file is shared by whichever cases write it. Tests take
  // per-test paths from tests/common/temp_path.h instead.
  const std::string needle = std::string("\"/") + "tmp/";
  for (const auto& e : std::filesystem::recursive_directory_iterator(
           std::filesystem::path(COSPARSE_SOURCE_ROOT) / "tests")) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path());
    std::string line;
    for (int n = 1; std::getline(in, line); ++n) {
      EXPECT_EQ(line.find(needle), std::string::npos)
          << e.path().string() << ":" << n << ": " << line;
    }
  }
}

TEST(SelfScan, KernelTusCarryContractOffWhenDbPresent) {
  const std::string db =
      std::string(COSPARSE_BINARY_ROOT) + "/compile_commands.json";
  if (!std::filesystem::exists(db)) {
    GTEST_SKIP() << "build did not export compile_commands.json";
  }
  const LintReport& r = self_report();
  for (const Finding& f : r.findings()) {
    EXPECT_NE(f.id, "fp.contract-missing") << f.location.name;
    EXPECT_NE(f.id, "fp.fast-math") << f.location.name;
  }
}

}  // namespace
}  // namespace cosparse::analyze
