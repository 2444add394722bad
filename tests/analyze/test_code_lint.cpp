// End-to-end code-lint tests over the fixture tree
// (tests/analyze/fixtures): every planted defect must be detected by
// its pass with a file:line location (zero false negatives), the clean
// fixture must stay silent, the escape hatch must downgrade-not-drop,
// and the compile-db flag checks must fire from a crafted database.
#include "analyze/code_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <string>
#include <vector>

#include "../common/temp_path.h"
#include "common/error.h"
#include "verify/baseline.h"

namespace cosparse::analyze {
namespace {

using verify::Finding;
using verify::LintReport;
using verify::Severity;

const LintReport& fixture_report() {
  static const LintReport report =
      lint_code({COSPARSE_TEST_FIXTURES, ""});
  return report;
}

/// Findings with `id` anchored in `file` — "file:line", or bare "file"
/// for whole-file findings (compile-db flag checks).
std::vector<const Finding*> at(const LintReport& r, const std::string& file,
                               const std::string& id) {
  std::vector<const Finding*> out;
  for (const Finding& f : r.findings()) {
    if (f.id == id && (f.location.name == file ||
                       f.location.name.rfind(file + ":", 0) == 0))
      out.push_back(&f);
  }
  return out;
}

bool has_line_anchor(const Finding& f) {
  const std::size_t colon = f.location.name.rfind(':');
  if (colon == std::string::npos || colon + 1 >= f.location.name.size())
    return false;
  return std::all_of(f.location.name.begin() +
                         static_cast<std::ptrdiff_t>(colon) + 1,
                     f.location.name.end(), [](char c) {
                       return std::isdigit(static_cast<unsigned char>(c)) != 0;
                     });
}

struct Expected {
  const char* file;
  const char* id;
  int min_count;
};

// The zero-false-negative table: one row per planted defect class.
// 4 classes (signal_safety, fp_exactness, determinism, phase_hygiene),
// 15 cases.
const Expected kExpected[] = {
    // class 1: signal safety (direct + transitive hazards)
    {"src/obs/bad_handler.cpp", "signal.unsafe-io", 1},      // std::cout
    {"src/obs/bad_handler.cpp", "signal.unsafe-call", 4},    // malloc/free/...
    {"src/obs/bad_handler.cpp", "signal.unsafe-alloc", 2},   // new + delete
    {"src/obs/bad_handler.cpp", "signal.unsafe-lock", 1},    // lock_guard
    {"src/obs/bad_handler.cpp", "signal.unsafe-type", 1},    // std::string
    // class 2: FP exactness
    {"src/kernels/bad_fma.h", "fp.fma-call", 2},          // fma, __builtin_fma
    {"src/kernels/bad_fma.h", "fp.fma-intrinsic", 1},     // _mm256_fmadd_pd
    {"src/native/bad_hadd.cpp", "fp.horizontal-add", 2},  // hadd, reduce_add
    // class 3: determinism
    {"src/sim/bad_random.cpp", "determinism.rand", 1},
    {"src/sim/bad_random.cpp", "determinism.random-device", 1},
    {"src/sim/bad_random.cpp", "determinism.wallclock", 2},  // time + now
    {"src/sim/bad_unordered.cpp", "determinism.unordered-iteration", 2},
    {"src/sim/bad_unordered.cpp", "determinism.pointer-to-int", 2},
    // class 4: phase/label hygiene
    {"src/runtime/bad_tags.cpp", "phase.unregistered-tag", 1},
    {"src/runtime/bad_tags.cpp", "phase.unregistered-label", 2},
};

TEST(CodeLint, EveryPlantedDefectIsDetectedWithFileLine) {
  const LintReport& r = fixture_report();
  for (const Expected& e : kExpected) {
    const auto found = at(r, e.file, e.id);
    EXPECT_GE(static_cast<int>(found.size()), e.min_count)
        << e.id << " in " << e.file;
    for (const Finding* f : found) {
      EXPECT_EQ(f->severity, Severity::kError) << e.id;
      EXPECT_EQ(f->location.kind, "source") << e.id;
      EXPECT_TRUE(has_line_anchor(*f)) << f->location.name;
    }
  }
}

TEST(CodeLint, CanonicalTagsAndLabelsDoNotOverFire) {
  const LintReport& r = fixture_report();
  // bad_tags.cpp mixes canonical "engine.spmv" / "vector.dense" with the
  // planted typos: exactly 1 tag + 2 label findings, not 2 + 3.
  EXPECT_EQ(at(r, "src/runtime/bad_tags.cpp", "phase.unregistered-tag").size(),
            1u);
  EXPECT_EQ(
      at(r, "src/runtime/bad_tags.cpp", "phase.unregistered-label").size(),
      2u);
}

TEST(CodeLint, CleanFixtureStaysSilent) {
  const LintReport& r = fixture_report();
  for (const Finding& f : r.findings()) {
    EXPECT_EQ(f.location.name.rfind("src/graph/clean.cpp", 0),
              std::string::npos)
        << f.id << " @" << f.location.name;
  }
}

TEST(CodeLint, EscapeHatchDowngradesButKeepsVisible) {
  const LintReport& r = fixture_report();
  // Both annotation placements waive; the unannotated read still gates.
  const auto allowed =
      at(r, "src/runtime/allowed_clock.cpp", "determinism.allowed");
  ASSERT_EQ(allowed.size(), 2u);
  for (const Finding* f : allowed) {
    EXPECT_EQ(f->severity, Severity::kInfo);
    EXPECT_NE(f->message.find("allow(determinism)"), std::string::npos);
  }
  EXPECT_EQ(
      at(r, "src/runtime/allowed_clock.cpp", "determinism.wallclock").size(),
      1u);
}

TEST(CodeLint, HandlerRootIsReportedAndWalkIsTransitive) {
  const LintReport& r = fixture_report();
  const auto roots = at(r, "src/obs/bad_handler.cpp", "signal.root");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->severity, Severity::kInfo);
  // The std::string hazard lives two calls below the handler; its
  // message must carry the full path for debuggability.
  const auto types = at(r, "src/obs/bad_handler.cpp", "signal.unsafe-type");
  ASSERT_EQ(types.size(), 1u);
  EXPECT_NE(types[0]->message.find("bad_sigprof_handler -> record_sample -> "
                                   "format_sample"),
            std::string::npos);
}

TEST(CodeLint, MissingCompileDbIsAWarningNotAnError) {
  const LintReport& r = fixture_report();
  const auto it = std::find_if(
      r.findings().begin(), r.findings().end(),
      [](const Finding& f) { return f.id == "code.compile-db-missing"; });
  ASSERT_NE(it, r.findings().end());
  EXPECT_EQ(it->severity, Severity::kWarning);
}

TEST(CodeLint, CompileDbFlagChecksFireFromCraftedDatabase) {
  const std::string root = COSPARSE_TEST_FIXTURES;
  const std::string db_path = test::unique_temp_path("fixture_ccdb.json");
  {
    std::ofstream out(db_path);
    // bad_kernel.cpp: no -ffp-contract=off → fp.contract-missing.
    // bad_hadd.cpp: has =off but also -ffast-math → fp.fast-math only.
    out << R"([
      {"directory": ")" << root << R"(",
       "file": "src/kernels/bad_kernel.cpp",
       "command": "g++ -O2 -c src/kernels/bad_kernel.cpp"},
      {"directory": ")" << root << R"(",
       "file": "src/native/bad_hadd.cpp",
       "command": "g++ -O2 -ffp-contract=off -ffast-math -c src/native/bad_hadd.cpp"}
    ])";
  }
  const LintReport r = lint_code({root, db_path});
  const auto missing = at(r, "src/kernels/bad_kernel.cpp",
                          "fp.contract-missing");
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0]->severity, Severity::kError);
  EXPECT_EQ(at(r, "src/native/bad_hadd.cpp", "fp.fast-math").size(), 1u);
  EXPECT_TRUE(at(r, "src/native/bad_hadd.cpp", "fp.contract-missing").empty());
  // With a database present the missing-db warning must disappear.
  EXPECT_TRUE(std::none_of(
      r.findings().begin(), r.findings().end(),
      [](const Finding& f) { return f.id == "code.compile-db-missing"; }));
}

TEST(CodeLint, BaselineSuppressesCodeFindings) {
  LintReport r = lint_code({COSPARSE_TEST_FIXTURES, ""});
  const std::size_t before = r.errors();
  ASSERT_GT(before, 0u);
  const verify::Baseline b = verify::Baseline::from_json(Json::parse(R"({
    "schema": "cosparse.lint_baseline/v1",
    "suppress": [{"pass": "determinism", "id": "determinism.rand"}]
  })"));
  EXPECT_EQ(b.apply(r), 1u);
  EXPECT_EQ(r.errors(), before - 1);
  EXPECT_EQ(r.suppressed_count(), 1u);
}

TEST(CodeLint, NonexistentRootThrows) {
  EXPECT_THROW(lint_code({"/nonexistent/fixture/root", ""}), Error);
}

}  // namespace
}  // namespace cosparse::analyze
