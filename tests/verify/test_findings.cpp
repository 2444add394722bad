#include "verify/findings.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace cosparse::verify {
namespace {

TEST(Severity, RoundTripsThroughStrings) {
  for (Severity s : {Severity::kInfo, Severity::kWarning, Severity::kError}) {
    EXPECT_EQ(severity_from_string(to_string(s)), s);
  }
  EXPECT_THROW((void)severity_from_string("fatal"), Error);
}

TEST(Finding, RoundTripsThroughJson) {
  const Finding f{"serve_config", "serve.batch-exceeds-active",
                  Severity::kWarning, "max_batch_size exceeds max_active_reqs",
                  Location::config_field("max_batch_size")};
  const Finding back = finding_from_json(f.to_json());
  EXPECT_EQ(back.pass, f.pass);
  EXPECT_EQ(back.id, f.id);
  EXPECT_EQ(back.severity, f.severity);
  EXPECT_EQ(back.message, f.message);
  EXPECT_EQ(back.location.kind, "config_field");
  EXPECT_EQ(back.location.name, "max_batch_size");
}

TEST(LintReport, CountsAndCleanliness) {
  LintReport r("subject");
  EXPECT_TRUE(r.clean());
  r.emit("config", "a", Severity::kInfo, "i", Location::document("x"));
  r.emit("config", "b", Severity::kWarning, "w", Location::document("y"));
  EXPECT_TRUE(r.clean());
  r.emit("config", "c", Severity::kError, "e", Location::document("z"));
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.errors(), 1u);
  EXPECT_EQ(r.count(Severity::kWarning), 1u);
  EXPECT_EQ(r.count(Severity::kInfo), 1u);
}

TEST(LintReport, SortsMostSevereFirst) {
  LintReport r("subject");
  r.emit("p", "i1", Severity::kInfo, "first info", Location::document("a"));
  r.emit("p", "e1", Severity::kError, "first error", Location::document("b"));
  r.emit("p", "w1", Severity::kWarning, "warn", Location::document("c"));
  r.emit("p", "e2", Severity::kError, "second error", Location::document("d"));
  r.sort_by_severity();
  ASSERT_EQ(r.findings().size(), 4u);
  EXPECT_EQ(r.findings()[0].id, "e1");  // stable within a severity
  EXPECT_EQ(r.findings()[1].id, "e2");
  EXPECT_EQ(r.findings()[2].id, "w1");
  EXPECT_EQ(r.findings()[3].id, "i1");
}

TEST(LintReport, JsonCarriesSchemaAndSummary) {
  LintReport r("traces/x.serve.json");
  r.emit("serve_config", "serve.bad-value", Severity::kError,
         "max_active_reqs is 0", Location::config_field("max_active_reqs"));
  const Json j = r.to_json();
  EXPECT_EQ(j.find("schema")->as_string(), kLintReportSchema);
  EXPECT_EQ(j.find("subject")->as_string(), "traces/x.serve.json");
  EXPECT_EQ(j.find("findings")->size(), 1u);
  EXPECT_EQ(j.find("summary")->find("errors")->as_int(), 1);
  EXPECT_EQ(j.find("summary")->find("warnings")->as_int(), 0);
}

}  // namespace
}  // namespace cosparse::verify
