#include "verify/serve_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "serve/config.h"
#include "serve/scheduler.h"

namespace cosparse::verify {
namespace {

bool has(const std::vector<Finding>& fs, const std::string& id) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.id == id; });
}

bool has_error(const std::vector<Finding>& fs) {
  return std::any_of(fs.begin(), fs.end(), [](const Finding& f) {
    return f.severity == Severity::kError;
  });
}

Json valid_config() {
  return Json::parse(R"({
    "schema": "cosparse.serve_config/v1",
    "scheduler_type": "same-dataset-batch",
    "max_active_reqs": 16,
    "max_batch_size": 4,
    "virtual_workers": 2,
    "exec_mode": "native",
    "scale": 64,
    "traffic": {
      "arrival": "bursty",
      "request_interval_us": 500,
      "request_total_cnt": 100,
      "seed": 7,
      "datasets": ["twitter", "vsp"],
      "algos": ["bfs", "pagerank"],
      "tenants": 4
    }
  })");
}

TEST(ServeLint, ValidConfigIsClean) {
  EXPECT_TRUE(lint_serve_config(valid_config()).empty());
}

TEST(ServeLint, ValidConfigAlsoParses) {
  // The lint pass and the strict parser must agree on what is valid.
  EXPECT_NO_THROW((void)serve::ServeConfig::from_json(valid_config()));
}

TEST(ServeLint, DocumentAndSchemaFindings) {
  EXPECT_TRUE(has(lint_serve_config(Json::parse("[]")),
                  "serve.bad-document"));
  auto doc = valid_config();
  doc["schema"] = "cosparse.run_report/v1";
  EXPECT_TRUE(has(lint_serve_config(doc), "serve.wrong-schema"));
  Json no_schema = Json::object();
  no_schema["max_active_reqs"] = 4;
  EXPECT_TRUE(has(lint_serve_config(no_schema), "serve.missing-schema"));
}

TEST(ServeLint, UnknownFieldsTopLevelAndTraffic) {
  auto doc = valid_config();
  doc["warp_speed"] = true;
  EXPECT_TRUE(has(lint_serve_config(doc), "serve.unknown-field"));
  doc = valid_config();
  doc["traffic"]["requests_interval_us"] = 100;
  const auto fs = lint_serve_config(doc);
  ASSERT_TRUE(has(fs, "serve.unknown-field"));
  const auto it = std::find_if(fs.begin(), fs.end(), [](const Finding& f) {
    return f.id == "serve.unknown-field";
  });
  EXPECT_NE(it->location.name.find("requests_interval_us"),
            std::string::npos);
}

TEST(ServeLint, TypeAndValueFindings) {
  auto doc = valid_config();
  doc["max_active_reqs"] = "lots";
  EXPECT_TRUE(has(lint_serve_config(doc), "serve.bad-type"));
  doc = valid_config();
  doc["scheduler_type"] = "round-robin";
  EXPECT_TRUE(has(lint_serve_config(doc), "serve.bad-value"));
  doc = valid_config();
  doc["traffic"]["arrival"] = "uniform";
  EXPECT_TRUE(has(lint_serve_config(doc), "serve.bad-value"));
  doc = valid_config();
  doc["traffic"]["burst_fraction"] = 2.0;
  EXPECT_TRUE(has(lint_serve_config(doc), "serve.bad-value"));
}

TEST(ServeLint, UnknownDatasetCrossReferencesRegistry) {
  auto doc = valid_config();
  doc["traffic"]["datasets"] = Json::parse(R"(["twitter", "friendster"])");
  const auto fs = lint_serve_config(doc);
  ASSERT_TRUE(has(fs, "serve.unknown-dataset"));
  EXPECT_TRUE(has_error(fs));
}

TEST(ServeLint, BudgetBelowLargestDatasetWarns) {
  auto doc = valid_config();
  doc["cache_budget_bytes"] = 1024;  // smaller than any scaled dataset
  const auto fs = lint_serve_config(doc);
  ASSERT_TRUE(has(fs, "serve.budget-below-dataset"));
  // A self-defeating-but-legal config warns; it must not error.
  EXPECT_FALSE(has_error(fs));
}

TEST(ServeLint, BudgetWarningChargesWhatTheSchedulerTwinCharges) {
  // One byte formula: the warning fires exactly below the bytes the
  // virtual cache twin charges on the config's system.
  auto doc = valid_config();
  doc["system"] = "4x4";
  doc["traffic"]["datasets"] = Json::parse(R"(["twitter"])");
  const std::uint64_t bytes = serve::CostModel{64, 4}.bytes("twitter");
  doc["cache_budget_bytes"] = bytes;
  EXPECT_FALSE(has(lint_serve_config(doc), "serve.budget-below-dataset"));
  doc["cache_budget_bytes"] = bytes - 1;
  EXPECT_TRUE(has(lint_serve_config(doc), "serve.budget-below-dataset"));
}

TEST(ServeLint, BatchExceedingAdmissionWarns) {
  auto doc = valid_config();
  doc["max_active_reqs"] = 2;
  doc["max_batch_size"] = 8;
  EXPECT_TRUE(has(lint_serve_config(doc), "serve.batch-exceeds-active"));
}

TEST(ServeLint, UnusedBurstKnobsWarnUnderPoisson) {
  auto doc = valid_config();
  doc["traffic"]["arrival"] = "poisson";
  doc["traffic"]["burst_factor"] = 4.0;
  EXPECT_TRUE(has(lint_serve_config(doc), "serve.unused-burst-knobs"));
}

TEST(ServeLint, ReportWrapperCarriesSubjectAndPass) {
  auto doc = valid_config();
  doc["scheduler_type"] = "round-robin";
  const LintReport report =
      lint_serve_config_json(doc, "traces/bad.serve.json");
  EXPECT_EQ(report.subject(), "traces/bad.serve.json");
  EXPECT_FALSE(report.findings().empty());
  EXPECT_FALSE(report.clean());
}

}  // namespace
}  // namespace cosparse::verify
