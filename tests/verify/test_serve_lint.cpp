#include "verify/serve_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
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

// ---- parser/lint equivalence over seeded, structure-aware mutants ----

constexpr const char* kTopKeys[] = {
    "scheduler_type", "max_active_reqs", "max_batch_size",
    "virtual_workers", "cache_budget_bytes", "exec_mode",
    "system", "scale", "dataset_seed"};
constexpr const char* kTrafficKeys[] = {
    "arrival",        "request_interval_us", "request_total_cnt",
    "burst_factor",   "burst_fraction",      "burst_period_us",
    "seed",           "datasets",            "algos",
    "tenants"};
constexpr const char* kTopIntKeys[] = {
    "max_active_reqs", "max_batch_size", "virtual_workers",
    "cache_budget_bytes", "scale", "dataset_seed"};
constexpr const char* kTrafficIntKeys[] = {
    "request_interval_us", "request_total_cnt", "burst_period_us", "seed",
    "tenants"};
constexpr const char* kUnknownKeys[] = {
    "warp_speed", "requests_interval_us", "Scale", "", "traffic.seed"};
/// Each legal for some field and illegal for the others.
constexpr const char* kStrings[] = {
    "",         "fcfs",  "same-dataset-batch", "round-robin", "sim",
    "native",   "quantum", "poisson",          "bursty",      "uniform",
    "8x8",      "2x2",   "abx8",               "8x",          "x8",
    "0x8",      "8x1",   "4294967296x8",       "twitter",     "dijkstra"};
/// Dataset and algorithm names, known and unknown.
constexpr const char* kNames[] = {
    "twitter", "vsp", "youtube", "pokec",    "friendster",
    "bfs",     "sssp", "pagerank", "cf",     "dijkstra"};

template <class T, std::size_t N>
const T& pick(Rng& rng, const T (&items)[N]) {
  return items[rng.next_below(N)];
}

/// 0 to 3 names: empty lists included.
Json name_list(Rng& rng) {
  Json list = Json::array();
  for (std::uint64_t n = rng.next_below(4); n > 0; --n)
    list.push_back(pick(rng, kNames));
  return list;
}

/// Integers at the edges of the u32 / u64 / int64 ranges.
Json edge_int(Rng& rng) {
  switch (rng.next_below(5)) {
    case 0: return Json(std::int64_t{0});
    case 1: return Json(std::int64_t{-1});
    case 2: return Json(std::int64_t{1} << 32);
    case 3: return Json(std::uint64_t{1} << 63);  // beyond int64: a double
    default: return Json(static_cast<std::int64_t>(rng.next_below(100)));
  }
}

/// A value of any JSON kind.
Json any_value(Rng& rng) {
  switch (rng.next_below(7)) {
    case 0: return edge_int(rng);
    case 1: return Json(rng.next_double(-1.0, 3.0));
    case 2: return Json(pick(rng, kStrings));
    case 3: return name_list(rng);
    case 4: return Json(true);
    case 5: return Json(nullptr);
    default: return Json::object();
  }
}

Json without(const Json& object, const std::string& key) {
  Json out = Json::object();
  for (const auto& [k, v] : object.members())
    if (k != key) out[k] = v;
  return out;
}

/// One structure-aware edit of a config document.
void mutate(Json& doc, Rng& rng) {
  if (!doc.is_object()) return;
  const bool traffic =
      doc.find("traffic") != nullptr && doc.find("traffic")->is_object() &&
      rng.next_below(2) == 0;
  Json& block = traffic ? doc["traffic"] : doc;
  const std::string key =
      traffic ? pick(rng, kTrafficKeys) : pick(rng, kTopKeys);
  switch (rng.next_below(9)) {
    case 0: block = without(block, key); break;
    case 1: block[key] = any_value(rng); break;
    case 2:
      block[traffic ? pick(rng, kTrafficIntKeys) : pick(rng, kTopIntKeys)] =
          edge_int(rng);
      break;
    case 3: block[key] = Json(pick(rng, kStrings)); break;
    case 4: block[pick(rng, kUnknownKeys)] = any_value(rng); break;
    case 5: {
      Json value = any_value(rng);
      if (!value.is_object()) doc["traffic"] = std::move(value);
      break;
    }
    case 6: {
      const char* list = rng.next_below(2) == 0 ? "datasets" : "algos";
      if (traffic) block[list] = name_list(rng);
      break;
    }
    case 7:
      if (rng.next_below(4) == 0) doc = without(doc, "schema");
      break;
    default:
      if (rng.next_below(8) == 0) doc = any_value(rng);
      break;
  }
}

/// Duplicates a top-level key in the document text. JSON keeps the last
/// occurrence, so a copy at the front is shadowed and one at the end wins.
std::string with_duplicate(const Json& doc, Rng& rng) {
  std::string text = doc.dump();
  if (!doc.is_object() || doc.members().empty()) return text;
  const std::string member = "\"" + std::string(pick(rng, kTopKeys)) +
                             "\":" + any_value(rng).dump();
  if (rng.next_below(2) == 0) return "{" + member + "," + text.substr(1);
  text.pop_back();
  return text + "," + member + "}";
}

TEST(ServeLintProperty, ParserThrowsExactlyWhenLintErrs) {
  constexpr int kMutants = 2500;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    Rng rng(static_cast<std::uint64_t>(i), "serve_config.mutant");
    Json doc = valid_config();
    for (std::uint64_t n = 1 + rng.next_below(3); n > 0; --n)
      mutate(doc, rng);
    if (rng.next_below(4) == 0) doc = Json::parse(with_duplicate(doc, rng));

    bool threw = false;
    try {
      (void)serve::ServeConfig::from_json(doc);
    } catch (const Error&) {
      threw = true;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-cosparse exception '" << e.what()
                    << "' on mutant " << i << ": " << doc.dump();
      threw = true;
    }
    const std::vector<Finding> findings = lint_serve_config(doc);
    ASSERT_EQ(threw, has_error(findings))
        << "mutant " << i << ": " << doc.dump();
    rejected += threw ? 1 : 0;
  }
  // Both sides of the equivalence are exercised.
  EXPECT_GT(rejected, kMutants / 10);
  EXPECT_LT(rejected, kMutants - kMutants / 10);
}

}  // namespace
}  // namespace cosparse::verify
