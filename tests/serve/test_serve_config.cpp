// Strict parse + round-trip coverage for cosparse.serve_config/v1.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "common/json.h"
#include "serve/config.h"

namespace cosparse::serve {
namespace {

Json minimal_doc() {
  Json doc = Json::object();
  doc["schema"] = std::string(kServeConfigSchema);
  return doc;
}

TEST(ServeConfig, MinimalDocumentYieldsDefaults) {
  const ServeConfig cfg = ServeConfig::from_json(minimal_doc());
  EXPECT_EQ(cfg.scheduler_type, "same-dataset-batch");
  EXPECT_EQ(cfg.max_active_reqs, 64u);
  EXPECT_EQ(cfg.max_batch_size, 8u);
  EXPECT_EQ(cfg.virtual_workers, 2u);
  EXPECT_EQ(cfg.exec_mode, "native");
  EXPECT_EQ(cfg.scale, 64u);
  EXPECT_EQ(cfg.traffic.arrival, "poisson");
  EXPECT_EQ(cfg.traffic.request_total_cnt, 100u);
  EXPECT_FALSE(cfg.traffic.datasets.empty());
  EXPECT_FALSE(cfg.traffic.algos.empty());
}

TEST(ServeConfig, RoundTripIsLossless) {
  ServeConfig cfg;
  cfg.scheduler_type = "fcfs";
  cfg.max_active_reqs = 7;
  cfg.max_batch_size = 3;
  cfg.virtual_workers = 5;
  cfg.cache_budget_bytes = 12345678;
  cfg.exec_mode = "sim";
  cfg.system = "4x4";
  cfg.scale = 128;
  cfg.dataset_seed = 99;
  cfg.traffic.arrival = "bursty";
  cfg.traffic.request_interval_us = 250;
  cfg.traffic.request_total_cnt = 42;
  cfg.traffic.burst_factor = 4.0;
  cfg.traffic.burst_fraction = 0.25;
  cfg.traffic.burst_period_us = 5000;
  cfg.traffic.seed = 77;
  cfg.traffic.datasets = {"twitter"};
  cfg.traffic.algos = {"sssp", "cf"};
  cfg.traffic.tenants = 9;

  const ServeConfig back = ServeConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.to_json().dump(), cfg.to_json().dump());
  EXPECT_EQ(back.scheduler_type, "fcfs");
  EXPECT_EQ(back.traffic.datasets, cfg.traffic.datasets);
  EXPECT_EQ(back.traffic.algos, cfg.traffic.algos);
}

TEST(ServeConfig, MissingSchemaIsAnError) {
  Json doc = Json::object();
  doc["max_active_reqs"] = 4;
  EXPECT_THROW((void)ServeConfig::from_json(doc), Error);
}

TEST(ServeConfig, WrongSchemaIsAnError) {
  Json doc = minimal_doc();
  doc["schema"] = std::string("cosparse.run_report/v1");
  EXPECT_THROW((void)ServeConfig::from_json(doc), Error);
}

TEST(ServeConfig, NonObjectDocumentIsAnError) {
  EXPECT_THROW((void)ServeConfig::from_json(Json(std::int64_t{3})), Error);
}

TEST(ServeConfig, UnknownTopLevelFieldIsAnError) {
  Json doc = minimal_doc();
  doc["warp_speed"] = true;
  try {
    (void)ServeConfig::from_json(doc);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("warp_speed"), std::string::npos);
  }
}

TEST(ServeConfig, UnknownTrafficFieldNamesThePath) {
  Json doc = minimal_doc();
  Json traffic = Json::object();
  traffic["requests_interval_us"] = 100;  // typo'd field
  doc["traffic"] = std::move(traffic);
  try {
    (void)ServeConfig::from_json(doc);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("traffic.requests_interval_us"),
              std::string::npos);
  }
}

TEST(ServeConfig, TypeMismatchesNameTheField) {
  Json doc = minimal_doc();
  doc["max_active_reqs"] = std::string("lots");
  try {
    (void)ServeConfig::from_json(doc);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("max_active_reqs"),
              std::string::npos);
  }
}

TEST(ServeConfig, RangeChecksReject) {
  const auto rejects = [](const char* field, Json value) {
    Json doc = Json::object();
    doc["schema"] = std::string(kServeConfigSchema);
    doc[field] = std::move(value);
    EXPECT_THROW((void)ServeConfig::from_json(doc), Error) << field;
  };
  rejects("scheduler_type", Json(std::string("round-robin")));
  rejects("max_active_reqs", Json(std::int64_t{0}));
  rejects("max_batch_size", Json(std::int64_t{0}));
  rejects("virtual_workers", Json(std::int64_t{0}));
  rejects("scale", Json(std::int64_t{0}));
  rejects("exec_mode", Json(std::string("quantum")));
  rejects("max_active_reqs", Json(std::int64_t{-3}));
  rejects("max_active_reqs", Json(std::int64_t{5000000000}));  // > u32
  // Malformed system specs throw cosparse::Error, never a std exception.
  for (const char* spec : {"abx8", "8x", "x8", "0x8", "8x1", "8x3", "-8x8",
                           " 8x8", "8x8x8", "", "4294967296x8"})
    rejects("system", Json(std::string(spec)));
}

TEST(ServeConfig, TrafficRangeChecksReject) {
  const auto rejects = [](const char* field, Json value) {
    Json doc = Json::object();
    doc["schema"] = std::string(kServeConfigSchema);
    Json traffic = Json::object();
    traffic[field] = std::move(value);
    doc["traffic"] = std::move(traffic);
    EXPECT_THROW((void)ServeConfig::from_json(doc), Error) << field;
  };
  rejects("arrival", Json(std::string("uniform")));
  rejects("request_interval_us", Json(std::int64_t{0}));
  rejects("burst_factor", Json(0.5));
  rejects("burst_fraction", Json(1.5));
  rejects("burst_period_us", Json(std::int64_t{0}));
  rejects("datasets", Json::array());
  rejects("algos", Json::array());
  rejects("tenants", Json(std::int64_t{0}));
  rejects("datasets", Json(std::string("twitter")));  // not an array
  rejects("request_total_cnt", Json(std::int64_t{0}));
  rejects("algos", Json::parse(R"(["bfs", "dijkstra"])"));
  rejects("datasets", Json::parse(R"(["twitter", "friendster"])"));
}

TEST(ServeConfig, ErrorNamesTheFieldPath) {
  Json doc = minimal_doc();
  doc["traffic"] = Json::parse(R"({"algos": ["dijkstra"]})");
  try {
    (void)ServeConfig::from_json(doc);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("serve_config: field "
                                          "'traffic.algos' ", 0),
              0u)
        << e.what();
  }
}

TEST(ServeConfig, ParseCollectsEveryProblemAndKeepsLegalFields) {
  Json doc = minimal_doc();
  doc["max_active_reqs"] = std::string("lots");
  doc["max_batch_size"] = 3;
  doc["warp_speed"] = true;
  doc["traffic"] = Json::parse(R"({"request_total_cnt": 0, "seed": 5})");
  const ParsedServeConfig parsed = parse_serve_config(doc);
  ASSERT_EQ(parsed.problems.size(), 3u);
  EXPECT_EQ(parsed.problems[0].path, "max_active_reqs");
  EXPECT_EQ(parsed.problems[0].id, "serve.bad-type");
  EXPECT_EQ(parsed.problems[1].path, "warp_speed");
  EXPECT_EQ(parsed.problems[1].id, "serve.unknown-field");
  EXPECT_EQ(parsed.problems[2].path, "traffic.request_total_cnt");
  EXPECT_EQ(parsed.problems[2].id, "serve.bad-value");
  // Rejected fields keep their defaults; legal ones are set.
  EXPECT_EQ(parsed.config.max_active_reqs, ServeConfig{}.max_active_reqs);
  EXPECT_EQ(parsed.config.max_batch_size, 3u);
  EXPECT_EQ(parsed.config.traffic.request_total_cnt,
            TrafficConfig{}.request_total_cnt);
  EXPECT_EQ(parsed.config.traffic.seed, 5u);
}

}  // namespace
}  // namespace cosparse::serve
