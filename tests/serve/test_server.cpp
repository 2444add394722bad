// Server end-to-end: schedule + execute + report, both exec backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace cosparse::serve {
namespace {

ServeConfig tiny_config(const std::string& exec_mode = "native") {
  ServeConfig cfg;
  cfg.scheduler_type = "same-dataset-batch";
  cfg.max_active_reqs = 16;
  cfg.max_batch_size = 4;
  cfg.virtual_workers = 2;
  cfg.exec_mode = exec_mode;
  cfg.system = "2x2";
  cfg.scale = 128;
  cfg.traffic.request_interval_us = 300;
  cfg.traffic.request_total_cnt = 16;
  cfg.traffic.seed = 11;
  cfg.traffic.datasets = {"twitter", "vsp"};
  cfg.traffic.algos = {"bfs", "sssp", "pagerank"};
  return cfg;
}

TEST(Server, ReplayProducesAWellFormedReport) {
  Server server(tiny_config());
  const Json report = server.replay();
  ASSERT_NE(report.find("schema"), nullptr);
  EXPECT_EQ(report.find("schema")->as_string(), "cosparse.run_report/v1");
  EXPECT_EQ(report.find("tool")->as_string(), "cosparsed");
  ASSERT_NE(report.find("results"), nullptr);
  const Json& results = *report.find("results");
  ASSERT_NE(results.find("responses"), nullptr);
  ASSERT_NE(results.find("results_digest"), nullptr);
  ASSERT_NE(results.find("schedule"), nullptr);
  ASSERT_NE(report.find("timing"), nullptr);
  EXPECT_NE(report.find("timing")->find("total_wall_ms"), nullptr);
  EXPECT_NE(report.find("timing")->find("host_cache"), nullptr);
  // Wall clock never leaks into the deterministic results section.
  EXPECT_EQ(results.dump().find("wall"), std::string::npos);
}

TEST(Server, EveryOkResponseCarriesADigest) {
  Server server(tiny_config());
  (void)server.replay();
  std::size_t ok = 0;
  for (const QueryResponse& r : server.schedule().responses) {
    if (r.status != Status::kOk) continue;
    ++ok;
    EXPECT_EQ(r.digest.size(), 16u) << "id " << r.id;
    EXPECT_GT(r.result_elems, 0u);
    EXPECT_GT(r.algo_iterations, 0u);
    EXPECT_GT(r.wall_service_ms, 0.0);
  }
  EXPECT_GT(ok, 0u);
}

TEST(Server, SimAndNativeBackendsAgreeBitForBit) {
  Server native(tiny_config("native"));
  const Json nrep = native.replay();
  Server sim(tiny_config("sim"));
  const Json srep = sim.replay();
  EXPECT_EQ(obs::functional_subset(nrep).dump(),
            obs::functional_subset(srep).dump());
}

TEST(Server, ServeMergesPreErrorsById) {
  ServeConfig cfg = tiny_config();
  std::vector<QueryRequest> trace = generate_trace(cfg.traffic);
  trace.resize(4);
  // Simulate two unparseable JSONL lines that claimed ids 2 and 5 —
  // renumber the real requests around them the way cosparsed does.
  trace[0].id = 1;
  trace[1].id = 3;
  trace[2].id = 4;
  trace[3].id = 6;
  std::vector<QueryResponse> pre_errors(2);
  pre_errors[0].id = 2;
  pre_errors[0].status = Status::kError;
  pre_errors[0].error = "bad request JSON: truncated";
  pre_errors[1].id = 5;
  pre_errors[1].status = Status::kError;
  pre_errors[1].error = "unknown field 'sauce'";

  Server server(cfg);
  const Json report = server.serve(trace, pre_errors);
  const Json& responses = *report.find("results")->find("responses");
  ASSERT_EQ(responses.size(), 6u);
  std::vector<std::uint64_t> ids;
  for (const Json& r : responses.items())
    ids.push_back(static_cast<std::uint64_t>(r.find("id")->as_int()));
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(responses.at(1).find("status")->as_string(), "error");
  EXPECT_EQ(responses.at(4).find("status")->as_string(), "error");
}

TEST(Server, HostCacheNeverServesMoreMissesThanDatasets) {
  ServeConfig cfg = tiny_config();
  Server server(cfg);
  (void)server.replay();
  const CacheStats& s = server.cache_stats();
  EXPECT_LE(s.misses, cfg.traffic.datasets.size());
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(server.schedule().batches.size()));
}

TEST(Server, TelemetrySplitsBatchesIntoLoadPrepareAndExec) {
  obs::Telemetry telemetry;
  ServerOptions opts;
  opts.serve_threads = 2;
  opts.telemetry = &telemetry;
  Server server(tiny_config(), opts);
  (void)server.replay();
  const auto count = [&](const char* name) -> std::uint64_t {
    const obs::StreamingHistogram* h = telemetry.find_histogram(name);
    return h == nullptr ? 0 : h->count();
  };
  // Every batch executes; only the batches whose acquire missed load and
  // prepare, once per dataset.
  const std::uint64_t batches = server.schedule().batches.size();
  EXPECT_EQ(count("serve.batch_ms"), batches);
  EXPECT_EQ(count("serve.exec_ms"), batches);
  EXPECT_EQ(count("serve.load_ms"), server.cache_stats().misses);
  EXPECT_EQ(count("serve.prepare_ms"), server.cache_stats().misses);
  EXPECT_GT(server.cache_stats().misses, 0u);
  EXPECT_LE(telemetry.find_histogram("serve.exec_ms")->sum(),
            telemetry.find_histogram("serve.batch_ms")->sum());
}

TEST(Server, SourceVerticesAreReducedModuloDimension) {
  ServeConfig cfg = tiny_config();
  cfg.scheduler_type = "fcfs";
  QueryRequest r;
  r.id = 1;
  r.dataset = "twitter";
  r.algo = Algo::kBfs;
  r.source = 1u << 30;  // far beyond the scaled dimension
  Server server(cfg);
  (void)server.serve({r});
  ASSERT_EQ(server.schedule().responses.size(), 1u);
  EXPECT_EQ(server.schedule().responses[0].status, Status::kOk);
}

TEST(Server, RerunningReplayIsDeterministic) {
  Server a(tiny_config());
  Server b(tiny_config());
  const Json ra = a.replay();
  const Json rb = b.replay();
  EXPECT_EQ(obs::functional_subset(ra).dump(),
            obs::functional_subset(rb).dump());
}

}  // namespace
}  // namespace cosparse::serve
