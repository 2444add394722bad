#include "runtime/report.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "graph/algorithms.h"
#include "kernels/semiring.h"
#include "sparse/generate.h"
#include "verify/schema_lint.h"

namespace cosparse::runtime {
namespace {

/// The error findings of the report schema lint (the check `cosparse-lint
/// report` runs), one message per line; "" when the document conforms.
std::string lint_errors(const Json& doc) {
  std::string out;
  for (const auto& f : verify::lint_run_report(doc)) {
    if (f.severity == verify::Severity::kError) out += f.message + "\n";
  }
  return out;
}

TEST(Report, IterationRecordRoundTripsThroughJson) {
  IterationRecord rec;
  rec.index = 7;
  rec.frontier_nnz = 1234;
  rec.density = 0.617;
  rec.sw = SwConfig::kOP;
  rec.hw = sim::HwConfig::kPS;
  rec.sw_switched = true;
  rec.hw_switched = true;
  rec.converted_frontier = true;
  rec.cycles = 987654;
  rec.convert_cycles = 4321;
  rec.energy_pj = 1.5e9;

  const IterationRecord back = iteration_record_from_json(to_json(rec));
  EXPECT_EQ(back.index, rec.index);
  EXPECT_EQ(back.frontier_nnz, rec.frontier_nnz);
  EXPECT_DOUBLE_EQ(back.density, rec.density);
  EXPECT_EQ(back.sw, rec.sw);
  EXPECT_EQ(back.hw, rec.hw);
  EXPECT_EQ(back.sw_switched, rec.sw_switched);
  EXPECT_EQ(back.hw_switched, rec.hw_switched);
  EXPECT_EQ(back.converted_frontier, rec.converted_frontier);
  EXPECT_EQ(back.cycles, rec.cycles);
  EXPECT_EQ(back.convert_cycles, rec.convert_cycles);
  EXPECT_DOUBLE_EQ(back.energy_pj, rec.energy_pj);
}

TEST(Report, IterationRecordFromJsonRejectsBadInput) {
  EXPECT_THROW((void)iteration_record_from_json(Json::parse("[]")), Error);
  // Missing required field.
  const Json full = to_json(IterationRecord{});
  Json without_cycles = Json::object();
  for (const auto& [key, value] : full.members()) {
    if (key != "cycles") without_cycles[key] = value;
  }
  EXPECT_THROW((void)iteration_record_from_json(without_cycles), Error);
  // Unknown dataflow name.
  Json bad = to_json(IterationRecord{});
  bad["sw"] = "XX";
  EXPECT_THROW((void)iteration_record_from_json(bad), Error);
}

TEST(Report, SwConfigFromStringParsesBothAndRejectsOthers) {
  EXPECT_EQ(sw_config_from_string("IP"), SwConfig::kIP);
  EXPECT_EQ(sw_config_from_string("OP"), SwConfig::kOP);
  EXPECT_THROW((void)sw_config_from_string("ip"), Error);
}

TEST(Report, MakeRunReportPassesSchemaCheck) {
  const auto a = sparse::uniform_random(2500, 2500, 35000, 17,
                                        sparse::ValueDist::kUniform01);
  Engine eng(a, sim::SystemConfig::transmuter(4, 8));
  const auto res = graph::bfs(eng, 0);
  ASSERT_GT(res.stats.iterations, 0u);

  const obs::Report report = make_run_report(eng, "test_report");
  // Round-trip through text so the validator sees what a consumer would.
  const Json doc = Json::parse(report.to_string());
  EXPECT_EQ(lint_errors(doc), "");

  EXPECT_EQ(doc.find("schema")->as_string(), obs::kReportSchema);
  EXPECT_EQ(doc.find("tool")->as_string(), "test_report");
  EXPECT_EQ(doc.find("iterations")->size(), eng.iterations().size());
  const Json* tiles = doc.find("tile_stats");
  ASSERT_NE(tiles, nullptr);
  EXPECT_EQ(tiles->size(), static_cast<std::size_t>(eng.system().num_tiles));
  // Every engine report carries the metrics section.
  const Json* metrics_section = doc.find("metrics");
  ASSERT_NE(metrics_section, nullptr);
  EXPECT_NE(metrics_section->find("counters"), nullptr);
  // Totals mirror the engine.
  EXPECT_EQ(doc.find("totals")->find("cycles")->as_int(),
            static_cast<std::int64_t>(eng.total_cycles()));
}

/// Re-tallies the engine.*, native.kernel.* and decision.* counters and the
/// density buckets from the document's own "iterations" and
/// "decision_audit" sections and expects "metrics" to match exactly; the
/// algo.* counters must account for every iteration. Returns the counters.
std::map<std::string, std::int64_t> expect_metrics_match_report(
    const Json& doc) {
  const bool native = doc.find("native") != nullptr;
  const Json& metrics = *doc.find("metrics");
  const Json& hist =
      *metrics.find("histograms")->find("engine.frontier_density");
  const Json& bounds = *hist.find("bounds");

  std::map<std::string, std::int64_t> want;
  std::vector<std::int64_t> buckets(bounds.size() + 1, 0);
  double density_sum = 0.0;
  const Json& iters = *doc.find("iterations");
  for (const Json& it : iters.items()) {
    ++want["engine.iterations"];
    if (it.find("sw_switched")->as_bool()) ++want["engine.sw_switches"];
    if (it.find("hw_switched")->as_bool()) ++want["engine.hw_switches"];
    if (it.find("converted_frontier")->as_bool()) {
      ++want["engine.frontier_conversions"];
    }
    if (native) {
      ++want[it.find("sw")->as_string() == "IP" ? "native.kernel.pull"
                                                : "native.kernel.push"];
    } else {
      want["engine.cycles." + it.find("hw")->as_string()] +=
          it.find("cycles")->as_int();
    }
    const double d = it.find("density")->as_double();
    std::size_t b = 0;
    while (b < bounds.size() && d > bounds.at(b).as_double()) ++b;
    ++buckets[b];
    density_sum += d;
  }
  for (const Json& rec : doc.find("decision_audit")->find("invocations")->items()) {
    ++want["decision.sw." + rec.find("sw")->as_string()];
    ++want["decision.hw." + rec.find("hw")->as_string()];
  }

  std::map<std::string, std::int64_t> got;
  std::map<std::string, std::int64_t> derived;
  for (const auto& [name, value] : metrics.find("counters")->members()) {
    got[name] = value.as_int();
    if (name.rfind("algo.", 0) != 0) derived[name] = value.as_int();
  }
  EXPECT_EQ(derived, want);

  std::int64_t algo_iterations = 0;
  std::int64_t algo_cycles = 0;
  for (const auto& [name, value] : got) {
    if (name.rfind("algo.", 0) != 0) continue;
    if (name.ends_with(".iterations")) algo_iterations += value;
    if (name.ends_with(".cycles")) algo_cycles += value;
  }
  EXPECT_EQ(algo_iterations, static_cast<std::int64_t>(iters.size()));
  if (!native) {
    EXPECT_EQ(got["engine.iterations"],
              doc.find("totals")->find("iterations")->as_int());
    EXPECT_EQ(algo_cycles, doc.find("totals")->find("cycles")->as_int());
  }

  EXPECT_EQ(hist.find("count")->as_int(), static_cast<std::int64_t>(iters.size()));
  EXPECT_EQ(hist.find("sum")->as_double(), density_sum);
  const Json& got_buckets = *hist.find("bucket_counts");
  EXPECT_EQ(got_buckets.size(), buckets.size());
  for (std::size_t i = 0; i < buckets.size() && i < got_buckets.size(); ++i) {
    EXPECT_EQ(got_buckets.at(i).as_int(), buckets[i]) << "bucket " << i;
  }
  return got;
}

TEST(Report, MetricsSectionIsAViewOfTheReport) {
  const auto a = sparse::uniform_random(2500, 2500, 35000, 17,
                                        sparse::ValueDist::kUniform01);
  const auto system = sim::SystemConfig::transmuter(4, 8);

  Engine sim_eng(a, system);
  (void)graph::bfs(sim_eng, 0);
  (void)graph::sssp(sim_eng, 0);
  const Json sim_doc =
      Json::parse(make_run_report(sim_eng, "test_report").to_string());
  const auto sim_counters = expect_metrics_match_report(sim_doc);
  EXPECT_EQ(sim_counters.at("algo.bfs.runs"), 1);
  EXPECT_EQ(sim_counters.at("algo.sssp.runs"), 1);
  EXPECT_GT(sim_counters.at("engine.sw_switches"), 0);

  // A second engine built after the first reports only its own run; with
  // the dataflow pinned there is no switch, so the counter is absent.
  EngineOptions pinned;
  pinned.sw_reconfig = false;
  Engine second(a, system, pinned);
  (void)graph::bfs(second, 0);
  const Json second_doc =
      Json::parse(make_run_report(second, "test_report").to_string());
  const auto second_counters = expect_metrics_match_report(second_doc);
  EXPECT_EQ(second_counters.at("engine.iterations"),
            static_cast<std::int64_t>(second.iterations().size()));
  EXPECT_EQ(second_counters.count("engine.sw_switches"), 0u);
  EXPECT_EQ(second_counters.count("algo.sssp.runs"), 0u);
  EXPECT_EQ(second_counters.at("algo.bfs.runs"), 1);

  EngineOptions native_opts;
  native_opts.exec_mode = native::ExecMode::kNative;
  native_opts.sim_threads = 0;
  Engine native_eng(a, system, native_opts);
  (void)graph::bfs(native_eng, 0);
  const Json native_doc =
      Json::parse(make_run_report(native_eng, "test_report").to_string());
  const auto native_counters = expect_metrics_match_report(native_doc);
  EXPECT_EQ(native_counters.at("algo.bfs.runs"), 1);
  EXPECT_EQ(native_counters.count("engine.cycles.SC"), 0u);
}

TEST(Report, SchemaCheckerFlagsTamperedTileStats) {
  const auto a = sparse::uniform_random(1000, 1000, 12000, 5,
                                        sparse::ValueDist::kUniform01);
  Engine eng(a, sim::SystemConfig::transmuter(2, 4));
  eng.spmv(Engine::Frontier::from_sparse(
               sparse::random_sparse_vector(1000, 0.2, 9)),
           kernels::PlainSpmv{});

  const obs::Report report = make_run_report(eng, "test_report");
  const Json doc = Json::parse(report.to_string());
  EXPECT_EQ(lint_errors(doc), "");

  // Corrupt one per-tile counter (Json is read-only once built, so rebuild
  // the document around the tampered tile): the sum invariant must catch it.
  Json tampered = Json::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "tile_stats") {
      tampered[key] = value;
      continue;
    }
    Json tiles = Json::array();
    for (std::size_t i = 0; i < value.size(); ++i) {
      if (i != 0) {
        tiles.push_back(value.at(i));
        continue;
      }
      Json tile = Json::object();
      for (const auto& [name, counter] : value.at(i).members()) {
        tile[name] = counter;
      }
      tile["dram_read_bytes"] =
          value.at(i).find("dram_read_bytes")->as_int() + 1;
      tiles.push_back(std::move(tile));
    }
    tampered[key] = std::move(tiles);
  }
  EXPECT_NE(lint_errors(tampered), "");
}

}  // namespace
}  // namespace cosparse::runtime
