#include "obs/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "../common/temp_path.h"
#include "graph/algorithms.h"
#include "kernels/semiring.h"
#include "runtime/engine.h"
#include "sparse/generate.h"

namespace cosparse::obs {
namespace {

TEST(Trace, DefaultConstructedIsNullSink) {
  Trace t;
  EXPECT_FALSE(t.enabled());
  t.add_span("x", "span", 0, 10);
  t.add_instant("x", "i", 5);
  t.add_counter("x", "c", 5, 1.0);
  EXPECT_EQ(t.num_events(), 0u);
}

TEST(Trace, ExportsChromeTraceEventJson) {
  Trace t(true);
  t.add_span("engine", "first", 0, 100);
  t.add_span("engine", "second", 100, 250);
  t.add_instant("engine", "tick", 50);
  t.add_counter("engine", "density", 0, 0.5);

  const Json doc = Json::parse(t.to_json().dump());
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Metadata first: process_name + one thread_name per track.
  const Json& meta = events->at(0);
  EXPECT_EQ(meta.find("ph")->as_string(), "M");
  EXPECT_EQ(meta.find("name")->as_string(), "process_name");

  std::size_t spans = 0, instants = 0, counters = 0;
  for (const Json& e : events->items()) {
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.find("dur")->as_double(), 0.0);
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "C") {
      ++counters;
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(counters, 1u);
}

/// Runs BFS through a traced engine and checks the exported timeline:
/// spans per track are monotone and non-overlapping, every engine-track
/// span is one SpMV iteration annotated with its SW/HW configuration.
TEST(Trace, EngineRunProducesWellFormedTimeline) {
  const auto a = sparse::uniform_random(3000, 3000, 40000, 11,
                                        sparse::ValueDist::kUniform01);
  Trace trace(true);
  runtime::EngineOptions opts;
  opts.trace = &trace;
  runtime::Engine eng(a, sim::SystemConfig::transmuter(2, 8), opts);
  const auto bfs = graph::bfs(eng, 0);
  ASSERT_GT(bfs.stats.iterations, 1u);

  const Json doc = Json::parse(trace.to_json().dump());
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Map tid -> track name from the metadata events.
  std::map<std::int64_t, std::string> track_names;
  for (const Json& e : events->items()) {
    if (e.find("ph")->as_string() == "M" &&
        e.find("name")->as_string() == "thread_name") {
      track_names[e.find("tid")->as_int()] =
          e.find("args")->find("name")->as_string();
    }
  }

  std::map<std::int64_t, std::vector<const Json*>> spans_by_tid;
  for (const Json& e : events->items()) {
    if (e.find("ph")->as_string() == "X") {
      spans_by_tid[e.find("tid")->as_int()].push_back(&e);
    }
  }
  ASSERT_FALSE(spans_by_tid.empty());

  std::size_t engine_spans = 0;
  for (const auto& [tid, spans] : spans_by_tid) {
    double prev_end = -1.0;
    for (const Json* s : spans) {
      const double ts = s->find("ts")->as_double();
      const double dur = s->find("dur")->as_double();
      // ts-sorted exporter + sequential producers: spans on one track are
      // monotone and never overlap.
      EXPECT_GE(ts, prev_end - 1e-6) << "overlap on track "
                                     << track_names[tid];
      EXPECT_GE(dur, 0.0);
      prev_end = ts + dur;

      if (track_names[tid] == "engine") {
        ++engine_spans;
        const Json* args = s->find("args");
        ASSERT_NE(args, nullptr);
        const std::string& sw = args->find("sw")->as_string();
        EXPECT_TRUE(sw == "IP" || sw == "OP");
        const std::string& hw = args->find("hw")->as_string();
        EXPECT_TRUE(hw == "SC" || hw == "SCS" || hw == "PC" || hw == "PS");
        EXPECT_NE(args->find("iteration"), nullptr);
        EXPECT_NE(args->find("density"), nullptr);
      }
    }
  }
  // One engine-track span per SpMV iteration.
  EXPECT_EQ(engine_spans, eng.iterations().size());

  // A reconfiguring BFS leaves reconfigure spans on the machine track.
  std::uint32_t hw_switches = bfs.stats.hw_switches();
  if (hw_switches > 0) {
    std::size_t machine_spans = 0;
    for (const auto& [tid, spans] : spans_by_tid) {
      if (track_names[tid] == "machine") machine_spans += spans.size();
    }
    EXPECT_EQ(machine_spans, hw_switches);
  }
}

TEST(Trace, DisabledTraceKeepsEngineLogIdentical) {
  const auto a = sparse::uniform_random(1000, 1000, 15000, 3,
                                        sparse::ValueDist::kUniform01);
  // Null-sink run and traced run must simulate identically: tracing only
  // observes, never perturbs.
  runtime::Engine plain(a, sim::SystemConfig::transmuter(2, 4));
  Trace trace(true);
  runtime::EngineOptions opts;
  opts.trace = &trace;
  runtime::Engine traced(a, sim::SystemConfig::transmuter(2, 4), opts);

  const auto x = sparse::random_sparse_vector(1000, 0.3, 5);
  plain.spmv(runtime::Engine::Frontier::from_sparse(x), kernels::PlainSpmv{});
  traced.spmv(runtime::Engine::Frontier::from_sparse(x), kernels::PlainSpmv{});

  ASSERT_EQ(plain.iterations().size(), traced.iterations().size());
  EXPECT_EQ(plain.total_cycles(), traced.total_cycles());
  EXPECT_EQ(plain.iterations()[0].cycles, traced.iterations()[0].cycles);
  EXPECT_GT(trace.num_events(), 0u);
}

TEST(Trace, WriteCreatesParentDirectories) {
  Trace t(true);
  t.add_span("a", "s", 0, 1);
  const auto dir = test::unique_temp_path("trace_dir");
  const std::string path = dir + "/nested/trace.json";
  t.write(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const Json doc = Json::parse(ss.str());
  EXPECT_NE(doc.find("traceEvents"), nullptr);
}

}  // namespace
}  // namespace cosparse::obs
