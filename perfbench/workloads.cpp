// The three perfbench workloads. Each one sets up (load + prepare,
// repeated as Run::more_setup asks), runs its measured phase for the
// requested seconds, and then checks every result it produced. Traced
// runs additionally record spans, attach the in-program telemetry, run the
// host probes and replay the measured operations with tracing off to price
// the tracing.
#include <unistd.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "kernels/partition.h"
#include "kernels/region_plan.h"
#include "kernels/semiring.h"
#include "reference.h"
#include "runtime/engine.h"
#include "serve/config.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "sim/parallel.h"
#include "sparse/datasets.h"

namespace perfbench {

using namespace cosparse;

namespace {

const sim::SystemConfig kSystem = sim::SystemConfig::transmuter(8, 8);

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- queries

enum class Algo { kBfs, kSssp, kPagerank };

const char* span_name(Algo a) {
  switch (a) {
    case Algo::kBfs:
      return "graph.bfs";
    case Algo::kSssp:
      return "graph.sssp";
    case Algo::kPagerank:
      return "graph.pagerank";
  }
  return "graph.unknown";
}

struct Query {
  Algo algo = Algo::kBfs;
  Index source = 0;
};

struct Answer {
  std::vector<std::int64_t> level;  ///< BFS
  std::vector<Value> values;        ///< SSSP distances or PageRank ranks
  double residual = 0.0;            ///< PageRank
};

Answer run_query(runtime::Engine& eng, const sparse::Graph& g, Algo algo,
                 Index source, std::uint32_t iterations = 0) {
  Answer a;
  switch (algo) {
    case Algo::kBfs:
      a.level = graph::bfs(eng, source).level;
      break;
    case Algo::kSssp:
      a.values = graph::sssp(eng, source, iterations).dist;
      break;
    case Algo::kPagerank: {
      graph::PageRankOptions opts;
      if (iterations != 0) opts.max_iterations = iterations;
      graph::PageRankResult r = graph::pagerank(eng, g.out_degrees(), opts);
      a.values = std::move(r.rank);
      a.residual = r.residual;
      break;
    }
  }
  return a;
}

std::string digest(Algo algo, const Answer& a) {
  switch (algo) {
    case Algo::kBfs:
      return digest_levels(a.level);
    case Algo::kSssp:
      return digest_dist(a.values);
    case Algo::kPagerank:
      return digest_rank(a.values, a.residual);
  }
  return "";
}

/// Empty when the answer matches the plain reference implementation.
std::string check_reference(const sparse::Graph& g, Algo algo, Index source,
                            const Answer& a) {
  switch (algo) {
    case Algo::kBfs:
      return compare_levels(a.level, reference_bfs(g.adjacency(), source));
    case Algo::kSssp:
      return compare_dist(a.values, reference_sssp(g.adjacency(), source));
    case Algo::kPagerank:
      return compare_rank(a.values,
                          reference_pagerank(g.adjacency(), g.out_degrees()));
  }
  return "unknown algorithm";
}

/// `count` distinct sources drawn from the 5% of vertices with the highest
/// out-degree: every query then starts in the graph's core and costs about
/// the same, so runs with different seeds measure comparable work.
std::vector<Index> draw_sources(const sparse::Graph& g, std::uint64_t seed,
                                std::size_t count) {
  const auto& deg = g.out_degrees();
  std::vector<Index> hubs(g.num_vertices());
  for (Index v = 0; v < g.num_vertices(); ++v) hubs[v] = v;
  std::stable_sort(hubs.begin(), hubs.end(),
                   [&](Index a, Index b) { return deg[a] > deg[b]; });
  hubs.resize(std::max<std::size_t>(count, hubs.size() / 20));
  Rng rng(seed, "perfbench.sources");
  std::vector<Index> out;
  while (out.size() < count) {
    const auto i = static_cast<std::size_t>(rng.next_below(hubs.size()));
    out.push_back(hubs[i]);
    hubs[i] = hubs.back();
    hubs.pop_back();
  }
  return out;
}

// ------------------------------------------------------------ layer keys

void zero_layers(Json& layers) {
  for (const char* key : {
           "sparse.load_ms", "sparse.transpose_ms", "kernels.ip_build_ms",
           "kernels.op_build_ms", "runtime.prepare_ms",
           "runtime.iteration_ms_p50", "runtime.iteration_ms_sum",
           "runtime.iterations", "runtime.sw_switches", "runtime.hw_switches",
           "runtime.conversions", "native.pull_iters", "native.push_iters",
           "native.pull_nnz_per_s", "native.pull_gb_s_computed",
           "native.pull_roofline_frac", "host.stream_gb_s",
           "host.stream_array_mb", "host.llc_mb", "host.stream_cache_resident",
           "sim.cycles", "sim.l1_hits", "sim.l1_misses", "sim.l2_hits",
           "sim.l2_misses", "sim.spm_accesses", "sim.dram_bytes",
           "sim.reconfigurations", "sim.tile_fill_ms", "sim.replay_ms",
           "sim.phase_ms", "sim.ns_per_access", "sim.accesses_per_s",
           "serve.trace_ms", "serve.schedule_ms", "serve.batches",
           "serve.batch_ms_p50", "serve.batch_ms_p99", "serve.batch_ms_sum",
           "serve.request_ms_sum", "serve.batch_overhead_ms",
           "serve.cache_hits", "serve.cache_misses", "serve.cache_evictions",
           "serve.over_budget_loads", "serve.peak_bytes", "serve.admitted",
           "serve.rejected"})
    layers[key] = 0.0;
}

void histogram_layers(Run& run, const char* hist, const char* sum_key,
                      const char* p50_key, const char* p99_key) {
  const obs::StreamingHistogram* h = run.telemetry->find_histogram(hist);
  if (h == nullptr) return;
  if (sum_key != nullptr) run.layers[sum_key] = h->sum();
  if (p50_key != nullptr) run.layers[p50_key] = h->quantile(0.5);
  if (p99_key != nullptr) run.layers[p99_key] = h->quantile(0.99);
}

// ---------------------------------------------------------------- probes

/// Streaming triad a = b + 3c over three arrays on kHostThreads threads;
/// best of several passes. The arrays are far smaller than 4x a large
/// LLC, so the figure is reported as cache-resident when that holds.
void stream_probe(Run& run) {
  const auto span = run.spans.scope("host.stream");
  constexpr std::size_t kElems = std::size_t{4} << 20;  // 32 MiB per array
  std::vector<double> a(kElems, 0.0), b(kElems, 1.0), c(kElems, 2.0);
  sim::ParallelExecutor pool(kHostThreads);
  const auto pass = [&](std::uint32_t t) {
    const std::size_t lo = kElems * t / kHostThreads;
    const std::size_t hi = kElems * (t + 1) / kHostThreads;
    for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
  };
  double best_ms = 0.0;
  for (int rep = 0; rep < 12; ++rep) {
    const auto t0 = Clock::now();
    pool.run(kHostThreads, pass);
    const double ms = ms_since(t0);
    if (rep > 0 && (best_ms == 0.0 || ms < best_ms)) best_ms = ms;
  }
  const double bytes = 3.0 * sizeof(double) * static_cast<double>(kElems);
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const double llc_bytes = llc > 0 ? static_cast<double>(llc) : 0.0;
  run.layers["host.stream_gb_s"] = bytes / (best_ms * 1e6);
  run.layers["host.stream_array_mb"] = bytes / (1 << 20);
  run.layers["host.llc_mb"] = llc_bytes / (1 << 20);
  run.layers["host.stream_cache_resident"] = bytes < 4.0 * llc_bytes ? 1 : 0;
  run.config["stream_probe"] =
      "triad over 3 arrays of 32 MiB on 4 threads, best of 11 passes; "
      "cache-resident when 3 arrays < 4x LLC";
}

/// Times Engine::spmv on an all-active dense frontier (the pull kernel)
/// and relates the computed bytes it must move to the stream probe.
void pull_probe(Run& run, runtime::Engine& eng, std::size_t edges) {
  const auto span = run.spans.scope("native.pull_probe");
  const Index n = eng.dimension();
  kernels::DenseFrontier f(n, 0.0);
  for (Index v = 0; v < n; ++v) f.set(v, 1.0 / n);
  const auto frontier = runtime::Engine::Frontier::from_dense(std::move(f));
  const kernels::PageRankSemiring sr;
  if (!eng.spmv(frontier, sr).dense) return;  // warm-up; must pick pull
  int reps = 0;
  const auto t0 = Clock::now();
  while (reps < 5 || ms_since(t0) < 300.0) {
    (void)eng.spmv(frontier, sr);
    ++reps;
  }
  const double s = ms_since(t0) / 1e3;
  const auto nnz = static_cast<double>(edges);
  // Compulsory traffic of one pull: every element (row, col, value) once,
  // the x vector and its active flags once, the y vector and its touched
  // flags once.
  const double bytes = nnz * sizeof(sparse::Triplet) +
                       n * (2 * sizeof(Value) + 2 * sizeof(std::uint8_t));
  const double gb_s = bytes * reps / s / 1e9;
  run.layers["native.pull_nnz_per_s"] = nnz * reps / s;
  run.layers["native.pull_gb_s_computed"] = gb_s;
  const double stream = run.layers["host.stream_gb_s"].as_double();
  run.layers["native.pull_roofline_frac"] = stream > 0 ? gb_s / stream : 0.0;
}

/// Times the pieces the Engine constructor builds, as separate calls.
void layout_probes(Run& run, const sparse::Graph& g) {
  auto t0 = Clock::now();
  sparse::Coo mt;
  {
    const auto span = run.spans.scope("sparse.transpose");
    mt = sparse::transpose(g.adjacency());
  }
  run.layers["sparse.transpose_ms"] =
      run.layers["sparse.transpose_ms"].as_double() + ms_since(t0);
  t0 = Clock::now();
  {
    const auto span = run.spans.scope("kernels.ip_build");
    (void)kernels::IpPartitionedMatrix::build(mt, kSystem.num_pes(), 0);
    (void)kernels::IpPartitionedMatrix::build(
        mt, kSystem.num_pes(), kernels::default_vblock_cols(kSystem));
  }
  run.layers["kernels.ip_build_ms"] =
      run.layers["kernels.ip_build_ms"].as_double() + ms_since(t0);
  t0 = Clock::now();
  {
    const auto span = run.spans.scope("kernels.op_build");
    (void)kernels::OpStripedMatrix::build(mt, kSystem.num_tiles);
  }
  run.layers["kernels.op_build_ms"] =
      run.layers["kernels.op_build_ms"].as_double() + ms_since(t0);
}

// ------------------------------------------------------- query workloads

/// Engine state the first pass of the query list is measured against.
struct Mark {
  std::size_t log = 0;
  std::uint64_t pulls = 0, pushes = 0;
  Cycles cycles = 0;
  sim::Stats stats;

  explicit Mark(const runtime::Engine& e)
      : log(e.iterations().size()), pulls(e.native_decisions().pulls()),
        pushes(e.native_decisions().pushes()), cycles(e.total_cycles()),
        stats(e.machine().stats()) {}
};

/// Exact counts over the first pass of the query list: a fixed amount of
/// work, so they repeat for a fixed seed.
void count_layers(Run& run, const runtime::Engine& eng, const Mark& m,
                  double pass_ms) {
  std::uint64_t sw = 0, hw = 0, conv = 0;
  for (std::size_t i = m.log; i < eng.iterations().size(); ++i) {
    const runtime::IterationRecord& r = eng.iterations()[i];
    sw += r.sw_switched ? 1 : 0;
    hw += r.hw_switched ? 1 : 0;
    conv += r.converted_frontier ? 1 : 0;
  }
  Json& L = run.layers;
  L["runtime.iterations"] = eng.iterations().size() - m.log;
  L["runtime.sw_switches"] = sw;
  L["runtime.hw_switches"] = hw;
  L["runtime.conversions"] = conv;
  L["native.pull_iters"] = eng.native_decisions().pulls() - m.pulls;
  L["native.push_iters"] = eng.native_decisions().pushes() - m.pushes;
  const sim::Stats d = eng.machine().stats() - m.stats;
  L["sim.cycles"] = eng.total_cycles() - m.cycles;
  L["sim.l1_hits"] = d.l1_hits;
  L["sim.l1_misses"] = d.l1_misses;
  L["sim.l2_hits"] = d.l2_hits;
  L["sim.l2_misses"] = d.l2_misses;
  L["sim.spm_accesses"] = d.spm_accesses;
  L["sim.dram_bytes"] = d.dram_bytes();
  L["sim.reconfigurations"] = d.reconfigurations;
  const double accesses =
      static_cast<double>(d.l1_hits + d.l1_misses + d.spm_accesses);
  if (accesses > 0 && pass_ms > 0) {
    L["sim.ns_per_access"] = pass_ms * 1e6 / accesses;
    L["sim.accesses_per_s"] = accesses / (pass_ms / 1e3);
  }
}

struct QueryWorkload {
  const char* dataset;
  unsigned scale;
  native::ExecMode mode;
  /// Builds the query list from the loaded graph and the seed.
  std::vector<Query> (*make_list)(const sparse::Graph&, std::uint64_t);
};

struct LoopResult {
  std::vector<std::string> digests;  ///< one per query, in order
  double query_ms = 0.0;             ///< summed query wall time
};

/// Closed loop, one client: runs `list` cyclically, each query after the
/// previous one returned. Stops once `budget_s` of query time is spent
/// (but never before one full pass), or after exactly `count` queries when
/// `count` > 0. `record` makes the queries the run's measured operations;
/// in traced runs the first full pass also yields the exact counts.
LoopResult closed_loop(Run& run, runtime::Engine& eng, const sparse::Graph& g,
                       const std::vector<Query>& list, double budget_s,
                       std::size_t count, bool record) {
  LoopResult out;
  const Mark start(eng);
  const auto more = [&] {
    const std::size_t done = out.digests.size();
    if (count > 0) return done < count;
    return done < list.size() || out.query_ms < budget_s * 1e3;
  };
  while (more()) {
    const Query& q = list[out.digests.size() % list.size()];
    const auto t0 = Clock::now();
    Answer a;
    {
      const auto span = run.spans.scope(span_name(q.algo), record);
      a = run_query(eng, g, q.algo, q.source);
    }
    const double ms = ms_since(t0);
    out.query_ms += ms;
    if (record) run.add_op(span_name(q.algo), ms);
    out.digests.push_back(digest(q.algo, a));
    if (record && run.opt.trace && out.digests.size() == list.size())
      count_layers(run, eng, start, out.query_ms);
  }
  if (record) run.ops_wall_s = out.query_ms / 1e3;
  return out;
}

runtime::EngineOptions engine_options(const Run& run, native::ExecMode mode,
                                      bool telemetry) {
  runtime::EngineOptions o;
  o.exec_mode = mode;
  o.sim_threads = kHostThreads;
  o.telemetry = telemetry ? run.telemetry.get() : nullptr;
  return o;
}

Json query_list_json(const std::vector<Query>& list) {
  Json jl = Json::array();
  for (const Query& q : list) {
    Json o = Json::object();
    o["algo"] = span_name(q.algo);
    o["source"] = q.source;
    jl.push_back(std::move(o));
  }
  return jl;
}

/// Validates each distinct query of `list` once against the reference on
/// `check_eng` (a native engine), then holds every measured query's digest
/// to the validated one.
void check_queries(Run& run, runtime::Engine& check_eng, const sparse::Graph& g,
                   const std::vector<Query>& list,
                   const std::vector<std::string>& digests, const char* what) {
  std::vector<std::string> validated(list.size());
  for (std::size_t k = 0; k < list.size(); ++k) {
    const Query& q = list[k];
    const Answer a = run_query(check_eng, g, q.algo, q.source);
    const std::string why = check_reference(g, q.algo, q.source, a);
    if (why.empty()) {
      validated[k] = digest(q.algo, a);
    } else {
      run.failures.push_back(std::string(span_name(q.algo)) + " from vertex " +
                             std::to_string(q.source) + ": " + why);
    }
  }
  if (run.opt.corrupt_digest && !validated[0].empty()) validated[0][0] ^= 1;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < digests.size(); ++i)
    if (digests[i] != validated[i % list.size()]) ++bad;
  run.check(digests.size(), bad, what,
            bad == 0 ? "" : std::to_string(bad) + " query result(s) differ");
}

void run_query_workload(Run& run, const QueryWorkload& w) {
  const bool native_mode = w.mode == native::ExecMode::kNative;
  run.config["dataset"] = w.dataset;
  run.config["scale"] = w.scale;
  run.config["system"] = kSystem.name();
  run.config["exec_mode"] = native::to_string(w.mode);
  run.config["sim_threads"] = kHostThreads;
  run.config["serve_threads"] = 0;

  const sparse::DatasetRegistry registry;
  sparse::Graph g;
  std::unique_ptr<runtime::Engine> eng;
  std::vector<Query> list;
  LoopResult measured;
  {
    const auto root = run.spans.scope("bench.run");
    std::vector<double> load_ms, prepare_ms;
    while (run.more_setup()) {
      eng.reset();
      const auto t0 = Clock::now();
      {
        const auto span = run.spans.scope("sparse.load");
        g = registry.load(w.dataset, w.scale);
      }
      const auto t1 = Clock::now();
      {
        const auto span = run.spans.scope("runtime.prepare");
        eng = std::make_unique<runtime::Engine>(
            g.adjacency(), kSystem, engine_options(run, w.mode, true));
      }
      load_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      prepare_ms.push_back(ms_since(t1));
      run.setup_s.push_back(ms_since(t0) / 1e3);
    }
    run.layers["sparse.load_ms"] = median(load_ms);
    run.layers["runtime.prepare_ms"] = median(prepare_ms);
    run.config["vertices"] = g.num_vertices();
    run.config["edges"] = g.num_edges();

    list = w.make_list(g, run.opt.seed);
    run.config["query_list"] = query_list_json(list);
    const double budget =
        run.opt.trace ? run.opt.seconds / 2 : run.opt.seconds;
    measured = closed_loop(run, *eng, g, list, budget, 0, true);

    if (run.opt.trace) {
      run.traced_replay_s = measured.query_ms / 1e3;
      histogram_layers(run, "engine.iteration_ms", "runtime.iteration_ms_sum",
                       "runtime.iteration_ms_p50", nullptr);
      histogram_layers(run, "sim.tile_fill_ms", "sim.tile_fill_ms", nullptr,
                       nullptr);
      histogram_layers(run, "sim.replay_ms", "sim.replay_ms", nullptr,
                       nullptr);
      histogram_layers(run, "sim.phase_ms", "sim.phase_ms", nullptr, nullptr);
      layout_probes(run, g);
      stream_probe(run);
      if (native_mode) pull_probe(run, *eng, g.num_edges());
    }

    const auto span = run.spans.scope("bench.check");
    if (native_mode) {
      check_queries(run, *eng, g, list, measured.digests,
                    "query digest equals the reference-checked one");
    } else {
      runtime::Engine native_eng(
          g.adjacency(), kSystem,
          engine_options(run, native::ExecMode::kNative, false));
      check_queries(run, native_eng, g, list, measured.digests,
                    "simulated query digest equals the native, "
                    "reference-checked one");
    }
  }

  if (run.opt.trace) {
    // Price the tracing: the same queries on a fresh engine with no spans
    // and no telemetry.
    eng.reset();
    runtime::Engine plain(g.adjacency(), kSystem,
                          engine_options(run, w.mode, false));
    run.untraced_replay_s =
        closed_loop(run, plain, g, list, 0, measured.digests.size(), false)
            .query_ms /
        1e3;
  }
}

/// Fig. 9 scenario: SSSP and BFS (two SSSP per BFS) from twelve seeded
/// sources.
std::vector<Query> sim_list(const sparse::Graph& g, std::uint64_t seed) {
  const std::vector<Index> s = draw_sources(g, seed, 12);
  std::vector<Query> list;
  for (std::size_t i = 0; i < s.size(); i += 3) {
    list.push_back({Algo::kSssp, s[i]});
    list.push_back({Algo::kSssp, s[i + 1]});
    list.push_back({Algo::kBfs, s[i + 2]});
  }
  return list;
}

/// Many BFS and SSSP queries (two BFS per SSSP) from 36 seeded sources,
/// plus two PageRank runs per pass.
std::vector<Query> native_list(const sparse::Graph& g, std::uint64_t seed) {
  const std::vector<Index> s = draw_sources(g, seed, 36);
  std::vector<Query> list;
  for (std::size_t i = 0; i < 12; ++i) {
    list.push_back({Algo::kBfs, s[3 * i]});
    list.push_back({Algo::kBfs, s[3 * i + 1]});
    list.push_back({Algo::kSssp, s[3 * i + 2]});
    if (i % 6 == 5) list.push_back({Algo::kPagerank, 0});
  }
  return list;
}

// ------------------------------------------------------------- serving

constexpr std::uint32_t kRequestsPerChunk = 500;
constexpr std::size_t kSamplesPerChunk = 4;
const std::vector<std::string> kServeDatasets = {"twitter", "vsp", "youtube"};

serve::ServeConfig serve_config(std::uint64_t traffic_seed) {
  serve::ServeConfig cfg;
  cfg.scheduler_type = "same-dataset-batch";
  cfg.max_active_reqs = 64;
  cfg.max_batch_size = 8;
  cfg.virtual_workers = 2;
  cfg.scale = 64;
  cfg.exec_mode = "native";
  cfg.traffic.arrival = "poisson";
  cfg.traffic.request_interval_us = 800;
  cfg.traffic.request_total_cnt = kRequestsPerChunk;
  cfg.traffic.seed = traffic_seed;
  cfg.traffic.datasets = kServeDatasets;
  cfg.traffic.algos = {"bfs", "sssp", "pagerank"};
  return cfg;
}

/// The engine Server gives each batch: native, serial inside the batch.
runtime::EngineOptions serve_engine_options() {
  runtime::EngineOptions o;
  o.exec_mode = native::ExecMode::kNative;
  o.sim_threads = 0;
  return o;
}

Algo to_algo(serve::Algo a) {
  switch (a) {
    case serve::Algo::kBfs:
      return Algo::kBfs;
    case serve::Algo::kSssp:
      return Algo::kSssp;
    case serve::Algo::kPagerank:
      return Algo::kPagerank;
    case serve::Algo::kCf:
      break;
  }
  throw Error("perfbench: the serve mix has no CF requests");
}

struct Sample {
  serve::QueryRequest request;
  std::string digest;  ///< as served inside its batch
};

struct ServeTotals {
  double serve_ms = 0.0;
  double trace_ms = 0.0;
  double schedule_ms = 0.0;
};

/// One replay: trace, offline schedule, then Server::serve on kHostThreads
/// workers; adds each phase's wall time to `totals`. `record` makes the
/// requests the run's measured operations and checks every response.
void serve_chunk(Run& run, std::uint64_t traffic_seed, bool record,
                 bool first, ServeTotals& totals, std::vector<Sample>& samples) {
  const serve::ServeConfig cfg = serve_config(traffic_seed);
  std::vector<serve::QueryRequest> trace;
  serve::Schedule planned;
  auto t0 = Clock::now();
  {
    const auto span = run.spans.scope("serve.trace", record);
    trace = serve::generate_trace(cfg.traffic);
  }
  totals.trace_ms += ms_since(t0);
  t0 = Clock::now();
  {
    const auto span = run.spans.scope("serve.schedule", record);
    planned = serve::build_schedule(cfg, trace);
  }
  totals.schedule_ms += ms_since(t0);

  serve::ServerOptions so;
  so.serve_threads = kHostThreads;
  so.telemetry = record ? run.telemetry.get() : nullptr;
  serve::Server server(cfg, so);
  t0 = Clock::now();
  {
    const auto span = run.spans.scope("serve.execute", record);
    (void)server.serve(trace);
  }
  totals.serve_ms += ms_since(t0);
  if (!record) return;

  const std::vector<serve::QueryResponse>& responses =
      server.schedule().responses;
  std::uint64_t not_ok = 0;
  for (const serve::QueryResponse& r : responses) {
    if (r.status == serve::Status::kOk) {
      run.add_op("serve.request", r.wall_service_ms);
    } else {
      ++not_ok;
    }
  }
  run.check(responses.size(), not_ok, "every request is admitted and served",
            not_ok == 0 ? "" : std::to_string(not_ok) + " request(s) not ok");
  const bool same_plan = serve::schedule_json(planned).dump() ==
                         serve::schedule_json(server.schedule()).dump();
  run.check(1, same_plan ? 0 : 1, "the served schedule equals the offline one",
            same_plan ? "" : "schedule differs for traffic seed " +
                                 std::to_string(traffic_seed));

  Rng pick(traffic_seed, "perfbench.sample");
  for (std::size_t i = 0; i < kSamplesPerChunk; ++i) {
    const auto idx = static_cast<std::size_t>(pick.next_below(trace.size()));
    if (responses[idx].status == serve::Status::kOk)
      samples.push_back({trace[idx], responses[idx].digest});
  }

  if (first && run.opt.trace) {
    const serve::ScheduleStats& st = server.schedule().stats;
    const serve::CacheStats& cs = server.cache_stats();
    Json& L = run.layers;
    L["serve.batches"] = server.schedule().batches.size();
    L["serve.admitted"] = st.admitted;
    L["serve.rejected"] = st.rejected;
    L["serve.cache_hits"] = cs.hits;
    L["serve.cache_misses"] = cs.misses;
    L["serve.cache_evictions"] = cs.evictions;
    L["serve.over_budget_loads"] = cs.over_budget_loads;
    L["serve.peak_bytes"] = cs.peak_bytes_resident;
  }
}

void run_serve(Run& run) {
  run.config["datasets"] = Json::array();
  for (const std::string& d : kServeDatasets) run.config["datasets"].push_back(d);
  run.config["algos"] = "bfs,sssp,pagerank";
  run.config["scale"] = 64;
  run.config["system"] = kSystem.name();
  run.config["exec_mode"] = "native";
  run.config["sim_threads"] = 0;
  run.config["serve_threads"] = kHostThreads;
  run.config["requests_per_replay"] = kRequestsPerChunk;
  // Each replay draws its own traffic seed from the workload seed.
  run.config["serve_config"] = serve_config(0).to_json();

  const sparse::DatasetRegistry registry;
  std::map<std::string, sparse::Graph> graphs;
  std::vector<std::uint64_t> seeds;
  ServeTotals measured;
  {
    const auto root = run.spans.scope("bench.run");
    // Set-up: what a server that keeps prepared matrices would pay once,
    // load plus Engine construction for every dataset of the mix. The
    // graphs are kept for the alone re-runs of the check.
    std::vector<double> load_ms, prepare_ms;
    while (run.more_setup()) {
      double load = 0.0, prepare = 0.0;
      for (const std::string& name : kServeDatasets) {
        const auto t0 = Clock::now();
        {
          const auto span = run.spans.scope("sparse.load");
          graphs[name] = registry.load(name, 64);
        }
        const auto t1 = Clock::now();
        {
          const auto span = run.spans.scope("runtime.prepare");
          const runtime::Engine eng(graphs[name].adjacency(), kSystem,
                                    serve_engine_options());
        }
        load += std::chrono::duration<double, std::milli>(t1 - t0).count();
        prepare += ms_since(t1);
      }
      load_ms.push_back(load);
      prepare_ms.push_back(prepare);
      run.setup_s.push_back((load + prepare) / 1e3);
    }
    run.layers["sparse.load_ms"] = median(load_ms);
    run.layers["runtime.prepare_ms"] = median(prepare_ms);

    const double budget_ms =
        (run.opt.trace ? run.opt.seconds / 2 : run.opt.seconds) * 1e3;
    Rng chunk_seeds(run.opt.seed, "perfbench.serve");
    std::vector<Sample> samples;
    const auto t0 = Clock::now();
    while (seeds.empty() || ms_since(t0) < budget_ms) {
      seeds.push_back(chunk_seeds.next());
      serve_chunk(run, seeds.back(), true, seeds.size() == 1, measured,
                  samples);
    }
    run.ops_wall_s = measured.serve_ms / 1e3;
    run.config["replays"] = seeds.size();

    if (run.opt.trace) {
      run.traced_replay_s = measured.serve_ms / 1e3;
      run.layers["serve.trace_ms"] = measured.trace_ms;
      run.layers["serve.schedule_ms"] = measured.schedule_ms;
      histogram_layers(run, "serve.batch_ms", "serve.batch_ms_sum",
                       "serve.batch_ms_p50", "serve.batch_ms_p99");
      histogram_layers(run, "serve.request_ms", "serve.request_ms_sum",
                       nullptr, nullptr);
      run.layers["serve.batch_overhead_ms"] =
          run.layers["serve.batch_ms_sum"].as_double() -
          run.layers["serve.request_ms_sum"].as_double();
      for (const std::string& name : kServeDatasets)
        layout_probes(run, graphs[name]);
      stream_probe(run);
    }

    // Re-run a seeded sample of requests alone, each on a fresh engine,
    // and hold the batched digest to it and the result to the reference.
    const auto span = run.spans.scope("bench.check");
    if (run.opt.corrupt_digest && !samples.empty()) samples[0].digest[0] ^= 1;
    std::uint64_t bad = 0;
    for (const Sample& s : samples) {
      const sparse::Graph& g = graphs.at(s.request.dataset);
      runtime::Engine eng(g.adjacency(), kSystem, serve_engine_options());
      const Algo algo = to_algo(s.request.algo);
      const Index source = s.request.source % eng.dimension();
      const Answer a = run_query(eng, g, algo, source, s.request.iterations);
      std::string why = check_reference(g, algo, source, a);
      if (why.empty() && digest(algo, a) != s.digest)
        why = "batched digest differs from the alone re-run";
      if (!why.empty()) {
        ++bad;
        run.failures.push_back("request " + std::to_string(s.request.id) +
                               " (" + s.request.dataset + " " +
                               span_name(algo) + "): " + why);
      }
    }
    run.check(samples.size(), bad,
              "sampled requests re-run alone match the batched digest and "
              "the reference",
              bad == 0 ? "" : std::to_string(bad) + " sampled request(s) differ");
  }

  if (run.opt.trace) {
    ServeTotals plain;
    std::vector<Sample> unused;
    for (const std::uint64_t s : seeds)
      serve_chunk(run, s, false, false, plain, unused);
    run.untraced_replay_s = plain.serve_ms / 1e3;
  }
}

}  // namespace

void run_sim_sssp(Run& run) {
  zero_layers(run.layers);
  run_query_workload(run, {"pokec", 32, native::ExecMode::kSim, sim_list});
}

void run_native_analytics(Run& run) {
  zero_layers(run.layers);
  run_query_workload(run,
                     {"twitter", 1, native::ExecMode::kNative, native_list});
}

void run_serve_mixed(Run& run) {
  zero_layers(run.layers);
  run_serve(run);
}

}  // namespace perfbench
