#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>

#include "common/error.h"
#include "serve/cache.h"
#include "sparse/datasets.h"

namespace cosparse::serve {

namespace {

constexpr std::size_t kNoBatch = std::numeric_limits<std::size_t>::max();

std::uint64_t scaled_vertices(const sparse::DatasetSpec& spec,
                              unsigned scale) {
  const std::uint64_t v = spec.vertices / scale;
  return v == 0 ? 1 : v;
}

std::uint64_t scaled_edges(const sparse::DatasetSpec& spec, unsigned scale) {
  const std::uint64_t e = spec.edges / scale;
  return e == 0 ? 1 : e;
}

bool known_dataset(const std::string& name) {
  for (const sparse::DatasetSpec& spec : sparse::DatasetRegistry::specs())
    if (spec.name == name) return true;
  return false;
}

}  // namespace

std::uint64_t CostModel::bytes(const std::string& dataset) const {
  const sparse::DatasetSpec& spec = sparse::DatasetRegistry::spec(dataset);
  return resident_bytes(scaled_vertices(spec, scale),
                        scaled_edges(spec, scale), num_tiles);
}

std::uint64_t CostModel::load_us(const std::string& dataset) const {
  const sparse::DatasetSpec& spec = sparse::DatasetRegistry::spec(dataset);
  return 100 + scaled_edges(spec, scale) / 64;
}

std::uint64_t CostModel::service_us(const std::string& dataset,
                                    Algo algo) const {
  const sparse::DatasetSpec& spec = sparse::DatasetRegistry::spec(dataset);
  const std::uint64_t e = scaled_edges(spec, scale);
  // Relative magnitudes follow the iteration structure of each workload:
  // BFS touches each edge a handful of times frontier-by-frontier, SSSP
  // iterates until distances settle, PageRank sweeps all edges for ~20
  // dense rounds, CF adds the factor-update passes on top.
  switch (algo) {
    case Algo::kBfs:
      return 20 + e / 256;
    case Algo::kSssp:
      return 30 + e / 128;
    case Algo::kPagerank:
      return 50 + e / 16;
    case Algo::kCf:
      return 80 + e / 8;
  }
  return 20 + e / 256;  // unreachable
}

Json ScheduleStats::to_json() const {
  Json j = Json::object();
  j["admitted"] = admitted;
  j["rejected"] = rejected;
  j["errored"] = errored;
  j["peak_active"] = peak_active;
  j["peak_queue_depth"] = peak_queue_depth;
  j["makespan_us"] = makespan_us;
  j["max_wait_us"] = max_wait_us;
  Json cache = Json::object();
  cache["hits"] = cache_hits;
  cache["misses"] = cache_misses;
  cache["evictions"] = cache_evictions;
  cache["over_budget_loads"] = cache_over_budget;
  j["virtual_cache"] = std::move(cache);
  return j;
}

Schedule build_schedule(const ServeConfig& cfg,
                        const std::vector<QueryRequest>& trace) {
  Schedule out;
  out.responses.resize(trace.size());

  const CostModel cost{cfg.scale, parse_system(cfg.system).num_tiles};

  // Virtual replica of the MatrixCache: LRU by last dispatch, pinned
  // while a batch over the dataset is running on a virtual worker.
  struct VirtualEntry {
    std::uint64_t bytes = 0;
    std::uint64_t lru_seq = 0;
    std::uint32_t pins = 0;
  };
  std::map<std::string, VirtualEntry> vcache;
  std::uint64_t vcache_bytes = 0;
  std::uint64_t lru_clock = 0;

  struct VirtualWorker {
    std::uint64_t busy_until = 0;
    std::size_t batch = kNoBatch;  ///< index into out.batches
  };
  std::vector<VirtualWorker> workers(cfg.virtual_workers);

  std::vector<std::size_t> ready;  // trace indices in arrival order
  std::uint32_t running_reqs = 0;
  std::size_t next_arrival = 0;
  std::uint64_t now = 0;

  // Seed the identity fields so even rejected/errored responses are
  // self-describing on the wire.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    QueryResponse& resp = out.responses[i];
    resp.id = trace[i].id;
    resp.tenant = trace[i].tenant;
    resp.dataset = trace[i].dataset;
    resp.algo = to_string(trace[i].algo);
    resp.arrival_us = trace[i].arrival_us;
  }

  const auto active = [&] {
    return static_cast<std::uint64_t>(ready.size()) + running_reqs;
  };

  const auto dispatch_batch = [&](std::uint32_t worker_id) {
    // Select requests for this worker. fcfs takes the single oldest
    // waiter; same-dataset-batch lets the oldest waiter pick the dataset
    // and coalesces up to max_batch_size waiters on it (oldest-first, so
    // no dataset can be starved — the head of the queue always wins).
    std::vector<std::size_t> selected;
    if (cfg.scheduler_type == "fcfs") {
      selected.push_back(ready.front());
      ready.erase(ready.begin());
    } else {
      const std::string& dataset = trace[ready.front()].dataset;
      std::vector<std::size_t> remaining;
      remaining.reserve(ready.size());
      for (const std::size_t idx : ready) {
        if (trace[idx].dataset == dataset &&
            selected.size() < cfg.max_batch_size) {
          selected.push_back(idx);
        } else {
          remaining.push_back(idx);
        }
      }
      ready = std::move(remaining);
    }

    const std::string& dataset = trace[selected.front()].dataset;

    // Virtual cache: hit pins the resident entry; miss charges the load
    // cost and evicts LRU unpinned entries to fit (never pinned ones —
    // mirror of MatrixCache::make_room).
    bool miss = false;
    auto it = vcache.find(dataset);
    if (it != vcache.end()) {
      ++out.stats.cache_hits;
      ++it->second.pins;
      it->second.lru_seq = ++lru_clock;
    } else {
      miss = true;
      ++out.stats.cache_misses;
      const std::uint64_t need = cost.bytes(dataset);
      while (vcache_bytes + need > cfg.cache_budget_bytes) {
        auto victim = vcache.end();
        for (auto cand = vcache.begin(); cand != vcache.end(); ++cand) {
          if (cand->second.pins > 0) continue;
          if (victim == vcache.end() ||
              cand->second.lru_seq < victim->second.lru_seq)
            victim = cand;
        }
        if (victim == vcache.end()) break;  // everything pinned
        vcache_bytes -= victim->second.bytes;
        ++out.stats.cache_evictions;
        vcache.erase(victim);
      }
      VirtualEntry entry;
      entry.bytes = need;
      entry.lru_seq = ++lru_clock;
      entry.pins = 1;
      vcache.emplace(dataset, entry);
      vcache_bytes += need;
      if (vcache_bytes > cfg.cache_budget_bytes)
        ++out.stats.cache_over_budget;
    }

    BatchPlan batch;
    batch.id = static_cast<std::uint32_t>(out.batches.size() + 1);
    batch.dataset = dataset;
    batch.request_indices = selected;
    batch.dispatch_us = now;
    batch.worker = worker_id;
    batch.cache_miss = miss;

    // Requests in a batch run back-to-back on the virtual worker; a miss
    // pays the load cost before the first one starts.
    std::uint64_t t = now + (miss ? cost.load_us(dataset) : 0);
    for (const std::size_t idx : selected) {
      t += cost.service_us(dataset, trace[idx].algo);
      QueryResponse& resp = out.responses[idx];
      resp.status = Status::kOk;  // provisional until real execution
      resp.dispatch_us = now;
      resp.finish_us = t;
      resp.batch = batch.id;
      const std::uint64_t wait = now - trace[idx].arrival_us;
      if (wait > out.stats.max_wait_us) out.stats.max_wait_us = wait;
    }
    batch.finish_us = t;
    if (t > out.stats.makespan_us) out.stats.makespan_us = t;

    workers[worker_id].busy_until = t;
    workers[worker_id].batch = out.batches.size();
    running_reqs += static_cast<std::uint32_t>(selected.size());
    out.batches.push_back(std::move(batch));
  };

  while (true) {
    // Next event: the earliest virtual completion or the next arrival.
    std::uint64_t next_completion =
        std::numeric_limits<std::uint64_t>::max();
    for (const VirtualWorker& w : workers)
      if (w.batch != kNoBatch && w.busy_until < next_completion)
        next_completion = w.busy_until;
    const std::uint64_t next_arr =
        next_arrival < trace.size()
            ? trace[next_arrival].arrival_us
            : std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t t = std::min(next_completion, next_arr);
    if (t == std::numeric_limits<std::uint64_t>::max()) break;
    now = t;

    // 1. Completions first (worker id ascending): freed capacity is
    //    visible to admissions and dispatches at the same tick.
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (workers[w].batch == kNoBatch || workers[w].busy_until != now)
        continue;
      const BatchPlan& done = out.batches[workers[w].batch];
      auto it = vcache.find(done.dataset);
      COSPARSE_CHECK(it != vcache.end() && it->second.pins > 0);
      --it->second.pins;
      running_reqs -=
          static_cast<std::uint32_t>(done.request_indices.size());
      workers[w].batch = kNoBatch;
    }

    // 2. Arrivals (id ascending — the trace is already in that order).
    while (next_arrival < trace.size() &&
           trace[next_arrival].arrival_us == now) {
      const std::size_t i = next_arrival++;
      QueryResponse& resp = out.responses[i];
      if (!known_dataset(trace[i].dataset)) {
        resp.status = Status::kError;
        resp.error = "unknown dataset '" + trace[i].dataset + "'";
        ++out.stats.errored;
      } else if (active() >= cfg.max_active_reqs) {
        resp.status = Status::kRejected;
        resp.error = "admission control: max_active_reqs reached";
        ++out.stats.rejected;
      } else {
        ready.push_back(i);
        ++out.stats.admitted;
      }
    }

    // Peaks are sampled after arrivals, before dispatch drains the queue.
    if (active() > out.stats.peak_active)
      out.stats.peak_active = static_cast<std::uint32_t>(active());
    if (ready.size() > out.stats.peak_queue_depth)
      out.stats.peak_queue_depth = static_cast<std::uint32_t>(ready.size());

    // 3. Dispatch onto free virtual workers (lowest id first).
    for (std::uint32_t w = 0;
         w < static_cast<std::uint32_t>(workers.size()) && !ready.empty();
         ++w) {
      if (workers[w].batch == kNoBatch) dispatch_batch(w);
    }

    QueueSample sample;
    sample.t_us = now;
    sample.waiting = static_cast<std::uint32_t>(ready.size());
    sample.running = running_reqs;
    out.queue_depth.push_back(sample);
  }

  return out;
}

std::uint64_t latency_percentile_us(
    const std::vector<QueryResponse>& responses, double p) {
  std::vector<std::uint64_t> lat;
  lat.reserve(responses.size());
  for (const QueryResponse& r : responses)
    if (r.status == Status::kOk) lat.push_back(r.latency_us());
  if (lat.empty()) return 0;
  std::sort(lat.begin(), lat.end());
  const auto n = static_cast<double>(lat.size());
  auto idx = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (idx > 0) --idx;
  if (idx >= lat.size()) idx = lat.size() - 1;
  return lat[idx];
}

Json schedule_json(const Schedule& schedule) {
  Json j = Json::object();
  j["stats"] = schedule.stats.to_json();

  Json lat = Json::object();
  lat["p50_us"] = latency_percentile_us(schedule.responses, 50.0);
  lat["p99_us"] = latency_percentile_us(schedule.responses, 99.0);
  j["virtual_latency"] = std::move(lat);

  Json batches = Json::array();
  for (const BatchPlan& b : schedule.batches) {
    Json bj = Json::object();
    bj["id"] = b.id;
    bj["dataset"] = b.dataset;
    Json ids = Json::array();
    for (const std::size_t idx : b.request_indices)
      ids.push_back(schedule.responses[idx].id);
    bj["request_ids"] = std::move(ids);
    bj["dispatch_us"] = b.dispatch_us;
    bj["finish_us"] = b.finish_us;
    bj["worker"] = b.worker;
    bj["cache_miss"] = b.cache_miss;
    batches.push_back(std::move(bj));
  }
  j["batches"] = std::move(batches);

  // Queue samples are summarized (peaks live in stats); the raw series
  // can be large for soak traces and adds nothing to the byte-compare.
  j["queue_samples"] = static_cast<std::uint64_t>(
      schedule.queue_depth.size());
  return j;
}

}  // namespace cosparse::serve
