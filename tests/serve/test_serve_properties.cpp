// Property harness for the serving scheduler and cache (~200 seeds).
//
// Invariants, per DESIGN.md §16 and the scheduler/cache header contracts:
//   1. active (waiting + running) never exceeds max_active_reqs;
//   2. batches never exceed max_batch_size and hold one dataset each;
//   3. every admitted request lands in exactly one batch, every response
//      has a definite status, and virtual times are ordered;
//   4. fcfs never starves: dispatch order equals arrival order among
//      admitted requests (a bounded-overtaking zero bound);
//   5. same-dataset-batch never starves either: the oldest waiter always
//      drives dataset selection, so every admitted request is dispatched
//      by trace end;
//   6. the cache never evicts a dataset with in-flight leases (checked
//      against randomized acquire/release interleavings);
//   7. batched execution is bit-identical to running each request alone
//      (checked on a subsample of seeds — execution is the slow part).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/cache.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace cosparse::serve {
namespace {

constexpr std::uint64_t kSeeds = 200;

ServeConfig config_for_seed(std::uint64_t seed) {
  ServeConfig cfg;
  // Vary the knobs with the seed so the sweep covers the policy space.
  cfg.scheduler_type =
      seed % 2 == 0 ? "same-dataset-batch" : "fcfs";
  cfg.max_active_reqs = 2 + static_cast<std::uint32_t>(seed % 7);
  cfg.max_batch_size = 1 + static_cast<std::uint32_t>(seed % 5);
  cfg.virtual_workers = 1 + static_cast<std::uint32_t>(seed % 3);
  cfg.scale = 2048;
  cfg.traffic.arrival = seed % 3 == 0 ? "bursty" : "poisson";
  cfg.traffic.request_interval_us = 50 + 40 * (seed % 4);
  cfg.traffic.request_total_cnt = 40;
  cfg.traffic.seed = seed;
  cfg.traffic.datasets = {"twitter", "vsp", "youtube"};
  cfg.traffic.algos = {"bfs", "sssp", "pagerank", "cf"};
  return cfg;
}

TEST(ServeProperties, ScheduleInvariantsAcross200Seeds) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const ServeConfig cfg = config_for_seed(seed);
    const auto trace = generate_trace(cfg.traffic);
    const Schedule s = build_schedule(cfg, trace);

    // (1) admission bound, at every sampled instant and in the stats.
    for (const QueueSample& q : s.queue_depth)
      ASSERT_LE(q.waiting + q.running, cfg.max_active_reqs) << "seed " << seed;
    ASSERT_LE(s.stats.peak_active, cfg.max_active_reqs) << "seed " << seed;

    // (2) batch shape.
    std::map<std::size_t, std::uint32_t> batch_of;
    for (const BatchPlan& b : s.batches) {
      ASSERT_GE(b.request_indices.size(), 1u) << "seed " << seed;
      ASSERT_LE(b.request_indices.size(), cfg.max_batch_size)
          << "seed " << seed;
      ASSERT_LT(b.worker, cfg.virtual_workers) << "seed " << seed;
      ASSERT_GT(b.finish_us, b.dispatch_us) << "seed " << seed;
      for (const std::size_t idx : b.request_indices) {
        ASSERT_EQ(trace[idx].dataset, b.dataset) << "seed " << seed;
        ASSERT_TRUE(batch_of.emplace(idx, b.id).second)
            << "request in two batches, seed " << seed;
      }
    }

    // (3) status partition + time ordering + batch membership.
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errored = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const QueryResponse& r = s.responses[i];
      ASSERT_EQ(r.id, trace[i].id) << "seed " << seed;
      switch (r.status) {
        case Status::kOk: {
          ++admitted;
          ASSERT_GE(r.dispatch_us, trace[i].arrival_us) << "seed " << seed;
          ASSERT_GT(r.finish_us, r.dispatch_us) << "seed " << seed;
          const auto it = batch_of.find(i);
          ASSERT_NE(it, batch_of.end()) << "admitted but unbatched, seed "
                                        << seed;
          ASSERT_EQ(it->second, r.batch) << "seed " << seed;
          break;
        }
        case Status::kRejected:
          ++rejected;
          ASSERT_EQ(batch_of.count(i), 0u) << "seed " << seed;
          break;
        case Status::kError:
          ++errored;
          ASSERT_EQ(batch_of.count(i), 0u) << "seed " << seed;
          break;
      }
    }
    ASSERT_EQ(admitted, s.stats.admitted) << "seed " << seed;
    ASSERT_EQ(rejected, s.stats.rejected) << "seed " << seed;
    ASSERT_EQ(errored, s.stats.errored) << "seed " << seed;
    ASSERT_EQ(admitted, batch_of.size()) << "seed " << seed;

    // (4)/(5) starvation freedom: every admitted request is in a batch
    // (checked above), and under fcfs dispatch order equals arrival order.
    if (cfg.scheduler_type == "fcfs") {
      std::size_t prev_idx = 0;
      bool first = true;
      for (const BatchPlan& b : s.batches) {
        for (const std::size_t idx : b.request_indices) {
          if (!first)
            ASSERT_GT(idx, prev_idx) << "fcfs overtaking, seed " << seed;
          prev_idx = idx;
          first = false;
        }
      }
    }
  }
}

TEST(ServeProperties, ScheduleIsBytePureAcross200Seeds) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const ServeConfig cfg = config_for_seed(seed);
    const auto trace = generate_trace(cfg.traffic);
    ASSERT_EQ(schedule_json(build_schedule(cfg, trace)).dump(),
              schedule_json(build_schedule(cfg, trace)).dump())
        << "seed " << seed;
  }
}

TEST(ServeProperties, CacheNeverEvictsPinnedEntries) {
  // Randomized acquire/release interleavings against a budget that fits
  // roughly one dataset: any eviction of a leased entry would invalidate
  // its graph reference, which the post-release read would trip over
  // (and ASan would catch).
  sparse::DatasetRegistry reg;
  const std::vector<std::string> names = {"twitter", "vsp", "youtube"};
  const sim::SystemConfig system = sim::SystemConfig::transmuter(2, 2);
  const sparse::Graph twitter = reg.load("twitter", 128, 0);
  const std::uint64_t budget =
      resident_bytes(twitter.num_vertices(), twitter.num_edges(),
                     system.num_tiles) +
      1;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    MatrixCache cache(&reg, system, budget, 128, 0);
    Rng rng(seed);
    std::vector<std::pair<std::string, MatrixCache::Lease>> held;
    for (int step = 0; step < 40; ++step) {
      if (held.size() < 3 && (held.empty() || rng.next_below(2) == 0)) {
        const std::string& name = names[rng.next_below(names.size())];
        held.emplace_back(name, cache.acquire(name));
      } else {
        held.erase(held.begin() +
                   static_cast<std::ptrdiff_t>(rng.next_below(held.size())));
      }
      for (const auto& [name, lease] : held) {
        ASSERT_TRUE(cache.resident(name)) << "seed " << seed;
        ASSERT_GT(lease.graph().num_vertices(), 0u) << "seed " << seed;
      }
      ASSERT_LE(cache.stats().bytes_resident,
                budget + cache.stats().over_budget_loads * budget * 4)
          << "seed " << seed;
    }
  }
}

// (7) Batched execution must be bit-identical to running each request
// alone. Execution dominates runtime, so sample every 25th seed (8 full
// servers, each replayed twice).
TEST(ServeProperties, BatchedExecutionMatchesAloneExecution) {
  for (std::uint64_t seed = 25; seed <= kSeeds; seed += 25) {
    ServeConfig cfg = config_for_seed(seed);
    cfg.scheduler_type = "same-dataset-batch";
    cfg.scale = 128;  // vsp is dense: large scales overflow the stand-in
    cfg.max_batch_size = 4;
    // Pin the queueing knobs so coalescing actually happens: a single slow
    // virtual worker plus a dense arrival stream guarantees a backlog of
    // same-dataset requests for the scheduler to merge.
    cfg.max_active_reqs = 12;
    cfg.virtual_workers = 1;
    cfg.traffic.request_total_cnt = 12;
    cfg.traffic.request_interval_us = 50;
    Server batched(cfg);
    (void)batched.replay();

    ServeConfig alone_cfg = cfg;
    alone_cfg.scheduler_type = "fcfs";  // one request per engine instance
    alone_cfg.max_batch_size = 1;
    Server alone(alone_cfg);
    (void)alone.replay();

    // Compare per-request digests by id for requests both runs executed
    // (admission differs between the policies; results never do).
    std::map<std::uint64_t, std::string> alone_digests;
    for (const QueryResponse& r : alone.schedule().responses)
      if (r.status == Status::kOk) alone_digests[r.id] = r.digest;
    bool batching_happened = false;
    std::size_t compared = 0;
    for (const BatchPlan& b : batched.schedule().batches)
      batching_happened |= b.request_indices.size() > 1;
    for (const QueryResponse& r : batched.schedule().responses) {
      if (r.status != Status::kOk) continue;
      const auto it = alone_digests.find(r.id);
      if (it == alone_digests.end()) continue;
      ++compared;
      ASSERT_EQ(r.digest, it->second)
          << "seed " << seed << " request " << r.id;
    }
    ASSERT_GT(compared, 0u) << "seed " << seed;
    ASSERT_TRUE(batching_happened) << "seed " << seed
                                   << ": trace never coalesced";
  }
}

}  // namespace
}  // namespace cosparse::serve
