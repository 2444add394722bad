// MatrixCache: LRU under a byte budget, pinned entries never evicted,
// concurrent acquires stay coherent and prepare each dataset once.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "runtime/engine.h"
#include "serve/cache.h"
#include "sparse/datasets.h"

namespace cosparse::serve {
namespace {

// Scale 128 keeps every Table III stand-in tiny while preserving their
// relative sizes (the dense `vsp` spec overflows its clamped dimensions
// at larger divisors).
constexpr unsigned kScale = 128;
const sim::SystemConfig kSystem = sim::SystemConfig::transmuter(2, 2);

sparse::DatasetRegistry registry() { return sparse::DatasetRegistry(); }

std::uint64_t bytes_of(const sparse::DatasetRegistry& reg,
                       const std::string& name) {
  const sparse::Graph g = reg.load(name, kScale, 0);
  return resident_bytes(g.num_vertices(), g.num_edges(), kSystem.num_tiles);
}

TEST(MatrixCache, MissThenHit) {
  auto reg = registry();
  MatrixCache cache(&reg, kSystem, 1ULL << 30, kScale, 0);
  {
    const auto lease = cache.acquire("twitter");
    ASSERT_TRUE(lease.valid());
    EXPECT_GT(lease.graph().num_vertices(), 0u);
  }
  EXPECT_TRUE(cache.resident("twitter"));
  { const auto again = cache.acquire("twitter"); }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.bytes_resident, bytes_of(reg, "twitter"));
}

TEST(MatrixCache, UnknownDatasetThrows) {
  auto reg = registry();
  MatrixCache cache(&reg, kSystem, 1ULL << 30, kScale, 0);
  EXPECT_THROW((void)cache.acquire("friendster"), Error);
}

TEST(MatrixCache, LruEvictionOrder) {
  auto reg = registry();
  // Budget fits exactly two of the three smallest datasets.
  const std::uint64_t budget =
      bytes_of(reg, "twitter") + bytes_of(reg, "vsp") +
      bytes_of(reg, "youtube") - 1;
  MatrixCache cache(&reg, kSystem, budget, kScale, 0);
  { const auto l = cache.acquire("twitter"); }
  { const auto l = cache.acquire("vsp"); }
  // twitter is now least-recently-used; loading youtube must evict it
  // (and only it, if vsp + youtube fit).
  { const auto l = cache.acquire("youtube"); }
  EXPECT_FALSE(cache.resident("twitter"));
  EXPECT_TRUE(cache.resident("vsp"));
  EXPECT_TRUE(cache.resident("youtube"));
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes_resident, budget);
}

TEST(MatrixCache, AcquireRefreshesRecency) {
  auto reg = registry();
  const std::uint64_t budget =
      bytes_of(reg, "twitter") + bytes_of(reg, "vsp") +
      bytes_of(reg, "youtube") - 1;
  MatrixCache cache(&reg, kSystem, budget, kScale, 0);
  { const auto l = cache.acquire("twitter"); }
  { const auto l = cache.acquire("vsp"); }
  { const auto l = cache.acquire("twitter"); }  // refresh: vsp is LRU now
  { const auto l = cache.acquire("youtube"); }
  EXPECT_TRUE(cache.resident("twitter"));
  EXPECT_FALSE(cache.resident("vsp"));
}

TEST(MatrixCache, PinnedEntriesAreNeverEvicted) {
  auto reg = registry();
  // Budget fits only one dataset: with twitter pinned, loading vsp must
  // run over budget instead of evicting the pinned entry.
  const std::uint64_t budget = bytes_of(reg, "twitter");
  MatrixCache cache(&reg, kSystem, budget, kScale, 0);
  const auto pinned = cache.acquire("twitter");
  ASSERT_TRUE(pinned.valid());
  {
    const auto l = cache.acquire("vsp");
    EXPECT_TRUE(cache.resident("twitter"));  // still pinned, still here
    EXPECT_TRUE(cache.resident("vsp"));
    EXPECT_GE(cache.stats().over_budget_loads, 1u);
    EXPECT_GT(cache.stats().bytes_resident, budget);
  }
  // The pinned lease keeps its graph reference valid throughout.
  EXPECT_GT(pinned.graph().num_edges(), 0u);
}

TEST(MatrixCache, PeakBytesTracksHighWater) {
  auto reg = registry();
  MatrixCache cache(&reg, kSystem, 1ULL << 30, kScale, 0);
  { const auto a = cache.acquire("twitter"); }
  { const auto b = cache.acquire("vsp"); }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.peak_bytes_resident,
            bytes_of(reg, "twitter") + bytes_of(reg, "vsp"));
}

TEST(MatrixCache, ConcurrentAcquiresLoadOnce) {
  auto reg = registry();
  MatrixCache cache(&reg, kSystem, 1ULL << 30, kScale, 0);
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  // Every PreparedMatrix a lease saw, per worker and dataset.
  std::vector<std::set<const runtime::PreparedMatrix*>> seen(2 * kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&cache, &failures, &seen, i] {
      for (int rep = 0; rep < 20; ++rep) {
        const auto lease = cache.acquire(rep % 2 == 0 ? "twitter" : "vsp");
        if (!lease.valid() || lease.graph().num_vertices() == 0 ||
            lease.prepared() == nullptr ||
            lease.prepared()->ip_sc.rows() != lease.graph().num_vertices())
          failures.fetch_add(1);
        seen[2 * i + rep % 2].insert(lease.prepared().get());
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  const CacheStats s = cache.stats();
  // The per-entry load latch serializes duplicate loads: exactly one miss
  // per dataset no matter how the 8 threads interleave.
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 8u * 20u - 2u);
  // ...and exactly one prepare: all 160 leases of a dataset share one
  // PreparedMatrix.
  for (int d = 0; d < 2; ++d) {
    std::set<const runtime::PreparedMatrix*> all;
    for (int i = 0; i < kThreads; ++i)
      all.insert(seen[2 * i + d].begin(), seen[2 * i + d].end());
    EXPECT_EQ(all.size(), 1u) << "dataset " << d;
  }
}

TEST(MatrixCache, GraphBytesFormula) {
  // The budget charges the graph plus the three resident layouts of G^T
  // and the SC layout's row offsets.
  auto reg = registry();
  const auto g = reg.load("twitter", kScale, 0);
  const std::uint64_t v = g.num_vertices();
  const std::uint64_t e = g.num_edges();
  const std::uint64_t expected =
      e * sizeof(sparse::Triplet) + v * sizeof(Index) +      // graph
      2 * e * sizeof(sparse::Triplet) +                      // IP SC + SCS
      (v + 1) * sizeof(Offset) +                             // SC row offsets
      e * sizeof(kernels::OpStripedMatrix::Element) +        // OP elements
      kSystem.num_tiles * (v + 1) * sizeof(Offset);          // OP col_ptr
  EXPECT_EQ(resident_bytes(v, e, kSystem.num_tiles), expected);
  MatrixCache cache(&reg, kSystem, 1ULL << 30, kScale, 0);
  { const auto l = cache.acquire("twitter"); }
  EXPECT_EQ(cache.stats().bytes_resident, expected);
}

TEST(MatrixCache, LeaseSharesPreparedMatrixAcrossAcquires) {
  auto reg = registry();
  MatrixCache cache(&reg, kSystem, 1ULL << 30, kScale, 0);
  const auto first = cache.acquire("twitter");
  EXPECT_GT(first.load_ms(), 0.0);
  EXPECT_GT(first.prepare_ms(), 0.0);
  const auto second = cache.acquire("twitter");
  EXPECT_EQ(first.prepared(), second.prepared());
  EXPECT_EQ(second.load_ms(), 0.0);
  EXPECT_EQ(second.prepare_ms(), 0.0);
  EXPECT_EQ(first.prepared()->num_tiles, kSystem.num_tiles);
  EXPECT_EQ(first.prepared()->num_pes, kSystem.num_pes());
}

}  // namespace
}  // namespace cosparse::serve
