// Per-dataset prepared-matrix cache for the serving daemon.
//
// A dataset's cold start is loading (or synthesizing) its Table III graph
// and then preparing it: transposing it and building the three resident
// layouts of G^T (runtime::PreparedMatrix). cosparsed keeps both resident
// under a byte budget with LRU eviction, so every batch over a cached
// dataset shares one immutable PreparedMatrix and only builds its cheap
// per-request engine state. Two invariants the property harness enforces:
//   1. an entry with outstanding Leases (in-flight queries) is NEVER
//      evicted — eviction only considers unpinned entries, and when every
//      resident entry is pinned the cache runs over budget (counted in
//      stats.over_budget_loads) rather than fail or evict pinned data;
//   2. eviction order among unpinned entries is strict LRU by last
//      acquire.
// Thread-safe: batches on different serve threads acquire concurrently;
// the map is mutex-protected and load + prepare happen outside the lock
// only for distinct datasets (a per-entry load latch serializes duplicate
// loads, so a concurrent first touch loads and prepares exactly once).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/json.h"
#include "kernels/partition.h"
#include "sim/config.h"
#include "sparse/datasets.h"
#include "sparse/graph.h"

namespace cosparse::runtime {
struct PreparedMatrix;
}  // namespace cosparse::runtime

namespace cosparse::serve {

/// Resident bytes of one cached dataset: the graph (adjacency triplets +
/// out-degree vector) plus its prepared matrix (the SC and SCS triplet
/// layouts, and the OP stripes, whose per-tile column pointers span every
/// vertex); the O(PEs x vblocks) partition bookkeeping is left out. The
/// one unit every serving byte budget is charged in: MatrixCache charges a
/// loaded graph's counts, the scheduler's virtual cache twin and
/// cosparse-lint charge the dataset spec's scaled counts.
[[nodiscard]] constexpr std::uint64_t resident_bytes(std::uint64_t vertices,
                                                     std::uint64_t edges,
                                                     std::uint64_t num_tiles) {
  return edges * (3 * sizeof(sparse::Triplet) +
                  sizeof(kernels::OpStripedMatrix::Element)) +
         vertices * sizeof(Index) + num_tiles * (vertices + 1) * sizeof(Offset);
}

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Loads that had to overrun the byte budget because every resident
  /// entry was pinned by in-flight queries.
  std::uint64_t over_budget_loads = 0;
  std::uint64_t bytes_resident = 0;
  std::uint64_t peak_bytes_resident = 0;

  [[nodiscard]] Json to_json() const;
};

class MatrixCache {
 public:
  /// `registry` must outlive the cache. `scale`/`dataset_seed` pin the
  /// stand-in generation parameters for every load; every dataset is
  /// prepared for `system` with the default EngineOptions layouts.
  MatrixCache(const sparse::DatasetRegistry* registry,
              const sim::SystemConfig& system, std::uint64_t budget_bytes,
              unsigned scale, std::uint64_t dataset_seed);
  ~MatrixCache();  // out of line: CacheEntry is complete only in cache.cpp

  MatrixCache(const MatrixCache&) = delete;
  MatrixCache& operator=(const MatrixCache&) = delete;

  /// RAII pin on one resident dataset. The graph and prepared-matrix
  /// references stay valid — and the entry unevictable — for the lease's
  /// lifetime.
  class Lease {
   public:
    Lease() = default;
    Lease(MatrixCache* cache, struct CacheEntry* entry, double load_ms = 0.0,
          double prepare_ms = 0.0)
        : cache_(cache), entry_(entry), load_ms_(load_ms),
          prepare_ms_(prepare_ms) {}
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] bool valid() const { return entry_ != nullptr; }
    [[nodiscard]] const sparse::Graph& graph() const;
    /// G^T's resident layouts, shared by every engine built on this entry.
    [[nodiscard]] const std::shared_ptr<const runtime::PreparedMatrix>&
    prepared() const;
    /// Host wall time this acquire spent loading / preparing the dataset;
    /// both 0 unless this acquire was the miss that produced the entry.
    [[nodiscard]] double load_ms() const { return load_ms_; }
    [[nodiscard]] double prepare_ms() const { return prepare_ms_; }

    void release();

   private:
    MatrixCache* cache_ = nullptr;
    struct CacheEntry* entry_ = nullptr;
    double load_ms_ = 0.0;
    double prepare_ms_ = 0.0;
  };

  /// Loads and prepares on miss (evicting LRU unpinned entries to fit the
  /// budget) and pins the entry. Throws cosparse::Error for unknown
  /// dataset names — callers validate against the registry before
  /// scheduling, so this only fires on programming errors.
  [[nodiscard]] Lease acquire(const std::string& dataset);

  /// Whether the dataset is currently resident (test/introspection).
  [[nodiscard]] bool resident(const std::string& dataset) const;
  [[nodiscard]] std::uint64_t budget_bytes() const { return budget_; }
  [[nodiscard]] CacheStats stats() const;

 private:
  void release_entry(CacheEntry* entry);
  /// Evicts LRU unpinned entries until `need` more bytes fit the budget;
  /// stops (over budget) when only pinned entries remain. Caller holds
  /// mu_.
  void make_room(std::uint64_t need);

  const sparse::DatasetRegistry* registry_;
  sim::SystemConfig system_;
  std::uint64_t budget_;
  unsigned scale_;
  std::uint64_t dataset_seed_;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<CacheEntry>> entries_;
  std::uint64_t lru_clock_ = 0;
  CacheStats stats_;

  friend class Lease;
};

}  // namespace cosparse::serve
