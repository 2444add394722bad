// Region-attributed memory-system profiler.
//
// A MemProfiler attaches to a sim::Machine (Machine::set_profiler) and
// attributes every memory-hierarchy event — L1/L2 hits, misses and dirty
// evictions, prefetch and writeback line movement, crossbar transfers with
// their arbitration stall share, DRAM traffic with a row-buffer hit/miss
// model — to the labeled allocation region the access touched (labels flow
// from Machine::alloc via kernels::AddressMap: "matrix.elems",
// "vector.dense", ...). Counters are kept per (region, tile); events with
// no simulated address land in synthetic regions ("spm", "dma",
// "lcp.writeback"), and allocations with an empty label in "unlabeled"
// (reported via a debug log line once, see satellite note in ISSUE/DESIGN).
//
// Invariant (asserted by tests/sim/test_profile.cpp and `cosparse-lint
// report`): for every counter name shared with sim::Stats, the sum over
// all regions and tiles equals the global Stats value bit-exactly — the
// profiler observes the exact same increments Machine applies to Stats,
// just keyed by region.
//
// Each region additionally carries a *sampled reuse-distance histogram*:
// every (sample_period)-th cache line of the region is tracked, and on
// every demand access to a tracked line the distance since its previous
// use — measured in demand accesses, a time-distance approximation of
// stack reuse distance — is recorded into log2 buckets. Detached profiling
// (the default) costs one pointer test per event site.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/types.h"

namespace cosparse::sim {

struct Stats;

/// Counters accumulated per (region, tile). The first group mirrors
/// sim::Stats counter names one-to-one (same increment sites, so region
/// sums reproduce the global Stats); the second group is profiler-only
/// detail with no Stats counterpart.
struct RegionCounters {
  // ---- mirrored in sim::Stats (summable to the global counters) ----
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t spm_accesses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t dram_read_bytes = 0;
  std::uint64_t dram_write_bytes = 0;
  std::uint64_t prefetch_lines = 0;
  std::uint64_t writeback_lines = 0;
  std::uint64_t xbar_transfers = 0;
  std::uint64_t flushed_dirty_lines = 0;

  // ---- profiler-only detail ----
  std::uint64_t l1_evictions = 0;  ///< dirty lines evicted from L1
  std::uint64_t l2_evictions = 0;  ///< dirty lines evicted from L2
  std::uint64_t dram_row_hits = 0;
  std::uint64_t dram_row_misses = 0;
  double xbar_stall_cycles = 0.0;  ///< arbitration share of xbar traversals

  RegionCounters& operator+=(const RegionCounters& o);

  /// Visits every counter as (name, value-as-double); mirrored counters
  /// first, under exactly their sim::Stats names.
  void for_each_counter(
      const std::function<void(std::string_view, double)>& fn) const;

  /// Ordered JSON object; integer counters stay exact.
  [[nodiscard]] Json to_json() const;
};

class MemProfiler {
 public:
  /// `sample_period`: every N-th cache line of a region is reuse-tracked
  /// (1 = every line; larger values bound tracking memory on big arrays).
  explicit MemProfiler(std::uint32_t sample_period = 64);

  // ---- wiring (called by sim::Machine) ----
  /// (Re)binds the profiler to a machine: drops the address-range index of
  /// any previous machine (simulated address spaces restart at zero, so
  /// stale ranges would shadow new ones) while *keeping* all per-label
  /// counters, so sequential machines profiled by one MemProfiler
  /// accumulate by region label. One profiler observes one machine at a
  /// time.
  void begin_machine(std::uint32_t num_tiles, std::uint32_t line_bytes,
                     std::uint32_t dram_channels);
  /// Registers a line-aligned allocation; empty labels bucket into
  /// "unlabeled".
  void add_region(Addr base, std::size_t bytes, std::string_view label);

  // ---- events (called by sim::Machine when attached) ----
  void l1_access(std::uint32_t tile, Addr addr, bool hit);
  void l2_access(std::uint32_t tile, Addr addr, bool hit);
  /// Dirty line evicted from L1 (drains into L2).
  void l1_writeback(std::uint32_t tile, Addr addr);
  /// Dirty line evicted from L2 (drains into DRAM).
  void l2_writeback(std::uint32_t tile, Addr addr);
  /// A line moved by a prefetcher (either level; mirrors prefetch_lines).
  void prefetch_line(std::uint32_t tile, Addr addr);
  /// One crossbar traversal; `arb_cycles` is the expected arbitration
  /// serialization charged on top of the 1-cycle hop.
  void xbar_transfer(std::uint32_t tile, Addr addr, double arb_cycles);
  void spm_access(std::uint32_t tile);
  /// DRAM transfer with a known simulated address: attributed to the
  /// address's region and run through the row-buffer model.
  void dram(std::uint32_t tile, Addr addr, std::uint64_t bytes, bool write);
  /// Address-less DRAM transfer (bulk DMA, LCP writeback): attributed to
  /// the named synthetic region; the row-buffer model is skipped.
  void dram_bulk(std::uint32_t tile, std::uint64_t bytes, bool write,
                 std::string_view bucket);
  /// One dirty line written back by a reconfiguration flush: bumps
  /// flushed_dirty_lines *and* dram_write_bytes (the flush drain moves the
  /// line to DRAM; Machine routes the aggregate Stats bytes separately).
  void flushed_line(std::uint32_t tile, Addr addr);
  /// One PE demand access (any configuration): feeds the sampled
  /// reuse-distance histogram of the address's region.
  void reuse_sample(Addr addr);

  // ---- results ----
  struct Region {
    std::string label;
    std::vector<RegionCounters> per_tile;
    /// log2-bucketed reuse distances: bucket b counts distances in
    /// [2^b, 2^(b+1)); measured in demand accesses between uses of the
    /// same sampled line.
    std::vector<std::uint64_t> reuse_buckets;
    std::uint64_t reuse_samples = 0;

    [[nodiscard]] RegionCounters total() const;
  };

  /// All regions with any attributed activity, sorted by label.
  [[nodiscard]] std::vector<const Region*> regions() const;
  [[nodiscard]] const Region* find_region(std::string_view label) const;
  /// Element-wise sum over every region and tile; the mirrored fields
  /// reproduce the global sim::Stats of the observed activity bit-exactly.
  [[nodiscard]] RegionCounters total() const;
  [[nodiscard]] std::uint32_t sample_period() const { return sample_period_; }

  /// The "memory_profile" run-report section: sample parameters plus, per
  /// region (label-sorted), summed counters, the per-tile breakdown and
  /// the reuse histogram. Deterministic member order.
  [[nodiscard]] Json to_json() const;

 private:
  struct Range {
    Addr base = 0;
    Addr end = 0;
    std::uint32_t region = 0;
  };

  std::uint32_t bucket_of(std::string_view label);
  std::uint32_t resolve(Addr addr);
  RegionCounters& counters(std::uint32_t region, std::uint32_t tile);

  std::uint32_t sample_period_;
  std::uint32_t num_tiles_ = 1;
  std::uint32_t line_bytes_ = kCacheLineBytes;
  std::uint32_t dram_channels_ = 16;

  std::vector<Range> ranges_;  ///< sorted by base (allocs are monotonic)
  std::vector<Region> regions_;
  std::unordered_map<std::string, std::uint32_t> by_label_;
  bool warned_unlabeled_ = false;

  // Row-buffer state: last open row per pseudo-channel. Lines interleave
  // across channels; a channel's consecutive lines fill 2 kB rows.
  static constexpr std::uint64_t kRowBytes = 2048;
  std::vector<std::uint64_t> open_row_;  ///< per channel; ~0 = closed

  // Reuse tracking: per sampled line, the demand-access tick of its last
  // use (keyed by line index, valid for the current machine's ranges).
  std::uint64_t demand_tick_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> last_use_;
};

}  // namespace cosparse::sim
