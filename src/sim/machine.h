// The simulated machine: tiles x PEs over a reconfigurable two-level
// memory hierarchy, plus DRAM, with per-PE cycle accounting.
//
// Execution model (and its approximations, referenced from DESIGN.md §5):
// kernels run *functionally* on host data while charging cycles to the PE
// that architecturally performs each operation. Each PE owns a local
// double-precision clock; barriers equalize clocks; Machine::cycles()
// returns the max clock, floored by the DRAM bandwidth roofline.
//
// PEs within a tile are simulated serially rather than interleaved
// per-cycle. Two consequences, both documented approximations:
//   * shared-cache contents are warmed in PE order rather than true
//     interleaved order — reuse *statistics* are preserved;
//   * crossbar bank conflicts are charged statistically: every shared-mode
//     access pays `xbar_conflict_factor * (sharers - 1) / banks` cycles of
//     expected serialization on top of the 1-cycle traversal (Table II:
//     "0 to (Nsrc-1) serialization latency depending upon number of
//     conflicts").
//
// Tiles are simulated serially in ascending tile-ID order (for_tiles), so
// every run of the same inputs produces the same numbers (DESIGN.md §11).
// Simulated cycles never depend on how many host threads the caller has.
//
// Hierarchy wiring per HwConfig (paper Fig. 2):
//   SC : per-tile shared L1 cache (P banks)           -> global shared L2
//   SCS: per-tile L1 split: P/2 cache banks + P/2 SPM -> global shared L2
//   PC : per-PE private L1 cache (1 bank)             -> per-tile L2
//   PS : per-PE private L1 SPM (1 bank), no L1 cache  -> per-tile L2
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "sim/cache.h"
#include "sim/config.h"
#include "sim/dram.h"
#include "sim/energy.h"
#include "sim/stats.h"

namespace cosparse::obs {
class Telemetry;
}  // namespace cosparse::obs

namespace cosparse::sim {

class MemProfiler;

class Machine {
 public:
  Machine(const SystemConfig& cfg, HwConfig initial);

  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  [[nodiscard]] HwConfig hw() const { return hw_; }
  [[nodiscard]] std::uint32_t num_pes() const { return cfg_.num_pes(); }
  [[nodiscard]] std::uint32_t num_tiles() const { return cfg_.num_tiles; }
  [[nodiscard]] std::uint32_t pes_per_tile() const {
    return cfg_.pes_per_tile;
  }
  [[nodiscard]] std::uint32_t tile_of(std::uint32_t pe) const {
    return pe / cfg_.pes_per_tile;
  }

  // ---- simulated address space ----
  /// Reserves a line-aligned range of the simulated physical address space.
  /// Stable across reconfigurations. The label names the region for the
  /// memory profiler ("matrix.elems", "vector.dense", ...); empty labels
  /// land in the profiler's "unlabeled" bucket.
  Addr alloc(std::size_t bytes, std::string_view label = "");

  struct AllocRecord {
    Addr base;
    std::size_t bytes;
    std::string label;
  };
  /// Every allocation made so far, in allocation order — the introspection
  /// hook behind AddressMap::for_each_region and the cosparse-lint
  /// address-map pass (regions are also replayed into late-attached
  /// profilers from this record).
  [[nodiscard]] const std::vector<AllocRecord>& allocations() const {
    return allocs_;
  }

  // ---- PE-side operations (called by kernels) ----
  /// Charges `cycles` of ALU/issue work to a PE.
  void compute(std::uint32_t pe, double cycles);

  /// Demand load/store of `bytes` at `addr` through the configured
  /// hierarchy; the PE stalls for the full latency (in-order MinorCPU-like
  /// cores with blocking memory ops).
  void mem_read(std::uint32_t pe, Addr addr, std::uint32_t bytes);
  void mem_write(std::uint32_t pe, Addr addr, std::uint32_t bytes);

  /// L1 scratchpad access. Legal only in SCS (per-tile shared SPM) and PS
  /// (per-PE private SPM); capacity policy is the kernel's job — the
  /// machine charges deterministic SPM latency.
  void spm_read(std::uint32_t pe, std::uint32_t bytes);
  void spm_write(std::uint32_t pe, std::uint32_t bytes);

  /// Capacity available to kernels for SPM placement under the current
  /// configuration (0 when L1 has no SPM personality).
  [[nodiscard]] std::size_t spm_bytes_per_tile() const;
  [[nodiscard]] std::size_t spm_bytes_per_pe() const;

  /// Bulk DMA of `bytes` at `src` into a tile's shared SPM (SCS vblock
  /// refill, paper Fig. 3 step 1). The fill streams *through the shared
  /// L2*: the first tile to fill a segment pulls it from DRAM, later tiles
  /// hit L2 — the same inter-tile sharing the SC path enjoys. Implies a
  /// tile barrier; all PEs of the tile resume after the fill.
  void spm_fill_tile(std::uint32_t tile, Addr src, std::size_t bytes);

  /// Bulk DMA traffic with no PE involvement (e.g. output-buffer
  /// initialization): consumes DRAM bandwidth (caught by the roofline) but
  /// stalls nobody.
  void dma_traffic(std::size_t bytes, bool write);

  /// Outer-product result element handed to the tile's LCP, which
  /// serializes `bytes` of writeback to main memory (paper Fig. 3 step 4).
  /// The issuing PE is charged one send cycle; LCP occupancy accumulates
  /// and is folded in at barriers.
  void lcp_emit(std::uint32_t pe, std::uint32_t bytes);

  // ---- synchronization ----
  void tile_barrier(std::uint32_t tile);
  void global_barrier();

  // ---- tile execution ----
  /// Runs fn(tile) for every tile in ascending order [0, num_tiles) on the
  /// calling thread, under the "sim.exec" profiler phase.
  void for_tiles(const std::function<void(std::uint32_t)>& fn);

  /// fn(tile, step) for every step in [0, steps) and tile, step-major: one
  /// for_tiles() pass per step, tiles ascending within it — the order the
  /// modeled caches must see. native::HostMachine runs the same calls
  /// tile-major (DESIGN.md §14).
  template <class Fn>
  void for_tile_steps(std::uint32_t steps, Fn&& fn) {
    for (std::uint32_t step = 0; step < steps; ++step) {
      for_tiles([&](std::uint32_t tile) { fn(tile, step); });
    }
  }

  /// Work units (elements, row-groups) a PE issues before yielding to the
  /// next PE of its tile. The simulator keeps the kernel's modeled burst so
  /// shared caches see the tile's concurrent working set.
  [[nodiscard]] static constexpr std::uint32_t pe_burst(
      std::uint32_t modeled) {
    return modeled;
  }

  // ---- reconfiguration (paper §III-D: LCP-triggered, <= 10 cycles) ----
  /// Global barrier, write-back flush of all dirty cache lines, the <= 10
  /// cycle mode switch, then the hierarchy is rebuilt cold in `next` mode.
  void reconfigure(HwConfig next);

  // ---- observability ----
  /// Attaches a trace sink; reconfigure() then records flush spans on the
  /// "machine" track. Pass nullptr (the default state) to detach — the
  /// only cost of detached tracing is one pointer test per event site.
  void set_trace(obs::Trace* trace) { trace_ = trace; }

  /// Attaches a region-attributed memory profiler (sim/profile.h). The
  /// machine rebinds it (MemProfiler::begin_machine) and replays every
  /// allocation made so far, so attaching after kernel setup still
  /// attributes correctly. Pass nullptr to detach; detached profiling costs
  /// one pointer test per event site.
  void set_profiler(MemProfiler* prof);
  [[nodiscard]] MemProfiler* profiler() const { return prof_; }

  /// Attaches a telemetry registry (obs/telemetry.h). Every for_tiles()
  /// call then observes its host wall time into the "sim.phase_ms"
  /// histogram. Wall time is host-side, so telemetry never perturbs
  /// simulated state. Pass nullptr to detach.
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }
  [[nodiscard]] obs::Telemetry* telemetry() const { return telemetry_; }

  // ---- results ----
  /// Elapsed cycles: max over PE/LCP clocks, floored by the DRAM bandwidth
  /// roofline (total bytes moved / peak bandwidth).
  [[nodiscard]] Cycles cycles() const;
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Per-tile breakdown of stats(). Every counter increment is attributed
  /// to exactly one tile, so the element-wise sum over tiles equals the
  /// global Stats (bit-exact for integer counters; cycle doubles agree up
  /// to summation order). Attribution rules: PE-side events go to the
  /// issuing PE's tile; tile-less DMA and shared-L2 flush traffic is split
  /// evenly across tiles (remainder to tile 0); whole-machine control
  /// events (global barriers, reconfigurations) land on tile 0.
  [[nodiscard]] const std::vector<Stats>& tile_stats() const {
    return tile_stats_;
  }
  /// Load-imbalance metric over tiles (paper Fig. 7): max per-tile busy
  /// cycles (compute + mem stall) divided by the mean. 1.0 = perfectly
  /// balanced; 0.0 when nothing ran yet.
  [[nodiscard]] double load_imbalance() const;
  /// Simulated total energy / average power under the default EnergyModel.
  [[nodiscard]] Picojoules energy_pj() const;
  [[nodiscard]] double watts() const;

 private:
  void rebuild_hierarchy();
  /// Shared-mode arbitration penalty for a level shared by `sharers`
  /// requesters over `banks` banks.
  [[nodiscard]] double arb_penalty(std::uint32_t sharers,
                                   std::uint32_t banks) const;
  // The access path below passes the issuing PE's tile (tile_of(pe)) down
  // from mem_read/mem_write, which compute it once per access.
  /// Routes one demand access; returns the latency charged to the PE.
  double route_access(std::uint32_t pe, std::uint32_t tile, Addr addr,
                      bool write);
  /// L2-level access (demand or traffic-only); returns demand latency.
  double access_l2(std::uint32_t pe, std::uint32_t tile, Addr addr,
                   bool write, bool demand);
  /// Timing/stats/profiler half of an L1 access whose array outcome is
  /// already known; propagates its fills and writebacks to L2 and returns
  /// the demand latency.
  double finish_l1(std::uint32_t pe, std::uint32_t tile, Addr addr,
                   double l1_latency, const CacheArray::Outcome& out);
  /// Timing/stats/profiler half of an L2 access with a known outcome.
  double finish_l2(std::uint32_t pe, std::uint32_t tile, Addr addr,
                   bool demand, const CacheArray::Outcome& out);
  /// Stall/issue cost applied to the issuing PE after routing an access.
  void apply_mem_latency(std::uint32_t pe, std::uint32_t tile, bool write,
                         double latency);

  /// Applies one mutation to the global stats and the owning tile's slice,
  /// keeping the two views additive by construction.
  template <class Fn>
  void bump(std::uint32_t tile, Fn&& fn) {
    fn(stats_);
    fn(tile_stats_[tile]);
  }
  /// Tile-less DRAM traffic split evenly across tiles (remainder to 0).
  /// `profile_bucket` names the profiler's synthetic region for the bytes;
  /// pass nullptr when the caller already attributed them (flush drains).
  void spread_traffic(std::uint64_t bytes, bool write,
                      const char* profile_bucket);

  SystemConfig cfg_;
  HwConfig hw_;
  Stats stats_;
  std::vector<Stats> tile_stats_;  ///< per tile; sums to stats_
  Dram dram_;
  EnergyModel energy_;
  obs::Trace* trace_ = nullptr;
  MemProfiler* prof_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;

  std::vector<AllocRecord> allocs_;  ///< replayed into late-attached profilers

  std::vector<double> pe_clock_;   ///< per global PE id
  std::vector<double> lcp_clock_;  ///< per tile

  // Hierarchy state (rebuilt on reconfigure()).
  std::vector<std::unique_ptr<CacheArray>> l1_tile_;  ///< SC/SCS: per tile
  std::vector<std::unique_ptr<CacheArray>> l1_pe_;    ///< PC: per PE
  std::unique_ptr<CacheArray> l2_global_;             ///< SC/SCS
  std::vector<std::unique_ptr<CacheArray>> l2_tile_;  ///< PC/PS: per tile
  // arb_penalty() of each shared level, fixed per hierarchy (same
  // expression, so the charged latencies are bit-identical).
  double l1_arb_ = 0.0;   ///< SC/SCS shared L1
  double l2_arb_ = 0.0;   ///< shared L2 (global or per tile)
  double spm_arb_ = 0.0;  ///< SCS shared SPM

  Addr next_addr_ = 0;
};

}  // namespace cosparse::sim
