// A charge-free stand-in for sim::Machine (DESIGN.md §14).
//
// The SpMV kernels are templates over their machine type: handed a
// sim::Machine they are functional *and* timed; handed a HostMachine every
// timing call inlines to nothing and the compiler strips the address
// arithmetic feeding it, leaving exactly the functional loop — same
// operations, same order, same doubles. That shared-source construction is
// the native mode equivalence argument: there is no second kernel
// implementation to drift.
//
// Topology queries answer from the real SystemConfig so partition-shape
// checks and SPM-capacity branches take the same paths as under
// simulation (those branches select between charge calls, which are all
// no-ops here, so they cannot affect results — but taking the same path
// keeps control flow identical, which is what makes the equivalence easy
// to believe and cheap to audit).
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

#include "sim/config.h"
#include "sim/parallel.h"

namespace cosparse::native {

class HostMachine {
 public:
  /// `exec` is optional (nullptr = serial tile loop) and not owned.
  HostMachine(const sim::SystemConfig& cfg, sim::HwConfig hw,
              sim::ParallelExecutor* exec)
      : cfg_(&cfg), hw_(hw), exec_(exec) {}

  [[nodiscard]] const sim::SystemConfig& config() const { return *cfg_; }
  [[nodiscard]] sim::HwConfig hw() const { return hw_; }
  [[nodiscard]] std::uint32_t num_pes() const { return cfg_->num_pes(); }
  [[nodiscard]] std::uint32_t num_tiles() const { return cfg_->num_tiles; }
  [[nodiscard]] std::uint32_t pes_per_tile() const {
    return cfg_->pes_per_tile;
  }
  [[nodiscard]] std::uint32_t tile_of(std::uint32_t pe) const {
    return pe / cfg_->pes_per_tile;
  }

  // ---- timing surface: every charge is a no-op ----
  Addr alloc(std::size_t /*bytes*/, std::string_view /*label*/ = "") {
    return 0;
  }
  void compute(std::uint32_t /*pe*/, double /*cycles*/) {}
  void mem_read(std::uint32_t /*pe*/, Addr /*addr*/, std::uint32_t /*b*/) {}
  void mem_write(std::uint32_t /*pe*/, Addr /*addr*/, std::uint32_t /*b*/) {}
  void spm_read(std::uint32_t /*pe*/, std::uint32_t /*bytes*/) {}
  void spm_write(std::uint32_t /*pe*/, std::uint32_t /*bytes*/) {}
  void spm_fill_tile(std::uint32_t /*tile*/, Addr /*src*/,
                     std::size_t /*bytes*/) {}
  void dma_traffic(std::size_t /*bytes*/, bool /*write*/) {}
  void lcp_emit(std::uint32_t /*pe*/, std::uint32_t /*bytes*/) {}
  void tile_barrier(std::uint32_t /*tile*/) {}
  void global_barrier() {}
  void reconfigure(sim::HwConfig next) { hw_ = next; }

  /// Same capacity answers as the simulated machine under `hw` — the OP
  /// kernel's heap-placement branch and the SCS vblock sizing read these.
  [[nodiscard]] std::size_t spm_bytes_per_tile() const {
    return hw_ == sim::HwConfig::kSCS ? cfg_->scs_spm_bytes_per_tile() : 0;
  }
  [[nodiscard]] std::size_t spm_bytes_per_pe() const {
    return hw_ == sim::HwConfig::kPS ? cfg_->ps_spm_bytes_per_pe() : 0;
  }

  [[nodiscard]] sim::ParallelExecutor* executor() const { return exec_; }

  /// Tile bodies run concurrently when an executor is attached, serially
  /// otherwise. Kernel tile bodies only write tile/PE-exclusive output
  /// slots, so results are bit-identical for every thread count.
  template <class Fn>
  void for_tiles(Fn&& fn) {
    if (exec_ != nullptr) {
      exec_->run(cfg_->num_tiles, fn);
    } else {
      for (std::uint32_t t = 0; t < cfg_->num_tiles; ++t) fn(t);
    }
  }

  /// fn(tile, step) for every tile and step in [0, steps), tile-major: one
  /// task per tile, its steps ascending inside the task, so a multi-step
  /// kernel pays one executor dispatch instead of one per step. Legal
  /// because a tile's steps write only that tile's slots, in step order
  /// under either machine (sim::Machine runs the same calls step-major).
  template <class Fn>
  void for_tile_steps(std::uint32_t steps, Fn&& fn) {
    for_tiles([&](std::uint32_t tile) {
      for (std::uint32_t step = 0; step < steps; ++step) fn(tile, step);
    });
  }

  /// Host PEs run to completion: the round-robin bursts only shape the
  /// simulated caches' view of a tile's concurrent working set.
  [[nodiscard]] static constexpr std::uint32_t pe_burst(
      std::uint32_t /*modeled*/) {
    return std::numeric_limits<std::uint32_t>::max();
  }

 private:
  const sim::SystemConfig* cfg_;
  sim::HwConfig hw_;
  sim::ParallelExecutor* exec_;
};

/// Address-map stand-in: native kernels charge nothing, so host arrays
/// need no simulated placement. of() keeps the real AddressMap's shape
/// (callers still guard zero-sized regions) but performs no bookkeeping.
class NullAddressMap {
 public:
  Addr of(const void* /*host*/, std::size_t /*bytes*/,
          std::string_view /*label*/) {
    return 0;
  }
};

}  // namespace cosparse::native
