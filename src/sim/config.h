// System configuration of the simulated reconfigurable hardware.
//
// Models the Transmuter-like substrate of the paper (Table II): an A x B
// system has A tiles with B processing elements (PEs) each; every PE/LCP is
// a 1 GHz in-order core; each level of the two-level on-chip memory is
// built from 4 kB reconfigurable banks (one L1 bank per PE, one L2 bank per
// PE) joined by reconfigurable crossbars. Each level can be configured as
// shared/private and (L1) as cache/scratchpad, giving the four
// configurations CoSPARSE uses (paper Fig. 2).
#pragma once

#include <cstdint>
#include <string>

#include "common/json.h"
#include "common/types.h"

namespace cosparse::sim {

/// The four memory-hierarchy configurations of paper Fig. 2.
enum class HwConfig : std::uint8_t {
  kSC,   ///< L1 shared cache,           L2 shared cache   (inner product)
  kSCS,  ///< L1 shared cache+SPM split,  L2 shared cache   (inner product)
  kPC,   ///< L1 private cache per PE,    L2 per-tile cache (outer product)
  kPS,   ///< L1 private SPM per PE,      L2 per-tile cache (outer product)
};

[[nodiscard]] const char* to_string(HwConfig c);
/// Parses "SC"/"SCS"/"PC"/"PS" (case-insensitive); throws on other input.
[[nodiscard]] HwConfig hw_config_from_string(const std::string& name);

/// True for the two inner-product configurations (shared memory).
[[nodiscard]] constexpr bool is_shared(HwConfig c) {
  return c == HwConfig::kSC || c == HwConfig::kSCS;
}
/// True when the L1 level contains scratchpad capacity.
[[nodiscard]] constexpr bool has_l1_spm(HwConfig c) {
  return c == HwConfig::kSCS || c == HwConfig::kPS;
}

struct SystemConfig {
  // ---- topology ----
  std::uint32_t num_tiles = 4;
  std::uint32_t pes_per_tile = 8;

  // ---- clocks ----
  double freq_ghz = 1.0;  ///< PE/LCP clock (Table II: 1.0 GHz)

  // ---- reconfigurable cache banks (Table II "RCache") ----
  std::uint32_t bank_bytes = 4096;   ///< 4 kB per bank
  std::uint32_t line_bytes = 64;     ///< 64 B blocks
  std::uint32_t associativity = 4;   ///< 4-way set associative
  std::uint32_t prefetch_depth = 4;  ///< stride prefetcher lookahead (lines)

  // ---- crossbar (Table II "RXBar") ----
  double xbar_latency = 1.0;  ///< cycles per traversal (1-cycle response)
  /// Average serialization charged per shared-mode access, expressed as a
  /// fraction of (sharers-1)/banks. Models "0 to (Nsrc-1) serialization
  /// latency depending upon number of conflicts" statistically; see
  /// sim/machine.h for the approximation note.
  double xbar_conflict_factor = 0.5;

  // ---- latency components (cycles) ----
  double l1_bank_latency = 1.0;
  double l2_bank_latency = 2.0;
  double spm_latency = 1.0;     ///< word-granular, software managed
  /// Software scratchpad management overhead per access (explicit address
  /// computation / bounds handling by the PE). This is what lets a private
  /// *cache* outperform a private SPM when the working set fits in L1
  /// (paper §III-C.3: "PC does not have SPM management overhead").
  double spm_mgmt_cycles = 0.5;
  double refill_overhead = 2.0; ///< MSHR/refill management per miss level

  // ---- main memory (Table II: 1 HBM2 stack) ----
  std::uint32_t dram_channels = 16;        ///< 64-bit pseudo-channels
  double dram_bytes_per_cycle_per_channel = 8.0;  ///< 8000 MB/s @ 1 GHz
  double dram_latency_min = 80.0;          ///< cycles (80 ns)
  double dram_latency_max = 150.0;         ///< cycles (150 ns)

  // ---- reconfiguration ----
  double reconfig_cycles = 10.0;  ///< paper §II-B: runtime switch <= 10 cyc

  // ---- LCP (local control processor) ----
  /// The tile's LCP serializes outer-product results: per merged element it
  /// polls/arbitrates the PEs' output queues, combines same-row partials
  /// and issues the writeback (paper Fig. 3 steps 3-4). The cost therefore
  /// has a fixed part plus a part that grows with the number of queues
  /// (PEs) it services — this serialization is why OP scales worse than IP
  /// as PEs/tile grows, the mechanism behind the falling crossover density
  /// of Fig. 4 (§III-C.1 takeaway).
  double lcp_base_cycles = 2.0;
  double lcp_cycles_per_pe = 0.5;

  [[nodiscard]] double lcp_cycles_per_element() const {
    return lcp_base_cycles + lcp_cycles_per_pe * pes_per_tile;
  }

  /// Transmuter-style A x B system with all Table II defaults.
  static SystemConfig transmuter(std::uint32_t tiles, std::uint32_t pes);

  // ---- derived quantities ----
  [[nodiscard]] std::uint32_t num_pes() const {
    return num_tiles * pes_per_tile;
  }
  /// L1 banks per tile (one per PE, paper §III-C.3).
  [[nodiscard]] std::uint32_t l1_banks_per_tile() const {
    return pes_per_tile;
  }
  /// L2 banks per tile (one per PE).
  [[nodiscard]] std::uint32_t l2_banks_per_tile() const {
    return pes_per_tile;
  }
  [[nodiscard]] std::size_t l1_bytes_per_tile() const {
    return static_cast<std::size_t>(l1_banks_per_tile()) * bank_bytes;
  }
  [[nodiscard]] std::size_t l2_bytes_total() const {
    return static_cast<std::size_t>(num_tiles) * l2_banks_per_tile() *
           bank_bytes;
  }
  /// SCS splits each tile's L1 banks evenly between SPM and cache.
  [[nodiscard]] std::size_t scs_spm_bytes_per_tile() const {
    return static_cast<std::size_t>(l1_banks_per_tile() / 2) * bank_bytes;
  }
  /// PS gives each PE its own L1 bank as private SPM.
  [[nodiscard]] std::size_t ps_spm_bytes_per_pe() const { return bank_bytes; }
  [[nodiscard]] double dram_peak_bytes_per_cycle() const {
    return dram_channels * dram_bytes_per_cycle_per_channel;
  }
  [[nodiscard]] std::string name() const;  ///< e.g. "16x16"
  /// Topology + memory/bandwidth parameters for run reports.
  [[nodiscard]] Json to_json() const;
};

}  // namespace cosparse::sim
