// Event counters collected while simulating a kernel.
//
// The energy model (sim/energy.h) converts these counts to picojoules; the
// benchmark harness prints selected counters (hit rates, DRAM traffic) to
// explain the shapes of the reproduced figures, and the observability layer
// (src/obs) exports them into machine-readable run reports and telemetry.
//
// Counter *names* have a single source of truth: the field list in
// stats.cpp. print(), to_json() and for_each_counter() all derive from it,
// so a counter appears under the same name in text tables and JSON reports.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string_view>

#include "common/json.h"
#include "common/types.h"

namespace cosparse::sim {

struct Stats {
  // PE activity
  double pe_compute_cycles = 0;  ///< ALU/issue cycles across all PEs
  double pe_mem_stall_cycles = 0;

  // L1 level
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t spm_accesses = 0;

  // L2 level
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;

  // traffic
  std::uint64_t dram_read_bytes = 0;
  std::uint64_t dram_write_bytes = 0;
  std::uint64_t prefetch_lines = 0;
  std::uint64_t writeback_lines = 0;

  // crossbar traversals (shared-mode arbitrated transfers)
  std::uint64_t xbar_transfers = 0;

  // control
  std::uint64_t lcp_elements = 0;
  std::uint64_t barriers = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t flushed_dirty_lines = 0;

  [[nodiscard]] std::uint64_t l1_accesses() const { return l1_hits + l1_misses; }
  [[nodiscard]] std::uint64_t l2_accesses() const { return l2_hits + l2_misses; }
  [[nodiscard]] double l1_hit_rate() const {
    const auto a = l1_accesses();
    return a == 0 ? 0.0 : static_cast<double>(l1_hits) / static_cast<double>(a);
  }
  [[nodiscard]] double l2_hit_rate() const {
    const auto a = l2_accesses();
    return a == 0 ? 0.0 : static_cast<double>(l2_hits) / static_cast<double>(a);
  }
  [[nodiscard]] std::uint64_t dram_bytes() const {
    return dram_read_bytes + dram_write_bytes;
  }

  /// Visits every raw counter as (name, value-as-double) in the canonical
  /// order. The names are the ones print()/to_json() emit.
  void for_each_counter(
      const std::function<void(std::string_view, double)>& fn) const;

  /// Raw counters only (no derived rates), as an ordered JSON object.
  /// Integer counters stay exact. Key names match for_each_counter().
  [[nodiscard]] Json to_json() const;

  /// Derived rates/aggregates (l1_hit_rate, l2_hit_rate, dram_bytes) — kept
  /// out of to_json() so per-tile stats sum exactly to the global object.
  [[nodiscard]] Json derived_json() const;

  Stats& operator+=(const Stats& o);
  friend Stats operator-(Stats a, const Stats& b);

  void print(std::ostream& os) const;
};

}  // namespace cosparse::sim
