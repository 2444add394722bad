#include "sim/machine.h"

#include <algorithm>
#include <chrono>

#include "common/error.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "sim/profile.h"

namespace cosparse::sim {

Machine::Machine(const SystemConfig& cfg, HwConfig initial)
    : cfg_(cfg),
      hw_(initial),
      tile_stats_(cfg.num_tiles),
      dram_(cfg_),
      pe_clock_(cfg.num_pes(), 0.0),
      lcp_clock_(cfg.num_tiles, 0.0) {
  rebuild_hierarchy();
}

Addr Machine::alloc(std::size_t bytes, std::string_view label) {
  const Addr base = next_addr_;
  const Addr aligned =
      (bytes + kCacheLineBytes - 1) / kCacheLineBytes * kCacheLineBytes;
  // Pad with one guard line so distinct arrays never share a cache line.
  next_addr_ += aligned + kCacheLineBytes;
  allocs_.push_back(AllocRecord{base, bytes, std::string(label)});
  if (prof_ != nullptr) prof_->add_region(base, bytes, label);
  return base;
}

void Machine::set_profiler(MemProfiler* prof) {
  prof_ = prof;
  if (prof_ == nullptr) return;
  prof_->begin_machine(cfg_.num_tiles, cfg_.line_bytes, cfg_.dram_channels);
  for (const AllocRecord& a : allocs_) {
    prof_->add_region(a.base, a.bytes, a.label);
  }
}

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)  // cosparse-lint: allow(determinism)
      .count();
}

}  // namespace

void Machine::for_tiles(const std::function<void(std::uint32_t)>& fn) {
  const obs::PhaseScope phase("sim.exec");
  const auto t0 = std::chrono::steady_clock::now();  // cosparse-lint: allow(determinism)
  for (std::uint32_t t = 0; t < cfg_.num_tiles; ++t) fn(t);
  // Host wall time only: the simulated event stream is identical with or
  // without telemetry.
  if (telemetry_ != nullptr) {
    telemetry_->histogram("sim.phase_ms").observe(wall_ms_since(t0));
  }
}

void Machine::compute(std::uint32_t pe, double cycles) {
  pe_clock_[pe] += cycles;
  bump(tile_of(pe), [&](Stats& s) { s.pe_compute_cycles += cycles; });
}

void Machine::rebuild_hierarchy() {
  l1_tile_.clear();
  l1_pe_.clear();
  l2_global_.reset();
  l2_tile_.clear();

  const std::uint32_t T = cfg_.num_tiles;
  const std::uint32_t P = cfg_.pes_per_tile;

  switch (hw_) {
    case HwConfig::kSC:
      for (std::uint32_t t = 0; t < T; ++t) {
        l1_tile_.push_back(std::make_unique<CacheArray>(
            P, cfg_.bank_bytes, cfg_.line_bytes, cfg_.associativity,
            cfg_.prefetch_depth, /*requesters=*/P));
      }
      l2_global_ = std::make_unique<CacheArray>(
          T * P, cfg_.bank_bytes, cfg_.line_bytes, cfg_.associativity,
          cfg_.prefetch_depth, /*requesters=*/T * P);
      break;
    case HwConfig::kSCS:
      for (std::uint32_t t = 0; t < T; ++t) {
        l1_tile_.push_back(std::make_unique<CacheArray>(
            std::max(1u, P / 2), cfg_.bank_bytes, cfg_.line_bytes,
            cfg_.associativity, cfg_.prefetch_depth, /*requesters=*/P));
      }
      l2_global_ = std::make_unique<CacheArray>(
          T * P, cfg_.bank_bytes, cfg_.line_bytes, cfg_.associativity,
          cfg_.prefetch_depth, /*requesters=*/T * P);
      break;
    case HwConfig::kPC:
      for (std::uint32_t pe = 0; pe < T * P; ++pe) {
        l1_pe_.push_back(std::make_unique<CacheArray>(
            1, cfg_.bank_bytes, cfg_.line_bytes, cfg_.associativity,
            cfg_.prefetch_depth, /*requesters=*/1));
      }
      for (std::uint32_t t = 0; t < T; ++t) {
        l2_tile_.push_back(std::make_unique<CacheArray>(
            P, cfg_.bank_bytes, cfg_.line_bytes, cfg_.associativity,
            cfg_.prefetch_depth, /*requesters=*/P));
      }
      break;
    case HwConfig::kPS:
      // L1 is all-SPM; demand traffic goes straight to the per-tile L2.
      for (std::uint32_t t = 0; t < T; ++t) {
        l2_tile_.push_back(std::make_unique<CacheArray>(
            P, cfg_.bank_bytes, cfg_.line_bytes, cfg_.associativity,
            cfg_.prefetch_depth, /*requesters=*/P));
      }
      break;
  }

  l1_arb_ = l1_tile_.empty() ? 0.0 : arb_penalty(P, l1_tile_[0]->num_banks());
  l2_arb_ = l2_global_ ? arb_penalty(cfg_.num_pes(), l2_global_->num_banks())
                       : arb_penalty(P, l2_tile_[0]->num_banks());
  spm_arb_ = arb_penalty(P, P);
}

double Machine::arb_penalty(std::uint32_t sharers,
                            std::uint32_t banks) const {
  if (sharers <= 1) return 0.0;
  return cfg_.xbar_conflict_factor * static_cast<double>(sharers - 1) /
         static_cast<double>(banks);
}

double Machine::finish_l2(std::uint32_t pe, std::uint32_t tile, Addr addr,
                          bool demand, const CacheArray::Outcome& out) {
  double latency = cfg_.xbar_latency + l2_arb_ + cfg_.l2_bank_latency;
  bump(tile, [](Stats& s) { ++s.xbar_transfers; });
  if (prof_ != nullptr) prof_->xbar_transfer(tile, addr, l2_arb_);

  if (out.hit) {
    bump(tile, [](Stats& s) { ++s.l2_hits; });
  } else {
    bump(tile, [](Stats& s) { ++s.l2_misses; });
  }
  if (prof_ != nullptr) prof_->l2_access(tile, addr, out.hit);
  // Every fetched line (demand fill + prefetches) comes from DRAM.
  for (std::uint32_t i = 0; i < out.num_fetched; ++i) {
    const bool is_demand_fill = (i == 0 && !out.hit);
    if (is_demand_fill) {
      latency += cfg_.refill_overhead +
                 dram_.access(cfg_.line_bytes, /*write=*/false,
                              pe_clock_[pe] + latency, stats_,
                              &tile_stats_[tile]);
      if (prof_ != nullptr) {
        prof_->dram(tile, out.fetched_lines[i], cfg_.line_bytes,
                    /*write=*/false);
      }
    } else {
      dram_.traffic(cfg_.line_bytes, /*write=*/false, stats_,
                    &tile_stats_[tile]);
      bump(tile, [](Stats& s) { ++s.prefetch_lines; });
      if (prof_ != nullptr) {
        prof_->dram(tile, out.fetched_lines[i], cfg_.line_bytes,
                    /*write=*/false);
        prof_->prefetch_line(tile, out.fetched_lines[i]);
      }
    }
  }
  for (std::uint32_t i = 0; i < out.num_writebacks; ++i) {
    dram_.traffic(cfg_.line_bytes, /*write=*/true, stats_,
                  &tile_stats_[tile]);
    bump(tile, [](Stats& s) { ++s.writeback_lines; });
    if (prof_ != nullptr) {
      prof_->dram(tile, out.writeback_lines[i], cfg_.line_bytes,
                  /*write=*/true);
      prof_->l2_writeback(tile, out.writeback_lines[i]);
    }
  }
  return demand ? latency : 0.0;
}

double Machine::access_l2(std::uint32_t pe, std::uint32_t tile, Addr addr,
                          bool write, bool demand) {
  CacheArray* l2 = nullptr;
  std::uint32_t requester = 0;
  if (l2_global_) {
    l2 = l2_global_.get();
    requester = pe;
  } else {
    l2 = l2_tile_[tile].get();
    requester = pe - tile * cfg_.pes_per_tile;
  }
  const auto out = l2->access(requester, addr, write, /*low_priority=*/!demand);
  return finish_l2(pe, tile, addr, demand, out);
}

double Machine::finish_l1(std::uint32_t pe, std::uint32_t tile, Addr addr,
                          double l1_latency, const CacheArray::Outcome& out) {
  double latency = l1_latency;
  if (prof_ != nullptr) prof_->l1_access(tile, addr, out.hit);
  if (out.hit) {
    bump(tile, [](Stats& s) { ++s.l1_hits; });
  } else {
    bump(tile, [](Stats& s) { ++s.l1_misses; });
  }
  // Fetched lines first — the demand fill, when the access missed, is
  // fetched_lines[0] — then the dirty victims.
  for (std::uint32_t i = 0; i < out.num_fetched; ++i) {
    const Addr a = out.fetched_lines[i];
    if (i == 0 && !out.hit) {
      // The demand fill exposes the full next-level latency.
      latency += cfg_.refill_overhead +
                 access_l2(pe, tile, a, /*write=*/false, /*demand=*/true);
    } else {
      // Tagged/miss prefetches move lines without stalling the PE.
      access_l2(pe, tile, a, /*write=*/false, /*demand=*/false);
      bump(tile, [](Stats& s) { ++s.prefetch_lines; });
      if (prof_ != nullptr) prof_->prefetch_line(tile, a);
    }
  }
  for (std::uint32_t i = 0; i < out.num_writebacks; ++i) {
    // Dirty L1 victims drain into L2 (no PE stall).
    const Addr a = out.writeback_lines[i];
    access_l2(pe, tile, a, /*write=*/true, /*demand=*/false);
    bump(tile, [](Stats& s) { ++s.writeback_lines; });
    if (prof_ != nullptr) prof_->l1_writeback(tile, a);
  }
  return latency;
}

double Machine::route_access(std::uint32_t pe, std::uint32_t tile, Addr addr,
                             bool write) {
  if (prof_ != nullptr) prof_->reuse_sample(addr);

  // L1 hits are modeled as pipelined: a 1-issue in-order core with
  // software-pipelined kernels hides the load-to-use latency of hits, so a
  // hit costs one issue slot (plus shared-mode arbitration); only misses
  // expose the full hierarchy latency. Without this, per-element SpMV cost
  // lands ~3x above what MAC loops achieve on real in-order cores.
  CacheArray* l1 = nullptr;
  std::uint32_t requester = 0;
  double l1_latency = 0.0;
  if (!l1_tile_.empty()) {
    // Shared L1 within the tile (SC/SCS).
    l1 = l1_tile_[tile].get();
    requester = pe - tile * cfg_.pes_per_tile;
    l1_latency = 1.0 + l1_arb_;
    bump(tile, [](Stats& s) { ++s.xbar_transfers; });
    if (prof_ != nullptr) prof_->xbar_transfer(tile, addr, l1_arb_);
  } else if (!l1_pe_.empty()) {
    // Private L1 (PC): transparent crossbar, direct access.
    l1 = l1_pe_[pe].get();
    requester = 0;
    l1_latency = 1.0;
  } else {
    // PS: no L1 cache — straight to the per-tile L2.
    return access_l2(pe, tile, addr, write, /*demand=*/true);
  }

  const auto out = l1->access(requester, addr, write);
  return finish_l1(pe, tile, addr, l1_latency, out);
}

void Machine::apply_mem_latency(std::uint32_t pe, std::uint32_t tile,
                                bool write, double latency) {
  if (write) {
    // Stores drain through a store buffer: the PE spends one issue slot and
    // does not wait for the (write-allocate) fill — cache state and traffic
    // are still updated, and sustained store misses are bounded by the DRAM
    // roofline rather than per-store latency.
    pe_clock_[pe] += 1.0;
    bump(tile, [](Stats& s) { s.pe_mem_stall_cycles += 1.0; });
  } else {
    pe_clock_[pe] += latency;
    bump(tile, [&](Stats& s) { s.pe_mem_stall_cycles += latency; });
  }
}

void Machine::mem_read(std::uint32_t pe, Addr addr, std::uint32_t bytes) {
  (void)bytes;  // sub-line accesses cost one hierarchy round trip
  const std::uint32_t tile = tile_of(pe);
  const double latency = route_access(pe, tile, addr, /*write=*/false);
  apply_mem_latency(pe, tile, /*write=*/false, latency);
}

void Machine::mem_write(std::uint32_t pe, Addr addr, std::uint32_t bytes) {
  (void)bytes;
  const std::uint32_t tile = tile_of(pe);
  const double latency = route_access(pe, tile, addr, /*write=*/true);
  apply_mem_latency(pe, tile, /*write=*/true, latency);
}

std::size_t Machine::spm_bytes_per_tile() const {
  return hw_ == HwConfig::kSCS ? cfg_.scs_spm_bytes_per_tile() : 0;
}

std::size_t Machine::spm_bytes_per_pe() const {
  return hw_ == HwConfig::kPS ? cfg_.ps_spm_bytes_per_pe() : 0;
}

void Machine::spm_read(std::uint32_t pe, std::uint32_t /*bytes*/) {
  COSPARSE_CHECK_MSG(has_l1_spm(hw_), "SPM access in a cache-only config");
  double latency = cfg_.spm_latency + cfg_.spm_mgmt_cycles;
  if (hw_ == HwConfig::kSCS) {
    // Shared SPM arbitration: the SCS split is by capacity, so all of the
    // tile's word-granular banks still serve SPM requests.
    latency += spm_arb_;
  }
  const std::uint32_t tile = tile_of(pe);
  pe_clock_[pe] += latency;
  bump(tile, [&](Stats& s) {
    s.pe_mem_stall_cycles += latency;
    ++s.spm_accesses;
  });
  if (prof_ != nullptr) prof_->spm_access(tile);
}

void Machine::spm_write(std::uint32_t pe, std::uint32_t bytes) {
  spm_read(pe, bytes);  // symmetric cost
}

void Machine::spm_fill_tile(std::uint32_t tile, Addr src, std::size_t bytes) {
  COSPARSE_CHECK_MSG(hw_ == HwConfig::kSCS,
                     "tile SPM fill is only meaningful in SCS");
  tile_barrier(tile);
  // Stream the segment line by line through the (shared) L2 so a segment
  // already pulled by another tile costs L2 bandwidth, not DRAM bandwidth.
  const std::uint32_t pe0 = tile * cfg_.pes_per_tile;
  const std::uint64_t l2_hits_before = stats_.l2_hits;
  std::uint64_t lines = 0;
  for (Addr a = src; a < src + bytes; a += cfg_.line_bytes, ++lines) {
    access_l2(pe0, tile, a, /*write=*/false, /*demand=*/false);
  }
  const std::uint64_t from_l2 = stats_.l2_hits - l2_hits_before;
  const std::uint64_t from_dram = lines - std::min(lines, from_l2);
  // DMA timing: DRAM-sourced lines move at the tile's share of DRAM
  // bandwidth; L2-sourced lines at L2 bank bandwidth.
  const double tile_share =
      cfg_.dram_peak_bytes_per_cycle() / static_cast<double>(cfg_.num_tiles);
  const double fill_cycles =
      cfg_.dram_latency_min +
      static_cast<double>(from_dram) * cfg_.line_bytes / tile_share +
      static_cast<double>(from_l2) * 2.0;
  const std::uint32_t base = tile * cfg_.pes_per_tile;
  for (std::uint32_t p = 0; p < cfg_.pes_per_tile; ++p) {
    pe_clock_[base + p] += fill_cycles;
  }
  lcp_clock_[tile] += fill_cycles;
  bump(tile, [&](Stats& s) {
    s.pe_mem_stall_cycles +=
        fill_cycles * static_cast<double>(cfg_.pes_per_tile);
  });
}

void Machine::spread_traffic(std::uint64_t bytes, bool write,
                             const char* profile_bucket) {
  // Tile-less machine-wide streams: split the byte attribution evenly so
  // per-tile slices still sum exactly to the global counters (the DRAM
  // model sees the same total either way).
  const std::uint64_t T = cfg_.num_tiles;
  const std::uint64_t share = bytes / T;
  const std::uint64_t remainder = bytes - share * T;
  for (std::uint32_t t = 0; t < cfg_.num_tiles; ++t) {
    const std::uint64_t mine = share + (t == 0 ? remainder : 0);
    if (mine == 0) continue;
    dram_.traffic(mine, write, stats_, &tile_stats_[t]);
    if (prof_ != nullptr && profile_bucket != nullptr) {
      prof_->dram_bulk(t, mine, write, profile_bucket);
    }
  }
}

void Machine::dma_traffic(std::size_t bytes, bool write) {
  spread_traffic(bytes, write, "dma");
}

void Machine::lcp_emit(std::uint32_t pe, std::uint32_t bytes) {
  const std::uint32_t tile = tile_of(pe);
  // The PE spends one cycle handing the element off.
  pe_clock_[pe] += 1.0;
  bump(tile, [](Stats& s) {
    s.pe_compute_cycles += 1.0;
    ++s.lcp_elements;
  });
  // The LCP serializes handling + writeback of the element.
  lcp_clock_[tile] += cfg_.lcp_cycles_per_element();
  dram_.traffic(bytes, /*write=*/true, stats_, &tile_stats_[tile]);
  if (prof_ != nullptr) {
    prof_->dram_bulk(tile, bytes, /*write=*/true, "lcp.writeback");
  }
}

void Machine::tile_barrier(std::uint32_t tile) {
  const std::uint32_t base = tile * cfg_.pes_per_tile;
  double mx = lcp_clock_[tile];
  for (std::uint32_t p = 0; p < cfg_.pes_per_tile; ++p) {
    mx = std::max(mx, pe_clock_[base + p]);
  }
  for (std::uint32_t p = 0; p < cfg_.pes_per_tile; ++p) {
    pe_clock_[base + p] = mx;
  }
  lcp_clock_[tile] = mx;
  bump(tile, [](Stats& s) { ++s.barriers; });
}

void Machine::global_barrier() {
  double mx = 0.0;
  for (double c : pe_clock_) mx = std::max(mx, c);
  for (double c : lcp_clock_) mx = std::max(mx, c);
  std::fill(pe_clock_.begin(), pe_clock_.end(), mx);
  std::fill(lcp_clock_.begin(), lcp_clock_.end(), mx);
  // Whole-machine control events are attributed to tile 0 (see tile_stats()).
  bump(0, [](Stats& s) { ++s.barriers; });
}

void Machine::reconfigure(HwConfig next) {
  global_barrier();
  // Write back all dirty lines; banks drain in parallel, bounded by DRAM
  // bandwidth. Dirty lines are attributed to the tile owning the flushed
  // structure; the shared L2's flush is split evenly (remainder to 0).
  // When a profiler is attached, every flushed dirty line is attributed to
  // its region individually (count + line_bytes of DRAM writeback per line,
  // matching the aggregate Stats exactly); spread_traffic then skips the
  // profiler (nullptr bucket) to avoid double attribution.
  std::vector<Addr> dirty_addrs;
  std::vector<Addr>* collect = prof_ != nullptr ? &dirty_addrs : nullptr;
  const auto drain = [&](std::uint32_t tile) {
    if (prof_ == nullptr) return;
    for (Addr a : dirty_addrs) prof_->flushed_line(tile, a);
    dirty_addrs.clear();
  };
  std::uint64_t dirty = 0;
  for (std::uint32_t t = 0; t < static_cast<std::uint32_t>(l1_tile_.size());
       ++t) {
    const std::uint64_t d = l1_tile_[t]->flush(collect);
    dirty += d;
    bump(t, [&](Stats& s) { s.flushed_dirty_lines += d; });
    drain(t);
  }
  for (std::uint32_t pe = 0; pe < static_cast<std::uint32_t>(l1_pe_.size());
       ++pe) {
    const std::uint64_t d = l1_pe_[pe]->flush(collect);
    dirty += d;
    bump(tile_of(pe), [&](Stats& s) { s.flushed_dirty_lines += d; });
    drain(tile_of(pe));
  }
  if (l2_global_) {
    const std::uint64_t d = l2_global_->flush(collect);
    dirty += d;
    stats_.flushed_dirty_lines += d;
    const std::uint64_t share = d / cfg_.num_tiles;
    const std::uint64_t remainder = d - share * cfg_.num_tiles;
    for (std::uint32_t t = 0; t < cfg_.num_tiles; ++t) {
      tile_stats_[t].flushed_dirty_lines += share + (t == 0 ? remainder : 0);
    }
    // Shared-L2 lines belong to no single tile; round-robin mirrors the
    // even split of the Stats attribution.
    if (prof_ != nullptr) {
      for (std::size_t i = 0; i < dirty_addrs.size(); ++i) {
        prof_->flushed_line(static_cast<std::uint32_t>(i % cfg_.num_tiles),
                            dirty_addrs[i]);
      }
      dirty_addrs.clear();
    }
  }
  for (std::uint32_t t = 0; t < static_cast<std::uint32_t>(l2_tile_.size());
       ++t) {
    const std::uint64_t d = l2_tile_[t]->flush(collect);
    dirty += d;
    bump(t, [&](Stats& s) { s.flushed_dirty_lines += d; });
    drain(t);
  }
  const std::uint64_t flush_bytes = dirty * cfg_.line_bytes;
  spread_traffic(flush_bytes, /*write=*/true, /*profile_bucket=*/nullptr);
  const double flush_cycles =
      dirty == 0 ? 0.0
                 : cfg_.dram_latency_min +
                       static_cast<double>(flush_bytes) /
                           cfg_.dram_peak_bytes_per_cycle();
  const double penalty = flush_cycles + cfg_.reconfig_cycles;
  for (double& c : pe_clock_) c += penalty;
  for (double& c : lcp_clock_) c += penalty;
  hw_ = next;
  rebuild_hierarchy();
  bump(0, [](Stats& s) { ++s.reconfigurations; });
}

Cycles Machine::cycles() const {
  double mx = 0.0;
  for (double c : pe_clock_) mx = std::max(mx, c);
  for (double c : lcp_clock_) mx = std::max(mx, c);
  mx = std::max(mx, dram_.bandwidth_floor_cycles());
  return static_cast<Cycles>(mx);
}

double Machine::load_imbalance() const {
  double total = 0.0;
  double mx = 0.0;
  for (const Stats& t : tile_stats_) {
    const double busy = t.pe_compute_cycles + t.pe_mem_stall_cycles;
    total += busy;
    mx = std::max(mx, busy);
  }
  if (total <= 0.0) return 0.0;
  const double mean = total / static_cast<double>(tile_stats_.size());
  return mx / mean;
}

Picojoules Machine::energy_pj() const {
  return energy_.total(cfg_, stats_, cycles());
}

double Machine::watts() const { return energy_.watts(cfg_, stats_, cycles()); }

}  // namespace cosparse::sim
