#include "sim/stats.h"

#include <ostream>

namespace cosparse::sim {
namespace {

/// The canonical field list. Every name-dependent view of Stats
/// (operator+=, operator-, print, to_json, for_each_counter) is derived
/// from this single visitation, so counter naming cannot drift between
/// text tables and JSON reports.
template <class A, class B, class Fn>
void visit_fields(A& a, B& b, Fn&& fn) {
  fn("pe_compute_cycles", a.pe_compute_cycles, b.pe_compute_cycles);
  fn("pe_mem_stall_cycles", a.pe_mem_stall_cycles, b.pe_mem_stall_cycles);
  fn("l1_hits", a.l1_hits, b.l1_hits);
  fn("l1_misses", a.l1_misses, b.l1_misses);
  fn("spm_accesses", a.spm_accesses, b.spm_accesses);
  fn("l2_hits", a.l2_hits, b.l2_hits);
  fn("l2_misses", a.l2_misses, b.l2_misses);
  fn("dram_read_bytes", a.dram_read_bytes, b.dram_read_bytes);
  fn("dram_write_bytes", a.dram_write_bytes, b.dram_write_bytes);
  fn("prefetch_lines", a.prefetch_lines, b.prefetch_lines);
  fn("writeback_lines", a.writeback_lines, b.writeback_lines);
  fn("xbar_transfers", a.xbar_transfers, b.xbar_transfers);
  fn("lcp_elements", a.lcp_elements, b.lcp_elements);
  fn("barriers", a.barriers, b.barriers);
  fn("reconfigurations", a.reconfigurations, b.reconfigurations);
  fn("flushed_dirty_lines", a.flushed_dirty_lines, b.flushed_dirty_lines);
}

}  // namespace

Stats& Stats::operator+=(const Stats& o) {
  visit_fields(*this, o, [](std::string_view, auto& a, const auto& b) {
    a += b;
  });
  return *this;
}

Stats operator-(Stats a, const Stats& b) {
  visit_fields(a, b, [](std::string_view, auto& x, const auto& y) {
    x -= y;
  });
  return a;
}

void Stats::for_each_counter(
    const std::function<void(std::string_view, double)>& fn) const {
  visit_fields(*this, *this,
               [&](std::string_view name, const auto& v, const auto&) {
                 fn(name, static_cast<double>(v));
               });
}

Json Stats::to_json() const {
  Json o = Json::object();
  visit_fields(*this, *this,
               [&](std::string_view name, const auto& v, const auto&) {
                 o[name] = v;
               });
  return o;
}

Json Stats::derived_json() const {
  Json o = Json::object();
  o["l1_hit_rate"] = l1_hit_rate();
  o["l2_hit_rate"] = l2_hit_rate();
  o["dram_bytes"] = dram_bytes();
  return o;
}

void Stats::print(std::ostream& os) const {
  // One `name = value` line per raw counter (canonical names), then the
  // derived hit-rate/traffic summary the benches quote.
  visit_fields(*this, *this,
               [&](std::string_view name, const auto& v, const auto&) {
                 os << name << " = " << v << "\n";
               });
  os << "L1 hit rate " << l1_hit_rate() * 100.0 << "%, L2 hit rate "
     << l2_hit_rate() * 100.0 << "%, DRAM " << dram_bytes()
     << " B total\n";
}

}  // namespace cosparse::sim
