#include "cosparse_prof.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/table.h"
#include "obs/flame.h"
#include "obs/histogram.h"
#include "obs/report.h"

namespace cosparse::tools {

namespace {

/// Looks up a dotted path ("totals.cycles"); nullptr when absent.
const Json* find_path(const Json& doc, const std::string& path) {
  const Json* cur = &doc;
  std::size_t pos = 0;
  while (pos < path.size()) {
    const std::size_t dot = path.find('.', pos);
    const std::string key =
        path.substr(pos, dot == std::string::npos ? dot : dot - pos);
    if (!cur->is_object()) return nullptr;
    cur = cur->find(key);
    if (cur == nullptr) return nullptr;
    if (dot == std::string::npos) break;
    pos = dot + 1;
  }
  return cur;
}

double number_at(const Json& doc, const std::string& path, bool* found) {
  const Json* v = find_path(doc, path);
  if (v == nullptr || !v->is_number()) {
    *found = false;
    return 0.0;
  }
  *found = true;
  return v->as_double();
}

void add_metric(DiffResult& out, const std::string& name, const Json& a,
                const Json& b, const std::string& path, bool gated,
                const DiffOptions& opts) {
  bool fa = false;
  bool fb = false;
  const double va = number_at(a, path, &fa);
  const double vb = number_at(b, path, &fb);
  if (!fa || !fb) return;  // not comparable across these two reports
  DiffRow row;
  row.metric = name;
  row.baseline = va;
  row.candidate = vb;
  if (va == 0.0) {
    row.rel_change = vb == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  } else {
    row.rel_change = (vb - va) / va;
  }
  row.gated = gated;
  row.regressed = gated && row.rel_change > opts.max_regress;
  out.regressed = out.regressed || row.regressed;
  out.rows.push_back(std::move(row));
}

std::string fmt_count(double v) {
  std::ostringstream os;
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    os << static_cast<std::int64_t>(v);
  } else {
    os << Table::fmt(v);
  }
  return os.str();
}

std::string fmt_rel(double rel) {
  if (std::isinf(rel)) return "new";
  std::string out = rel >= 0 ? "+" : "";
  out += Table::fmt(rel * 100.0, 2);
  out += '%';
  return out;
}

/// DRAM read+write bytes of a stats-shaped object (absent => not found).
double dram_bytes_of(const Json& doc, const std::string& prefix, bool* found) {
  bool fr = false;
  bool fw = false;
  const double r = number_at(doc, prefix + ".dram_read_bytes", &fr);
  const double w = number_at(doc, prefix + ".dram_write_bytes", &fw);
  *found = fr && fw;
  return r + w;
}

/// True when the report came from a native-mode run: such reports carry no
/// cycle/energy/memory sections by design, and summarize/diff annotate
/// that instead of silently printing nothing. Engine reports stamp
/// config.engine.exec_mode; bench harness reports stamp host.exec_mode.
bool is_native_report(const Json& doc) {
  for (const char* path : {"config.engine.exec_mode", "host.exec_mode"}) {
    const Json* v = find_path(doc, path);
    if (v != nullptr && v->is_string() && v->as_string() == "native") {
      return true;
    }
  }
  return false;
}

}  // namespace

double parse_regress_limit(const std::string& text) {
  COSPARSE_REQUIRE(!text.empty(), "--max-regress: empty value");
  std::string t = text;
  bool percent = true;
  if (t.back() == '%') {
    t.pop_back();
  } else if (t.back() == 'x') {
    // "0.05x" form: already a fraction.
    t.pop_back();
    percent = false;
  }
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(t, &used);
  } catch (const std::exception&) {
    throw Error("--max-regress: cannot parse \"" + text + "\"");
  }
  COSPARSE_REQUIRE(used == t.size(),
                   "--max-regress: trailing characters in \"" + text + "\"");
  COSPARSE_REQUIRE(v >= 0.0, "--max-regress: negative limit");
  return percent ? v / 100.0 : v;
}

DiffResult diff_reports(const Json& baseline, const Json& candidate,
                        const DiffOptions& opts) {
  DiffResult out;
  // Gated metrics: the performance envelope a change must not degrade.
  add_metric(out, "cycles", baseline, candidate, "totals.cycles",
             /*gated=*/true, opts);
  add_metric(out, "l1_misses", baseline, candidate, "stats.l1_misses",
             /*gated=*/true, opts);
  add_metric(out, "l2_misses", baseline, candidate, "stats.l2_misses",
             /*gated=*/true, opts);
  {
    bool fa = false;
    bool fb = false;
    const double va = dram_bytes_of(baseline, "stats", &fa);
    const double vb = dram_bytes_of(candidate, "stats", &fb);
    if (fa && fb) {
      DiffRow row;
      row.metric = "dram_bytes";
      row.baseline = va;
      row.candidate = vb;
      row.rel_change =
          va == 0.0
              ? (vb == 0.0 ? 0.0 : std::numeric_limits<double>::infinity())
              : (vb - va) / va;
      row.gated = true;
      row.regressed = row.rel_change > opts.max_regress;
      out.regressed = out.regressed || row.regressed;
      out.rows.push_back(std::move(row));
    }
  }
  // Informational metrics.
  add_metric(out, "energy_pj", baseline, candidate, "totals.energy_pj",
             /*gated=*/false, opts);
  add_metric(out, "flushed_dirty_lines", baseline, candidate,
             "stats.flushed_dirty_lines", /*gated=*/false, opts);
  // Per-region miss deltas (only regions present in both reports). Region
  // labels contain dots ("matrix.elems"), so navigate the objects directly
  // instead of going through the dotted-path helper.
  const Json* ra = find_path(baseline, "memory_profile.regions");
  const Json* rb = find_path(candidate, "memory_profile.regions");
  if (ra != nullptr && rb != nullptr && ra->is_object() && rb->is_object()) {
    const auto counter_of = [](const Json& region, const char* counter,
                               bool* found) {
      const Json* counters = region.find("counters");
      const Json* v =
          counters == nullptr ? nullptr : counters->find(counter);
      if (v == nullptr || !v->is_number()) {
        *found = false;
        return 0.0;
      }
      *found = true;
      return v->as_double();
    };
    for (const auto& [label, region_a] : ra->members()) {
      const Json* region_b = rb->find(label);
      if (region_b == nullptr) continue;
      for (const char* counter : {"l1_misses", "l2_misses"}) {
        bool fa = false;
        bool fb = false;
        const double va = counter_of(region_a, counter, &fa);
        const double vb = counter_of(*region_b, counter, &fb);
        if (!fa || !fb) continue;
        DiffRow row;
        row.metric = "region:" + label + "." + counter;
        row.baseline = va;
        row.candidate = vb;
        row.rel_change =
            va == 0.0
                ? (vb == 0.0 ? 0.0 : std::numeric_limits<double>::infinity())
                : (vb - va) / va;
        out.rows.push_back(std::move(row));
      }
    }
  }
  return out;
}

void print_diff(std::ostream& os, const DiffResult& result,
                const DiffOptions& opts) {
  Table t({"metric", "baseline", "candidate", "change", "gate"});
  for (const DiffRow& row : result.rows) {
    t.add_row({row.metric, fmt_count(row.baseline), fmt_count(row.candidate),
               fmt_rel(row.rel_change),
               row.regressed ? "REGRESSED" : (row.gated ? "ok" : "-")});
  }
  t.print(os);
  if (result.regressed) {
    os << "FAIL: gated metric regressed beyond "
       << Table::fmt(opts.max_regress * 100.0, 2) << "%\n";
  } else {
    os << "OK: no gated metric regressed beyond "
       << Table::fmt(opts.max_regress * 100.0, 2) << "%\n";
  }
}

void summarize_report(std::ostream& os, const Json& doc,
                      const std::string& name) {
  os << "=== " << name << " ===\n";
  if (const Json* tool = doc.find("tool"); tool != nullptr) {
    os << "tool: " << tool->as_string();
    bool found = false;
    const double cycles = number_at(doc, "totals.cycles", &found);
    if (found) os << "   cycles: " << fmt_count(cycles);
    const double energy = number_at(doc, "totals.energy_pj", &found);
    if (found) os << "   energy_pj: " << fmt_count(energy);
    if (const Json* seed = find_path(doc, "config.seed"); seed != nullptr) {
      os << "   seed: " << seed->as_int();
    }
    os << "\n";
  }
  if (is_native_report(doc)) {
    os << "(native mode: no cycle model)\n";
    if (const Json* nat = doc.find("native");
        nat != nullptr && nat->is_object()) {
      bool f = false;
      os << "native: pull_iterations="
         << fmt_count(number_at(doc, "native.pull_iterations", &f))
         << " push_iterations="
         << fmt_count(number_at(doc, "native.push_iterations", &f));
      if (const Json* simd = nat->find("simd"); simd != nullptr) {
        os << " simd=" << simd->as_string();
      }
      os << "\n";
    }
  }
  if (const Json* cpu = doc.find("cpu_profile");
      cpu != nullptr && cpu->is_object()) {
    bool f = false;
    const double kept = number_at(*cpu, "samples", &f);
    const double dropped = number_at(*cpu, "dropped_samples", &f);
    os << "cpu profile: samples=" << fmt_count(kept)
       << " dropped_samples=" << fmt_count(dropped)
       << " threads=" << fmt_count(number_at(*cpu, "threads", &f)) << "\n";
    if (20.0 * dropped > kept + dropped) {
      os << "warning: " << Table::fmt_pct(dropped / (kept + dropped))
         << " of CPU-profile samples were dropped (> 5%); phase shares "
            "cover kept samples only\n";
    }
  }

  // Per-tile busy cycles: the same compute + memory-stall sum that
  // Machine::load_imbalance takes its max/mean over (paper Fig. 7).
  if (const Json* tiles = doc.find("tile_stats");
      tiles != nullptr && tiles->is_array() && !tiles->items().empty()) {
    std::vector<double> busy;
    for (const Json& t : tiles->items()) {
      bool f = false;
      busy.push_back(number_at(t, "pe_compute_cycles", &f) +
                     number_at(t, "pe_mem_stall_cycles", &f));
    }
    const double busiest = *std::max_element(busy.begin(), busy.end());
    bool f = false;
    os << "\ntile load (load_imbalance="
       << Table::fmt(number_at(doc, "derived.load_imbalance", &f), 4)
       << "):\n";
    Table t({"tile", "busy_cycles", "of_busiest"});
    for (std::size_t i = 0; i < busy.size(); ++i) {
      t.add_row({std::to_string(i), fmt_count(busy[i]),
                 busiest > 0 ? Table::fmt_pct(busy[i] / busiest) : "-"});
    }
    t.print(os);
  }

  if (const Json* regions = find_path(doc, "memory_profile.regions");
      regions != nullptr && regions->is_object()) {
    os << "\nmemory profile (per region):\n";
    Table t({"region", "l1_hits", "l1_misses", "l1_hit%", "l2_hits",
             "l2_misses", "dram_rd_B", "dram_wr_B", "row_hit%"});
    for (const auto& [label, entry] : regions->members()) {
      bool f = false;
      const double l1h = number_at(entry, "counters.l1_hits", &f);
      const double l1m = number_at(entry, "counters.l1_misses", &f);
      const double l2h = number_at(entry, "counters.l2_hits", &f);
      const double l2m = number_at(entry, "counters.l2_misses", &f);
      const double rdb = number_at(entry, "counters.dram_read_bytes", &f);
      const double wrb = number_at(entry, "counters.dram_write_bytes", &f);
      const double rh = number_at(entry, "counters.dram_row_hits", &f);
      const double rm = number_at(entry, "counters.dram_row_misses", &f);
      t.add_row({label, fmt_count(l1h), fmt_count(l1m),
                 l1h + l1m > 0 ? Table::fmt_pct(l1h / (l1h + l1m)) : "-",
                 fmt_count(l2h), fmt_count(l2m), fmt_count(rdb),
                 fmt_count(wrb),
                 rh + rm > 0 ? Table::fmt_pct(rh / (rh + rm)) : "-"});
    }
    t.print(os);

    // Per-tile view: every region's counters summed per tile.
    std::vector<double> tile_l1m;
    std::vector<double> tile_l2m;
    std::vector<double> tile_dram;
    for (const auto& [label, entry] : regions->members()) {
      (void)label;
      const Json* per_tile = entry.find("per_tile");
      if (per_tile == nullptr || !per_tile->is_array()) continue;
      const auto& tiles = per_tile->items();
      if (tile_l1m.size() < tiles.size()) {
        tile_l1m.resize(tiles.size(), 0.0);
        tile_l2m.resize(tiles.size(), 0.0);
        tile_dram.resize(tiles.size(), 0.0);
      }
      for (std::size_t i = 0; i < tiles.size(); ++i) {
        bool f = false;
        tile_l1m[i] += number_at(tiles[i], "l1_misses", &f);
        tile_l2m[i] += number_at(tiles[i], "l2_misses", &f);
        tile_dram[i] += number_at(tiles[i], "dram_read_bytes", &f) +
                        number_at(tiles[i], "dram_write_bytes", &f);
      }
    }
    if (!tile_l1m.empty()) {
      os << "\nmemory profile (per tile, all regions):\n";
      Table tt({"tile", "l1_misses", "l2_misses", "dram_B"});
      for (std::size_t i = 0; i < tile_l1m.size(); ++i) {
        tt.add_row({std::to_string(i), fmt_count(tile_l1m[i]),
                    fmt_count(tile_l2m[i]), fmt_count(tile_dram[i])});
      }
      tt.print(os);
    }
  }

  if (const Json* audit = find_path(doc, "decision_audit.invocations");
      audit != nullptr && audit->is_array()) {
    os << "\ndecision timeline (" << audit->items().size()
       << " invocations):\n";
    Table t({"inv", "density", "cvd", "margin", "sw/hw", "forced",
             "est_cycles(chosen)", "best_counterfactual"});
    for (const Json& rec : audit->items()) {
      bool f = false;
      const double density =
          number_at(rec, "features.vector_density", &f);
      const double cvd = number_at(rec, "cvd", &f);
      std::string sw = "?";
      std::string hw = "?";
      if (const Json* v = rec.find("sw"); v != nullptr) sw = v->as_string();
      if (const Json* v = rec.find("hw"); v != nullptr) hw = v->as_string();
      bool forced = false;
      if (const Json* v = rec.find("forced_sw"); v != nullptr) {
        forced = v->as_bool();
      }
      double chosen_cycles = 0.0;
      double best_cycles = std::numeric_limits<double>::infinity();
      std::string best_name = "-";
      if (const Json* cfs = rec.find("counterfactuals");
          cfs != nullptr && cfs->is_array()) {
        for (const Json& cf : cfs->items()) {
          bool cf_found = false;
          const double cyc = number_at(cf, "est_cycles", &cf_found);
          const Json* chosen = cf.find("chosen");
          if (chosen != nullptr && chosen->as_bool()) {
            chosen_cycles = cyc;
          } else if (cyc < best_cycles) {
            best_cycles = cyc;
            best_name = cf.find("sw")->as_string() + "/" +
                        cf.find("hw")->as_string();
          }
        }
      }
      const std::uint32_t inv =
          rec.find("invocation") != nullptr
              ? static_cast<std::uint32_t>(rec.find("invocation")->as_int())
              : 0;
      t.add_row({std::to_string(inv), Table::fmt(density, 4),
                 Table::fmt(cvd, 4), Table::fmt(density - cvd, 4),
                 sw + "/" + hw, forced ? "yes" : "no",
                 fmt_count(chosen_cycles),
                 std::isinf(best_cycles)
                     ? "-"
                     : best_name + " @" + fmt_count(best_cycles)});
    }
    t.print(os);
  }
  os << "\n";
}

void summarize_telemetry(std::ostream& os, const std::string& jsonl_text,
                         const std::string& name) {
  os << "=== " << name << " (telemetry) ===\n";
  std::istringstream in(jsonl_text);
  std::string line;
  std::vector<Json> snaps;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      snaps.push_back(Json::parse(line));
    } catch (const Error& e) {
      throw Error(name + " line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  if (snaps.empty()) {
    os << "(no snapshots)\n\n";
    return;
  }
  if (const Json* header = snaps.back().find("header");
      header != nullptr && header->is_object()) {
    os << "header:";
    for (const auto& [key, value] : header->members()) {
      os << " " << key << "="
         << (value.is_string() ? value.as_string() : value.dump());
    }
    os << "\n";
  }
  // Digests are cumulative, so the Δcount column shows each snapshot
  // window's own sample count.
  std::vector<std::pair<std::string, double>> prev_counts;
  const auto prev_count_of = [&](const std::string& metric) {
    for (const auto& [m, c] : prev_counts) {
      if (m == metric) return c;
    }
    return 0.0;
  };
  for (const Json& snap : snaps) {
    bool f = false;
    os << "\nsnapshot " << fmt_count(number_at(snap, "seq", &f))
       << "  wall_ms=" << Table::fmt(number_at(snap, "wall_ms", &f), 3)
       << "  iterations=" << fmt_count(number_at(snap, "iterations", &f))
       << "\n";
    const Json* hist = snap.find("hist");
    if (hist == nullptr || !hist->is_object() || hist->size() == 0) {
      // A snapshot with no observed metrics yet (e.g. a cadence tick
      // before any histogram recorded): say so instead of printing a
      // header-only table.
      os << "(no metrics)\n";
      continue;
    }
    Table t({"metric", "count", "Δcount", "mean", "p50", "p90", "p99",
             "p999", "max"});
    std::vector<std::pair<std::string, double>> counts;
    for (const auto& [metric, digest] : hist->members()) {
      const obs::HistogramSummary s = obs::HistogramSummary::from_json(digest);
      const double dcount =
          static_cast<double>(s.count) - prev_count_of(metric);
      counts.emplace_back(metric, static_cast<double>(s.count));
      t.add_row({metric, fmt_count(static_cast<double>(s.count)),
                 fmt_count(dcount), Table::fmt(s.mean()), Table::fmt(s.p50),
                 Table::fmt(s.p90), Table::fmt(s.p99), Table::fmt(s.p999),
                 Table::fmt(s.max)});
    }
    t.print(os);
    prev_counts = std::move(counts);
    if (const Json* violations = snap.find("slo_violations");
        violations != nullptr && violations->is_array()) {
      for (const Json& v : violations->items()) {
        const Json* msg = v.find("message");
        os << "SLO: " << (msg != nullptr ? msg->as_string() : v.dump())
           << "\n";
      }
    }
  }
  os << "\n";
}

namespace {

Json load_report(const std::string& path) {
  std::ifstream in(path);
  COSPARSE_REQUIRE(in.good(), "cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return Json::parse(buf.str());
}

std::string load_text(const std::string& path) {
  std::ifstream in(path);
  COSPARSE_REQUIRE(in.good(), "cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int usage(std::ostream& os) {
  os << "usage:\n"
     << "  cosparse-prof summarize <report.json>..."
     << " [--telemetry <file.jsonl>]...\n"
     << "  cosparse-prof diff <baseline.json> <candidate.json>"
     << " [--max-regress 5%]\n"
     << "  cosparse-prof extract <report.json> [--functional] [--out <file>]\n"
     << "  cosparse-prof flame <profile.folded> [--out <flame.html>]\n"
     << "  cosparse-prof flamediff <baseline.folded> <candidate.folded>"
     << " [--max-regress 5%]\n";
  return 2;
}

}  // namespace

int prof_main(int argc, const char* const* argv) {
  if (argc < 2) return usage(std::cerr);
  const std::string cmd = argv[1];
  try {
    if (cmd == "summarize") {
      std::vector<std::string> reports;
      std::vector<std::string> telemetry;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--telemetry") {
          COSPARSE_REQUIRE(i + 1 < argc, "--telemetry: missing value");
          telemetry.push_back(argv[++i]);
        } else if (arg.rfind("--telemetry=", 0) == 0) {
          telemetry.push_back(arg.substr(sizeof("--telemetry=") - 1));
        } else if (!arg.empty() && arg[0] == '-') {
          std::cerr << "cosparse-prof: unknown option " << arg << "\n";
          return 2;
        } else {
          reports.push_back(arg);
        }
      }
      if (reports.empty() && telemetry.empty()) return usage(std::cerr);
      for (const std::string& path : reports) {
        summarize_report(std::cout, load_report(path), path);
      }
      for (const std::string& path : telemetry) {
        summarize_telemetry(std::cout, load_text(path), path);
      }
      return 0;
    }
    if (cmd == "extract") {
      std::vector<std::string> files;
      std::string out_path;
      bool functional = false;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out") {
          COSPARSE_REQUIRE(i + 1 < argc, "--out: missing value");
          out_path = argv[++i];
        } else if (arg == "--functional") {
          functional = true;
        } else if (!arg.empty() && arg[0] == '-') {
          std::cerr << "cosparse-prof: unknown option " << arg << "\n";
          return 2;
        } else {
          files.push_back(arg);
        }
      }
      if (files.size() != 1) return usage(std::cerr);
      const Json report = load_report(files[0]);
      // --functional keeps only the mode-independent subset (results
      // digests, normalized iterations, decision audit) so a sim report
      // and a native report of the same run byte-compare equal.
      const std::string text =
          (functional ? obs::functional_subset(report)
                      : obs::results_subset(report))
              .dump(1) +
          "\n";
      if (out_path.empty()) {
        std::cout << text;
      } else {
        std::ofstream o(out_path);
        COSPARSE_REQUIRE(o.good(), "cannot write " + out_path);
        o << text;
      }
      return 0;
    }
    if (cmd == "diff") {
      DiffOptions opts;
      std::vector<std::string> files;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--max-regress") {
          COSPARSE_REQUIRE(i + 1 < argc, "--max-regress: missing value");
          opts.max_regress = parse_regress_limit(argv[++i]);
        } else if (arg.rfind("--max-regress=", 0) == 0) {
          opts.max_regress =
              parse_regress_limit(arg.substr(sizeof("--max-regress=") - 1));
        } else if (!arg.empty() && arg[0] == '-') {
          std::cerr << "cosparse-prof: unknown option " << arg << "\n";
          return 2;
        } else {
          files.push_back(arg);
        }
      }
      if (files.size() != 2) return usage(std::cerr);
      const Json baseline = load_report(files[0]);
      const Json candidate = load_report(files[1]);
      if (is_native_report(baseline) || is_native_report(candidate)) {
        // Cycle/miss gates need the simulator's counters; a native report
        // simply has none, so the comparable subset shrinks accordingly.
        std::cout << "(native mode: no cycle model)\n";
      }
      const DiffResult result = diff_reports(baseline, candidate, opts);
      print_diff(std::cout, result, opts);
      return result.regressed ? 1 : 0;
    }
    if (cmd == "flame") {
      std::vector<std::string> files;
      std::string out_path;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out") {
          COSPARSE_REQUIRE(i + 1 < argc, "--out: missing value");
          out_path = argv[++i];
        } else if (arg.rfind("--out=", 0) == 0) {
          out_path = arg.substr(sizeof("--out=") - 1);
        } else if (!arg.empty() && arg[0] == '-') {
          std::cerr << "cosparse-prof: unknown option " << arg << "\n";
          return 2;
        } else {
          files.push_back(arg);
        }
      }
      if (files.size() != 1) return usage(std::cerr);
      const obs::FoldedProfile profile =
          obs::FoldedProfile::parse(load_text(files[0]));
      std::cout << "=== " << files[0] << " (" << profile.total_samples
                << " samples) ===\n";
      obs::print_phase_table(std::cout, profile);
      if (out_path.empty()) out_path = files[0] + ".html";
      std::ofstream o(out_path);
      COSPARSE_REQUIRE(o.good(), "cannot write " + out_path);
      o << obs::render_flamegraph_html(profile, files[0]);
      std::cout << "wrote flamegraph to " << out_path << "\n";
      return 0;
    }
    if (cmd == "flamediff") {
      double max_regress = 0.05;
      std::vector<std::string> files;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--max-regress") {
          COSPARSE_REQUIRE(i + 1 < argc, "--max-regress: missing value");
          max_regress = parse_regress_limit(argv[++i]);
        } else if (arg.rfind("--max-regress=", 0) == 0) {
          max_regress =
              parse_regress_limit(arg.substr(sizeof("--max-regress=") - 1));
        } else if (!arg.empty() && arg[0] == '-') {
          std::cerr << "cosparse-prof: unknown option " << arg << "\n";
          return 2;
        } else {
          files.push_back(arg);
        }
      }
      if (files.size() != 2) return usage(std::cerr);
      const obs::FlameDiffResult result = obs::diff_folded(
          obs::FoldedProfile::parse(load_text(files[0])),
          obs::FoldedProfile::parse(load_text(files[1])), max_regress);
      print_flame_diff(std::cout, result, max_regress);
      return result.regressed ? 1 : 0;
    }
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      usage(std::cout);
      return 0;
    }
  } catch (const Error& e) {
    std::cerr << "cosparse-prof: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "cosparse-prof: unknown command " << cmd << "\n";
  return usage(std::cerr);
}

}  // namespace cosparse::tools
