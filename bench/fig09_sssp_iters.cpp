// Figure 9 reproduction: per-iteration execution of SSSP on pokec on a
// 16x16 system.
//
// For each SpMV iteration the harness reports the frontier density, the
// execution time of all five configurations (IP in SC/SCS; OP in SC, PC,
// PS) normalized to IP-in-SC, and the configuration CoSPARSE's decision
// tree picks — the same rows as the paper's figure. It closes with the
// net speedup of the reconfiguring run over the no-reconfiguration
// baseline (IP in SC only), which the paper reports as 1.51x for pokec
// (and up to 2.0x across workloads).
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "kernels/semiring.h"
#include "runtime/engine.h"
#include "sparse/datasets.h"

using namespace cosparse;

namespace {

struct PerConfigTimes {
  double ip_sc = 0, ip_scs = 0, op_sc = 0, op_pc = 0, op_ps = 0;
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("fig09_sssp_iters",
                "Fig. 9: per-iteration SSSP configurations on pokec");
  bench::add_common_options(cli, "4");
  cli.add_option("system", "AxB system", "16x16");
  cli.add_option("graph", "dataset name", "pokec");
  cli.add_option("source", "SSSP source vertex", "0");
  if (!cli.parse(argc, argv)) return 1;
  bench::init_observability(cli);

  const auto scale = static_cast<unsigned>(cli.integer("scale"));
  const auto sys = bench::parse_systems(cli.str("system")).front();
  const auto source = static_cast<Index>(cli.integer("source"));

  sparse::DatasetRegistry reg;
  const auto g = reg.load(cli.str("graph"), scale);
  const Index n = g.num_vertices();

  std::cout << "Figure 9: SSSP on " << cli.str("graph") << " (1/" << scale
            << " scale, |V|=" << n << ", |E|=" << g.num_edges() << ") on "
            << sys.name() << "\nPer-iteration execution time normalized to "
            << "IP in SC; * marks the fastest configuration.\n\n";

  // Built once: the transposed matrix in all three kernel layouts (plain
  // stream for SC, vblocked for SCS, row stripes for OP).
  const sparse::Coo mt = sparse::transpose(g.adjacency());
  const auto ip_part_sc =
      kernels::IpPartitionedMatrix::build(mt, sys.num_pes(), 0);
  const auto ip_part_scs = kernels::IpPartitionedMatrix::build(
      mt, sys.num_pes(), bench::vblock_cols_for(sys));
  const auto op_striped =
      kernels::OpStripedMatrix::build(mt, sys.num_tiles);
  const kernels::SsspSemiring sr;

  auto time_all = [&](const sparse::SparseVector& frontier,
                      kernels::OpResult* op_out) {
    PerConfigTimes t;
    const auto xf = kernels::DenseFrontier::from_sparse(
        frontier, sr.vector_identity());
    auto run_ip = [&](sim::HwConfig hw) {
      sim::Machine machine(sys, hw);
      kernels::AddressMap amap(machine);
      const auto& layout =
          hw == sim::HwConfig::kSCS ? ip_part_scs : ip_part_sc;
      kernels::run_inner_product(machine, amap, layout, xf, sr);
      return static_cast<double>(machine.cycles());
    };
    auto run_op = [&](sim::HwConfig hw, kernels::OpResult* keep) {
      sim::Machine machine(sys, hw);
      kernels::AddressMap amap(machine);
      auto out = kernels::run_outer_product(machine, amap, op_striped,
                                            frontier, nullptr, sr);
      if (keep != nullptr) *keep = std::move(out);
      return static_cast<double>(machine.cycles());
    };
    t.ip_sc = run_ip(sim::HwConfig::kSC);
    t.ip_scs = run_ip(sim::HwConfig::kSCS);
    t.op_sc = run_op(sim::HwConfig::kSC, nullptr);
    t.op_pc = run_op(sim::HwConfig::kPC, op_out);
    t.op_ps = run_op(sim::HwConfig::kPS, nullptr);
    return t;
  };

  Table t({"iter", "density", "IP SC", "IP SCS", "OP SC", "OP PC", "OP PS",
           "best SW", "best HW", "chosen"});

  const runtime::DecisionEngine decider(sys);
  std::vector<Value> dist(n, kernels::kInf);
  dist[source] = 0;
  sparse::SparseVector frontier(n);
  frontier.push_back(source, 0.0);

  double reconfig_total = 0, baseline_total = 0;
  for (std::uint32_t iter = 0; frontier.nnz() > 0 && iter < n; ++iter) {
    kernels::OpResult op_result;
    const auto times = time_all(frontier, &op_result);
    const double best = std::min({times.ip_sc, times.ip_scs, times.op_sc,
                                  times.op_pc, times.op_ps});
    const auto decision = decider.decide(n, g.density(), frontier.nnz());
    const double chosen_time =
        decision.sw == runtime::SwConfig::kIP
            ? (decision.hw == sim::HwConfig::kSCS ? times.ip_scs
                                                  : times.ip_sc)
            : (decision.hw == sim::HwConfig::kPS ? times.op_ps
                                                 : times.op_pc);
    reconfig_total += chosen_time;
    baseline_total += times.ip_sc;

    auto rel = [&](double v) {
      std::string s = Table::fmt(v / times.ip_sc, 3);
      if (v == best) s += "*";
      return s;
    };
    const char* best_sw =
        (best == times.ip_sc || best == times.ip_scs) ? "IP" : "OP";
    const char* best_hw = best == times.ip_sc    ? "SC"
                          : best == times.ip_scs ? "SCS"
                          : best == times.op_sc  ? "SC"
                          : best == times.op_pc  ? "PC"
                                                 : "PS";
    t.add_row({std::to_string(iter), Table::fmt_pct(decision.vector_density),
               rel(times.ip_sc), rel(times.ip_scs), rel(times.op_sc),
               rel(times.op_pc), rel(times.op_ps), best_sw, best_hw,
               std::string(to_string(decision.sw)) + "/" +
                   sim::to_string(decision.hw)});

    // Advance SSSP functionally using the OP result (exact semantics).
    sparse::SparseVector next(n);
    for (const auto& e : op_result.y.entries()) {
      if (e.value < dist[e.index]) {
        dist[e.index] = e.value;
        next.push_back(e.index, e.value);
      }
    }
    frontier = std::move(next);
  }
  bench::emit("fig09", t);

  std::cout << "Net speedup of co-reconfiguration over the IP-SC-only "
               "baseline: "
            << Table::fmt_ratio(baseline_total / reconfig_total)
            << " (paper: 1.51x on pokec; <= 2.0x across workloads)\n";
  return bench::finish_run();
}
