// cosparse::runtime::Engine — the public entry point of the framework.
//
// An Engine owns (a) the simulated reconfigurable machine and (c) the
// decision engine, and shares (b) an immutable PreparedMatrix: the
// resident matrix copies (plain COO for IP/SC, vblock-ordered COO for
// IP/SCS, row-striped CSC for OP — kept simultaneously to avoid matrix
// relayout at reconfiguration time, paper §III-D.2).
// Every spmv() call runs the full per-iteration CoSPARSE flow:
//
//   decide SW + HW  ->  reconfigure hardware if needed (flush + <=10 cyc)
//   ->  convert the frontier representation if the dataflow changed
//   ->  run the chosen kernel  ->  log the iteration record.
//
// Both exec modes run this one flow. Native mode (EngineOptions::exec_mode)
// differs in three places only: the kernel is native::pull_spmv/push_spmsv
// instead of the simulated one (a selecting reduction's pull reads the SC
// layout under either IP config), a hardware switch moves a mirror of the
// config instead of reconfiguring the machine, and nothing is charged.
//
// The engine computes f_next = SpMV(G^T, f): prepare_matrix() transposes
// the adjacency matrix once (paper Fig. 2). Many engines — e.g. the serve
// batches of one cached dataset — may share one PreparedMatrix.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "kernels/address_map.h"
#include "obs/sampler.h"
#include "kernels/frontier.h"
#include "kernels/ip_spmv.h"
#include "kernels/op_spmv.h"
#include "kernels/partition.h"
#include "native/decision.h"
#include "native/exec_mode.h"
#include "native/spmv.h"
#include "runtime/audit.h"
#include "runtime/decision.h"
#include "sim/machine.h"
#include "sim/parallel.h"
#include "sparse/formats.h"

namespace cosparse::obs {
class Telemetry;
}  // namespace cosparse::obs

namespace cosparse::runtime {

struct EngineOptions {
  /// Select IP/OP automatically per iteration (§III-C.1); when false, the
  /// engine always uses `fixed_sw`.
  bool sw_reconfig = true;
  /// Select the memory configuration automatically (§III-C.2/3); when
  /// false, IP runs in SC and OP runs in PC (the cache-only baselines),
  /// unless `fixed_hw` is set. A pinned `fixed_hw` needs `sw_reconfig`
  /// off and must host `fixed_sw` (IP: SC/SCS, OP: PC/PS); the
  /// constructor throws cosparse::Error otherwise.
  bool hw_reconfig = true;
  SwConfig fixed_sw = SwConfig::kIP;
  std::optional<sim::HwConfig> fixed_hw;
  /// Static workload balancing (nnz-balanced row partitions, §III-B);
  /// false reproduces the naive equal-row splits of Fig. 7's baseline.
  bool nnz_balanced = true;
  /// Vertical blocking for IP (vblocks sized to the tile SPM).
  bool vblocked = true;
  Thresholds thresholds;
  /// Continuous telemetry registry (obs/telemetry.h; not owned). The
  /// engine observes per-iteration wall/cycle/density histograms, attaches
  /// the registry to the machine for per-phase wall timing, and pulses the
  /// snapshot cadence once per spmv() call. Telemetry only reads simulator
  /// state, so results are bit-identical with it on or off (the
  /// differential harness enforces this).
  obs::Telemetry* telemetry = nullptr;
  /// Host threads for native kernels (exec_mode == kNative). nullopt
  /// resolves COSPARSE_SIM_THREADS (unset/invalid -> serial); an explicit 0
  /// forces serial kernels regardless of the environment; N >= 1 makes a
  /// native engine own a pool of exactly N workers. The simulator always
  /// runs serially, so a sim-mode engine ignores this. Results are
  /// bit-identical for every setting (DESIGN.md §11, §14).
  std::optional<std::uint32_t> sim_threads;
  /// External executor for native kernels, shared across engines (not
  /// owned; must outlive the engine). Overrides `sim_threads` when set;
  /// sim-mode engines never use it.
  sim::ParallelExecutor* executor = nullptr;
  /// Execution backend (DESIGN.md §14). kSim runs kernels through the
  /// cycle-accurate simulator; kNative runs the same kernel loops as plain
  /// host code (src/native/) — no cache model, no cycle accounting —
  /// producing byte-identical results (the native differential harness
  /// and the CI byte-compare gate enforce this).
  /// Decisions are still made and audited identically; iteration records
  /// carry cycles = 0. The executor/sim_threads knobs parallelize native
  /// kernels over tiles; they are the only host parallelism in an engine.
  native::ExecMode exec_mode = native::ExecMode::kSim;
};

/// The immutable part of an Engine: the resident layouts of G^T and its
/// density. Read-only once built, so engines on any threads may share it.
struct PreparedMatrix {
  /// The shape the layouts were built for; an Engine requires its own
  /// system and options to match.
  std::uint32_t num_pes = 0;
  std::uint32_t num_tiles = 0;
  Index vblock_cols = 0;  ///< requested SCS vblock width; 0 = unblocked
  bool nnz_balanced = true;
  double density = 0.0;
  // Two IP layouts stay resident: SC streams plain nnz-balanced row
  // partitions, SCS needs the vblocked ordering so the vector segment of
  // the active vblock fits the tile scratchpad (paper Fig. 3). Keeping
  // both avoids relayout at reconfiguration time, like the COO+CSC pair.
  kernels::IpPartitionedMatrix ip_sc;
  kernels::IpPartitionedMatrix ip_scs;
  kernels::OpStripedMatrix op;
};

/// f_next = SpMV(G^T, f): transposes `adjacency` and builds the resident
/// layouts for `cfg` (EngineOptions::nnz_balanced / vblocked semantics).
[[nodiscard]] std::shared_ptr<const PreparedMatrix> prepare_matrix(
    const sparse::Coo& adjacency, const sim::SystemConfig& cfg,
    bool nnz_balanced = true, bool vblocked = true);

/// One row of the Fig. 9-style iteration log.
struct IterationRecord {
  std::uint32_t index = 0;
  std::size_t frontier_nnz = 0;
  double density = 0.0;
  SwConfig sw = SwConfig::kIP;
  sim::HwConfig hw = sim::HwConfig::kSC;
  bool sw_switched = false;
  bool hw_switched = false;
  bool converted_frontier = false;
  Cycles cycles = 0;          ///< total for the iteration (incl. overheads)
  Cycles convert_cycles = 0;  ///< frontier format conversion share
  Picojoules energy_pj = 0;
};

/// Report serialization of one iteration record. Field names are the
/// run-report schema ("iterations" array, DESIGN.md §8).
[[nodiscard]] Json to_json(const IterationRecord& rec);
/// Inverse of to_json(); throws cosparse::Error on missing/invalid fields.
[[nodiscard]] IterationRecord iteration_record_from_json(const Json& j);

/// One finished graph-algorithm run. Its cycles include the vector passes
/// between SpMVs, so they cannot be summed from the iteration log.
struct AlgoRunRecord {
  std::string algo;  ///< "bfs", "sssp", ...
  std::uint32_t iterations = 0;
  Cycles cycles = 0;
};

class Engine {
 public:
  /// A frontier in whichever representation the previous step produced.
  struct Frontier {
    bool dense = false;
    kernels::DenseFrontier df;
    sparse::SparseVector sv;

    [[nodiscard]] std::size_t nnz() const {
      return dense ? df.num_active : sv.nnz();
    }
    static Frontier from_dense(kernels::DenseFrontier f) {
      Frontier fr;
      fr.dense = true;
      fr.df = std::move(f);
      return fr;
    }
    static Frontier from_sparse(sparse::SparseVector v) {
      Frontier fr;
      fr.dense = false;
      fr.sv = std::move(v);
      return fr;
    }
  };

  /// SpMV output in the producing kernel's natural representation.
  struct Output {
    bool dense = false;
    kernels::IpResult ip;   ///< valid when dense
    kernels::OpResult op;   ///< valid when !dense
    Decision decision;

    [[nodiscard]] std::size_t num_touched() const {
      return dense ? ip.num_touched : op.y.nnz();
    }
    /// Visits every touched (row, value) pair in ascending row order.
    template <class Fn>
    void for_each_touched(Fn&& fn) const {
      if (dense) {
        for (Index r = 0; r < ip.y.dimension(); ++r) {
          if (ip.touched[r]) fn(r, ip.y[r]);
        }
      } else {
        for (const auto& e : op.y.entries()) fn(e.index, e.value);
      }
    }
  };

  /// `adjacency`: A with A[u][v] = weight of edge u -> v. Prepares a
  /// private PreparedMatrix and delegates to the constructor below.
  Engine(const sparse::Coo& adjacency, const sim::SystemConfig& cfg,
         EngineOptions opts = {});
  /// Shares `prepared`, which must have been built for `cfg` and the
  /// nnz_balanced/vblocked settings of `opts` (throws otherwise).
  Engine(std::shared_ptr<const PreparedMatrix> prepared,
         const sim::SystemConfig& cfg, EngineOptions opts = {});

  /// The per-iteration CoSPARSE SpMV (see file comment). `dst_old` supplies
  /// V_dst for semirings with kUsesDst (CF). `settled` is empty or holds
  /// one byte per row; a nonzero byte promises the caller will not read
  /// that row of the output, so a native pull may leave it at
  /// reduce_identity and untouched (DESIGN.md §14). Only a selecting
  /// reduction's native pull skips them; sim mode and every other kernel
  /// compute every row.
  template <kernels::Semiring S>
  Output spmv(const Frontier& f, const S& sr,
              const sparse::DenseVector* dst_old = nullptr,
              std::span<const std::uint8_t> settled = {});

  /// Charges a data-parallel host-side vector pass (Table I Vector_Op /
  /// frontier apply) of `elements` items to the PEs: streaming reads and
  /// writes of `bytes_per_element` plus `ops_per_element` ALU cycles.
  void charge_vector_pass(std::size_t elements, double ops_per_element,
                          std::uint32_t bytes_per_element);

  [[nodiscard]] Index dimension() const { return prepared_->ip_sc.rows(); }
  [[nodiscard]] double matrix_density() const { return prepared_->density; }
  [[nodiscard]] const sim::SystemConfig& system() const {
    return machine_.config();
  }
  [[nodiscard]] sim::Machine& machine() { return machine_; }
  [[nodiscard]] const sim::Machine& machine() const { return machine_; }
  [[nodiscard]] const DecisionEngine& decisions() const { return decider_; }
  [[nodiscard]] native::ExecMode exec_mode() const { return opts_.exec_mode; }
  /// Native kernel-family tally (pull/push iteration counts); meaningful
  /// only in native mode (all zero under simulation).
  [[nodiscard]] const native::DecisionEngine& native_decisions() const {
    return native_decider_;
  }
  /// Per-invocation decision audit (always on; serialized into the
  /// "decision_audit" run-report section).
  [[nodiscard]] const AuditTrail& audit() const { return audit_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }
  /// The continuous-telemetry registry (nullptr when none was attached);
  /// report.cpp folds its digests into the run report's telemetry section.
  [[nodiscard]] obs::Telemetry* telemetry() const { return telemetry_; }

  [[nodiscard]] const std::vector<IterationRecord>& iterations() const {
    return log_;
  }
  [[nodiscard]] Cycles total_cycles() const { return machine_.cycles(); }
  [[nodiscard]] Picojoules total_energy_pj() const {
    return machine_.energy_pj();
  }
  /// Finished graph-algorithm runs, in completion order (appended by
  /// graph/algorithms.cpp; the report's algo.<name>.* counters).
  [[nodiscard]] const std::vector<AlgoRunRecord>& algo_runs() const {
    return algo_runs_;
  }
  void record_algo_run(AlgoRunRecord run) {
    algo_runs_.push_back(std::move(run));
  }

 private:
  /// Frontier conversions (lightweight vector conversion of §III-D.2):
  /// refill the engine-owned staging buffer and return it. Sim mode charges
  /// the machine and stores the cost in `*cost`; native mode charges
  /// nothing and leaves `*cost` alone.
  const kernels::DenseFrontier& convert_to_dense(
      const sparse::SparseVector& sv, Value identity, Cycles* cost);
  const sparse::SparseVector& convert_to_sparse(
      const kernels::DenseFrontier& df, Cycles* cost);

  /// Pass-through staging (no conversion, no simulated cost). Sim mode
  /// copies the caller's frontier into the engine-owned buffer so the
  /// kernel always reads stable host storage; native mode returns `df`/`sv`.
  const kernels::DenseFrontier& stage_dense(const kernels::DenseFrontier& df);
  const sparse::SparseVector& stage_sparse(const sparse::SparseVector& sv);

  Decision resolve_decision(std::size_t frontier_nnz) const;

  /// Throws Error unless `f` has this engine's dimension (and, if dense,
  /// one activity flag per value) and `settled` is empty or has one byte
  /// per row. Runs before anything is staged or logged: the staging
  /// buffers have the engine's fixed size, and the kernel indexes the
  /// mask by row.
  void check_frontier(const Frontier& f,
                      std::span<const std::uint8_t> settled) const;

  /// Publishes the finished iteration into the attached telemetry
  /// registry (no-op without one). Lives in engine.cpp so the template
  /// above stays lean.
  void record_iteration(const IterationRecord& rec, Cycles kernel_cycles,
                        double wall_ms);

  EngineOptions opts_;
  std::unique_ptr<sim::ParallelExecutor> owned_exec_;  ///< see sim_threads
  sim::ParallelExecutor* exec_ = nullptr;  ///< native kernels' pool, or null
  sim::Machine machine_;
  kernels::AddressMap amap_;
  AuditTrail audit_;
  DecisionEngine decider_;
  /// Native mode's view of the decided hardware config. The simulated
  /// machine's hierarchy is never reconfigured in native mode (there is
  /// nothing to flush); this mirror keeps hw_switched in the iteration
  /// records identical to sim mode.
  sim::HwConfig native_hw_;
  native::DecisionEngine native_decider_;
  std::shared_ptr<const PreparedMatrix> prepared_;
  // Frontier staging buffers, allocated once at construction and refilled
  // in place each iteration. In sim mode every frontier a kernel reads
  // lives here. AddressMap memoizes simulated regions by host pointer, so
  // every pointer the kernels map must stay stable for the engine's
  // lifetime — otherwise a freed per-iteration buffer whose host address
  // malloc later recycles would alias a stale simulated region, making
  // cycle counts depend on process heap history (DESIGN.md §11). They
  // model the fixed device-resident frontier regions a real runtime would
  // DMA into. Native mode maps no addresses: only conversions fill these,
  // and a frontier already in the decided format is read in place.
  kernels::DenseFrontier staged_dense_;
  sparse::SparseVector staged_sparse_;
  std::vector<IterationRecord> log_;
  std::vector<AlgoRunRecord> algo_runs_;
  std::uint32_t next_iteration_ = 0;
  std::optional<SwConfig> last_sw_;
  obs::Telemetry* telemetry_ = nullptr;
};

// ---- template implementation ----

template <kernels::Semiring S>
Engine::Output Engine::spmv(const Frontier& f, const S& sr,
                            const sparse::DenseVector* dst_old,
                            std::span<const std::uint8_t> settled) {
  check_frontier(f, settled);
  const bool is_native = opts_.exec_mode == native::ExecMode::kNative;
  const obs::PhaseScope phase(is_native ? "native.spmv" : "engine.spmv");
  const auto wall_begin = std::chrono::steady_clock::now();  // cosparse-lint: allow(determinism)
  // Native mode has no cycle model, so it takes no snapshot.
  const Cycles start_cycles = is_native ? 0 : machine_.cycles();
  const sim::Stats start_stats = is_native ? sim::Stats{} : machine_.stats();

  IterationRecord rec;
  rec.index = next_iteration_++;
  rec.frontier_nnz = f.nnz();
  rec.density = dimension() == 0 ? 0.0
                                 : static_cast<double>(rec.frontier_nnz) /
                                       static_cast<double>(dimension());

  // The audited decision is the same in both modes: its features, margins
  // and counterfactual estimates are pure functions of the frontier
  // sequence, so the decision_audit section is byte-identical.
  const Decision d = resolve_decision(rec.frontier_nnz);
  rec.sw = d.sw;
  rec.hw = d.hw;
  rec.sw_switched = last_sw_.has_value() && *last_sw_ != d.sw;
  last_sw_ = d.sw;

  // Hardware reconfiguration (LCP-triggered; flush + <= 10 cycles). Native
  // mode has nothing to flush and only moves its mirror of the config.
  if (is_native) {
    rec.hw_switched = native_hw_ != d.hw;
    native_hw_ = d.hw;
  } else if (machine_.hw() != d.hw) {
    machine_.reconfigure(d.hw);
    rec.hw_switched = true;
  }

  Output out;
  out.decision = d;
  out.dense = d.sw == SwConfig::kIP;
  if (is_native) native_decider_.count(out.dense);
  rec.converted_frontier = f.dense != out.dense;
  Cycles kernel_cycles = 0;
  if (out.dense) {
    // The decided hw config selects the resident layout (SCS streams the
    // vblocked ordering), so every summed accumulation matches. A native
    // selecting reduction reads the SC layout row by row under either
    // config: a min row's result does not depend on its elements' order.
    const auto& layout =
        d.hw == sim::HwConfig::kSCS && !(is_native && native::kOrderFree<S>)
            ? prepared_->ip_scs
            : prepared_->ip_sc;
    const kernels::DenseFrontier& df =
        f.dense ? stage_dense(f.df)
                : convert_to_dense(f.sv, sr.vector_identity(),
                                   &rec.convert_cycles);
    if (is_native) {
      out.ip = native::pull_spmv(machine_.config(), d.hw, exec_, layout, df,
                                 sr, settled);
    } else {
      const obs::PhaseScope kp("kernel.ip");
      const Cycles kernel_begin = machine_.cycles();
      out.ip = kernels::run_inner_product(machine_, amap_, layout, df, sr);
      kernel_cycles = machine_.cycles() - kernel_begin;
    }
  } else {
    const sparse::SparseVector& sv =
        f.dense ? convert_to_sparse(f.df, &rec.convert_cycles)
                : stage_sparse(f.sv);
    if (is_native) {
      out.op = native::push_spmsv(machine_.config(), d.hw, exec_,
                                  prepared_->op, sv, dst_old, sr);
    } else {
      const obs::PhaseScope kp("kernel.op");
      const Cycles kernel_begin = machine_.cycles();
      out.op = kernels::run_outer_product(machine_, amap_, prepared_->op, sv,
                                          dst_old, sr);
      kernel_cycles = machine_.cycles() - kernel_begin;
    }
  }

  // Native records keep the schema (lint requires the cycles key) with
  // zeroed cycle and energy fields.
  if (!is_native) {
    rec.cycles = machine_.cycles() - start_cycles;
    rec.energy_pj = sim::EnergyModel{}.total(
        machine_.config(), machine_.stats() - start_stats, rec.cycles);
  }
  log_.push_back(rec);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() -  // cosparse-lint: allow(determinism)
                             wall_begin)
                             .count();
  record_iteration(rec, kernel_cycles, wall_ms);
  return out;
}

}  // namespace cosparse::runtime
