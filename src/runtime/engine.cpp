#include "runtime/engine.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "common/threads.h"
#include "kernels/region_plan.h"
#include "obs/telemetry.h"

namespace cosparse::runtime {

std::shared_ptr<const PreparedMatrix> prepare_matrix(
    const sparse::Coo& adjacency, const sim::SystemConfig& cfg,
    bool nnz_balanced, bool vblocked) {
  // SC streams a plain nnz-balanced layout; SCS additionally needs
  // vblocking so vector segments fit the scratchpad (the SC/SCS trade-off
  // of Fig. 5 hinges on exactly this difference).
  auto p = std::make_shared<PreparedMatrix>();
  p->num_pes = cfg.num_pes();
  p->num_tiles = cfg.num_tiles;
  p->vblock_cols = vblocked ? kernels::default_vblock_cols(cfg) : 0;
  p->nnz_balanced = nnz_balanced;
  const sparse::Coo mt = sparse::transpose(adjacency);
  p->density = mt.density();
  for (const sparse::Triplet& t : mt.triplets()) {
    p->min_weight = std::min(p->min_weight, t.value);
  }
  p->ip_sc = kernels::IpPartitionedMatrix::build(mt, p->num_pes, 0,
                                                 nnz_balanced);
  p->ip_scs = kernels::IpPartitionedMatrix::build(mt, p->num_pes,
                                                  p->vblock_cols, nnz_balanced);
  p->op = kernels::OpStripedMatrix::build(mt, p->num_tiles, nnz_balanced);
  return p;
}

Engine::Engine(const sparse::Coo& adjacency, const sim::SystemConfig& cfg,
               EngineOptions opts)
    : Engine(prepare_matrix(adjacency, cfg, opts.nnz_balanced, opts.vblocked),
             cfg, opts) {}

Engine::Engine(std::shared_ptr<const PreparedMatrix> prepared,
               const sim::SystemConfig& cfg, EngineOptions opts)
    : opts_(opts),
      machine_(cfg, opts.fixed_hw.value_or(sim::HwConfig::kSC)),
      amap_(machine_),
      decider_(cfg, opts.thresholds),
      native_hw_(opts.fixed_hw.value_or(sim::HwConfig::kSC)),
      prepared_(std::move(prepared)),
      telemetry_(opts.telemetry) {
  COSPARSE_REQUIRE(
      prepared_ != nullptr && prepared_->num_pes == cfg.num_pes() &&
          prepared_->num_tiles == cfg.num_tiles &&
          prepared_->nnz_balanced == opts_.nnz_balanced &&
          prepared_->vblock_cols ==
              (opts_.vblocked ? kernels::default_vblock_cols(cfg) : 0),
      "engine: prepared matrix was built for a different system or layout");
  if (!opts_.hw_reconfig && opts_.fixed_hw.has_value()) {
    // Paper Fig. 2: IP runs on a shared hierarchy (SC/SCS), OP on a
    // private one (PC/PS). A pinned hierarchy hosts only one dataflow.
    const char* hw = sim::to_string(*opts_.fixed_hw);
    COSPARSE_REQUIRE(!opts_.sw_reconfig,
                     "engine: hardware pinned to "
                         << hw << " needs a pinned dataflow (sw_reconfig = "
                                  "false): the other one cannot run on it");
    COSPARSE_REQUIRE(
        (opts_.fixed_sw == SwConfig::kIP) == sim::is_shared(*opts_.fixed_hw),
        "engine: " << to_string(opts_.fixed_sw) << " cannot run on " << hw
                   << " (inner product needs SC/SCS, outer product PC/PS)");
  }
  machine_.set_telemetry(telemetry_);
  if (telemetry_ != nullptr &&
      opts_.exec_mode == native::ExecMode::kNative) {
    // Stamp native streams so readers (cosparse-prof summarize echoes the
    // header) can tell there is no cycle data behind them; sim streams are
    // left untouched.
    telemetry_->set_header("exec_mode",
                           Json(std::string(to_string(opts_.exec_mode))));
  }
  // Host threads for the native kernels: an external executor wins;
  // otherwise resolve sim_threads (nullopt -> COSPARSE_SIM_THREADS) and own
  // the pool. The simulator is serial, so sim mode never owns one.
  exec_ = opts_.executor;
  if (exec_ == nullptr && opts_.exec_mode == native::ExecMode::kNative) {
    const std::uint32_t threads =
        opts_.sim_threads.has_value()
            ? *opts_.sim_threads
            : sim_threads_from_env();
    if (threads >= 1) {
      owned_exec_ = std::make_unique<sim::ParallelExecutor>(threads);
      exec_ = owned_exec_.get();
    }
  }
  decider_.set_audit(&audit_);
  // Frontier staging buffers (see engine.h): allocate the worst-case
  // storage once so their host pointers never change over the engine's
  // lifetime. nnz is bounded by the dimension, so reserving `dim` entries
  // means the sparse buffer never reallocates either.
  const Index dim = dimension();
  staged_dense_ = kernels::DenseFrontier(dim, 0);
  staged_sparse_ = sparse::SparseVector(dim);
  staged_sparse_.reserve(dim);
}

const kernels::DenseFrontier& Engine::stage_dense(
    const kernels::DenseFrontier& df) {
  if (opts_.exec_mode == native::ExecMode::kNative) return df;
  staged_dense_.values.values().assign(df.values.values().begin(),
                                       df.values.values().end());
  staged_dense_.active.assign(df.active.begin(), df.active.end());
  staged_dense_.num_active = df.num_active;
  return staged_dense_;
}

const sparse::SparseVector& Engine::stage_sparse(
    const sparse::SparseVector& sv) {
  if (opts_.exec_mode == native::ExecMode::kNative) return sv;
  staged_sparse_.clear();
  for (const auto& e : sv.entries()) staged_sparse_.push_back(e.index, e.value);
  return staged_sparse_;
}

void Engine::check_frontier(const Frontier& f,
                            std::span<const std::uint8_t> settled) const {
  if (!settled.empty() && settled.size() != dimension()) {
    throw Error("spmv: settled mask has " + std::to_string(settled.size()) +
                " rows; the engine's dimension is " +
                std::to_string(dimension()));
  }
  if (f.dense) {
    if (f.df.dimension() != dimension() ||
        f.df.active.size() != f.df.values.values().size()) {
      throw Error("spmv: dense frontier has " +
                  std::to_string(f.df.dimension()) + " values and " +
                  std::to_string(f.df.active.size()) +
                  " activity flags; the engine's dimension is " +
                  std::to_string(dimension()));
    }
  } else if (f.sv.dimension() != dimension()) {
    throw Error("spmv: sparse frontier of dimension " +
                std::to_string(f.sv.dimension()) +
                " does not match the engine's dimension " +
                std::to_string(dimension()));
  }
}

Decision Engine::resolve_decision(std::size_t frontier_nnz) const {
  Decision d;
  if (opts_.sw_reconfig) {
    d = decider_.decide(dimension(), matrix_density(), frontier_nnz);
  } else {
    d = decider_.decide_forced_sw(opts_.fixed_sw, dimension(),
                                  matrix_density(), frontier_nnz);
  }
  if (!opts_.hw_reconfig) {
    // Cache-only baseline mapping unless the caller pinned a config.
    d.hw = opts_.fixed_hw.value_or(
        d.sw == SwConfig::kIP ? sim::HwConfig::kSC : sim::HwConfig::kPC);
  }
  return d;
}

void Engine::charge_vector_pass(std::size_t elements, double ops_per_element,
                                std::uint32_t bytes_per_element) {
  // Native mode has no cycle model; the vector pass itself already ran as
  // plain host code in the algorithm layer.
  if (opts_.exec_mode == native::ExecMode::kNative) return;
  if (elements == 0) return;
  const std::uint32_t pes = machine_.num_pes();
  const std::size_t per_pe = (elements + pes - 1) / pes;
  // Streaming pass: ALU ops charged per element; memory traffic is
  // sequential, so it moves at prefetched-stream cost — modeled as DMA
  // traffic plus 2 issue cycles per element.
  for (std::uint32_t pe = 0; pe < pes; ++pe) {
    const std::size_t mine =
        std::min(per_pe, elements - std::min(elements,
                                             static_cast<std::size_t>(pe) *
                                                 per_pe));
    if (mine == 0) break;
    machine_.compute(pe, static_cast<double>(mine) * (ops_per_element + 2.0));
  }
  machine_.dma_traffic(elements * bytes_per_element, /*write=*/false);
  machine_.dma_traffic(elements * bytes_per_element, /*write=*/true);
  machine_.global_barrier();
}

Json to_json(const IterationRecord& rec) {
  Json o = Json::object();
  o["index"] = rec.index;
  o["frontier_nnz"] = rec.frontier_nnz;
  o["density"] = rec.density;
  o["sw"] = to_string(rec.sw);
  o["hw"] = sim::to_string(rec.hw);
  o["sw_switched"] = rec.sw_switched;
  o["hw_switched"] = rec.hw_switched;
  o["converted_frontier"] = rec.converted_frontier;
  o["cycles"] = rec.cycles;
  o["convert_cycles"] = rec.convert_cycles;
  o["energy_pj"] = rec.energy_pj;
  return o;
}

IterationRecord iteration_record_from_json(const Json& j) {
  COSPARSE_REQUIRE(j.is_object(), "iteration record must be a JSON object");
  const auto need = [&](const char* key) -> const Json& {
    const Json* v = j.find(key);
    COSPARSE_REQUIRE(v != nullptr,
                     std::string("iteration record missing field: ") + key);
    return *v;
  };
  IterationRecord rec;
  rec.index = static_cast<std::uint32_t>(need("index").as_int());
  rec.frontier_nnz = static_cast<std::size_t>(need("frontier_nnz").as_int());
  rec.density = need("density").as_double();
  rec.sw = sw_config_from_string(need("sw").as_string());
  rec.hw = sim::hw_config_from_string(need("hw").as_string());
  rec.sw_switched = need("sw_switched").as_bool();
  rec.hw_switched = need("hw_switched").as_bool();
  rec.converted_frontier = need("converted_frontier").as_bool();
  rec.cycles = static_cast<Cycles>(need("cycles").as_int());
  rec.convert_cycles = static_cast<Cycles>(need("convert_cycles").as_int());
  rec.energy_pj = need("energy_pj").as_double();
  return rec;
}

void Engine::record_iteration(const IterationRecord& rec, Cycles kernel_cycles,
                              double wall_ms) {
  if (telemetry_ == nullptr) return;
  const bool is_native = opts_.exec_mode == native::ExecMode::kNative;
  telemetry_->histogram("engine.iteration_ms").observe(wall_ms);
  if (!is_native) {
    telemetry_->histogram("engine.iteration_cycles")
        .observe(static_cast<double>(rec.cycles));
    telemetry_->histogram("engine.kernel_cycles")
        .observe(static_cast<double>(kernel_cycles));
  }
  telemetry_->histogram("engine.frontier_density").observe(rec.density);
  if (!is_native && rec.converted_frontier) {
    telemetry_->histogram("engine.convert_cycles")
        .observe(static_cast<double>(rec.convert_cycles));
  }
  telemetry_->tick(rec.index + 1);
}

const kernels::DenseFrontier& Engine::convert_to_dense(
    const sparse::SparseVector& sv, Value identity, Cycles* cost) {
  const obs::PhaseScope phase("engine.frontier");
  // Reset the staging buffer in place (stable host storage, see engine.h),
  // then scatter the entries.
  kernels::DenseFrontier& df = staged_dense_;
  std::fill(df.values.values().begin(), df.values.values().end(), identity);
  std::fill(df.active.begin(), df.active.end(), std::uint8_t{0});
  df.num_active = 0;
  for (const auto& e : sv.entries()) df.set(e.index, e.value);
  if (opts_.exec_mode == native::ExecMode::kNative) return df;

  const Cycles start = machine_.cycles();
  // Bulk-initialize the value array and bitmap (DMA), then scatter the
  // entries across the PEs. Charges depend only on sizes.
  machine_.dma_traffic(static_cast<std::size_t>(sv.dimension()) * 8 +
                           sv.dimension() / 8,
                       /*write=*/true);
  const std::uint32_t pes = machine_.num_pes();
  const std::size_t per_pe = (sv.nnz() + pes - 1) / pes;
  for (std::size_t k = 0; k < sv.nnz(); ++k) {
    const auto pe = static_cast<std::uint32_t>(per_pe == 0 ? 0 : k / per_pe);
    machine_.compute(pe, 2);  // entry decode + bit set
  }
  // Entry stream reads + scattered value/bit writes.
  machine_.dma_traffic(sv.nnz() * 12, /*write=*/false);
  machine_.dma_traffic(sv.nnz() * 9, /*write=*/true);
  machine_.global_barrier();
  *cost = machine_.cycles() - start;
  return df;
}

const sparse::SparseVector& Engine::convert_to_sparse(
    const kernels::DenseFrontier& df, Cycles* cost) {
  const obs::PhaseScope phase("engine.frontier");
  staged_sparse_.clear();
  for (Index i = 0; i < df.dimension(); ++i) {
    if (df.active[i]) staged_sparse_.push_back(i, df.values[i]);
  }
  if (opts_.exec_mode == native::ExecMode::kNative) return staged_sparse_;

  const Cycles start = machine_.cycles();
  // Scan the bitmap (one 64-bit word covers 64 vertices), emit entries for
  // set bits. Per-PE ranges keep the output ordered.
  const std::uint32_t pes = machine_.num_pes();
  const Index n = df.dimension();
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  const std::size_t words_per_pe = (words + pes - 1) / pes;
  for (std::uint32_t pe = 0; pe < pes; ++pe) {
    const std::size_t mine = std::min(
        words_per_pe,
        words - std::min(words, static_cast<std::size_t>(pe) * words_per_pe));
    if (mine == 0) break;
    machine_.compute(pe, static_cast<double>(mine) * 2.0);
  }
  machine_.dma_traffic(words * 8, /*write=*/false);   // bitmap scan
  machine_.dma_traffic(df.num_active * 8, false);     // value gather
  machine_.dma_traffic(df.num_active * 12, true);     // entry stream out
  // Compaction work proportional to emitted entries.
  const std::size_t per_pe = (df.num_active + pes - 1) / pes;
  for (std::uint32_t pe = 0; pe < pes; ++pe) {
    const std::size_t mine =
        std::min(per_pe, df.num_active -
                             std::min(df.num_active,
                                      static_cast<std::size_t>(pe) * per_pe));
    if (mine == 0) break;
    machine_.compute(pe, static_cast<double>(mine) * 2.0);
  }
  machine_.global_barrier();
  *cost = machine_.cycles() - start;
  return staged_sparse_;
}

}  // namespace cosparse::runtime
