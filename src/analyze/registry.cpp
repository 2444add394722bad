#include "analyze/registry.h"

#include <algorithm>

namespace cosparse::analyze {

const std::vector<std::string_view>& canonical_phase_tags() {
  // Keep in sync with DESIGN.md §13 and the PhaseScope call sites the
  // self-scan test walks; phase_hygiene fails on any literal not here.
  static const std::vector<std::string_view> tags = {
      "engine.spmv",        // runtime::Engine::spmv in sim mode
      "engine.frontier",    // frontier staging/conversion
      "kernel.ip",          // inner-product kernel body
      "kernel.op",          // outer-product kernel body
      "native.spmv",        // runtime::Engine::spmv in native mode
      "native.kernel.pull", // native pull SpMV
      "native.kernel.push", // native push SpMSpV
      "sim.exec",           // serial tile execution
      "serve.execute",      // serving daemon: whole batch-execution phase
      "serve.batch",        // serving daemon: one batch on a serve thread
      "serve.prepare",      // serving daemon: one dataset's PreparedMatrix
  };
  return tags;
}

const std::vector<std::string_view>& canonical_phase_prefixes() {
  static const std::vector<std::string_view> prefixes = {
      "graph.",  // graph.<algo>, interned per algorithm at run time
  };
  return prefixes;
}

bool is_canonical_phase_tag(std::string_view tag) {
  const auto& tags = canonical_phase_tags();
  if (std::find(tags.begin(), tags.end(), tag) != tags.end()) return true;
  for (std::string_view p : canonical_phase_prefixes()) {
    if (tag.size() > p.size() && tag.substr(0, p.size()) == p) return true;
  }
  return false;
}

const std::vector<std::string_view>& canonical_region_labels() {
  // The memory profiler's region scheme (DESIGN.md §9): matrix.* for
  // adjacency structure, vector.* for frontier/operand data, output.*
  // for results, op.* for kernel scratch, bench.* for raw
  // microbenchmark streams.
  static const std::vector<std::string_view> labels = {
      "matrix.elems",     // IP CSR elements
      "matrix.col_ptr",   // OP per-stripe column pointers
      "matrix.op_elems",  // OP stripe elements
      "vector.dense",     // dense operand vector
      "vector.dense_old", // previous dense vector (delta kernels)
      "vector.sparse",    // sparse frontier entries
      "vector.bitmap",    // frontier activity bitmap
      "output.y",         // result vector
      "op.heap",          // OP per-PE scratch heap
      "bench.stream",     // spmv_micro raw streaming region
  };
  return labels;
}

bool is_canonical_region_label(std::string_view label) {
  const auto& labels = canonical_region_labels();
  return std::find(labels.begin(), labels.end(), label) != labels.end();
}

}  // namespace cosparse::analyze
