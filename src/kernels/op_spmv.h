// Outer-product SpMV kernel (paper Fig. 3, bottom).
//
// Dataflow: the matrix is striped by rows across tiles (CSC slices); within
// a tile the LCP hands each PE an equal contiguous chunk of the sparse
// input vector's non-zeros. Each PE k-way-merges the matrix columns
// selected by its chunk using a binary min-heap keyed on row index,
// combining same-row contributions and emitting each finished row to the
// tile's LCP, which serializes writeback (and combines partial rows across
// the tile's PEs before applying the semiring's finalize step once).
//
// Under PS the heap lives in the PE-private scratchpad; entries beyond SPM
// capacity spill to memory, but the heap's tree shape keeps the hot top
// levels — the majority of compares and swaps — inside the SPM (paper
// §III-A). Under PC the heap is ordinary cacheable memory, contending with
// the k column streams for the 4 kB private L1.
//
// Execution interleaving: the simulated PEs of a tile are advanced
// round-robin in small bursts (kOpInterleavePops row-groups per turn) so
// that the shared levels of the hierarchy (per-tile L2, DRAM) see the
// *concurrent* working set of all PEs, not one PE's private working set at
// a time — this is what makes long sorted lists expensive, exactly as
// §III-C.3 describes. Heaps and emitted lists are per PE and the LCP merge
// runs after them, so the burst length (the machine's pe_burst(); host PEs
// run to completion) orders charges, never results.
#pragma once

#include <utility>
#include <vector>

#include "kernels/address_map.h"
#include "kernels/partition.h"
#include "kernels/semiring.h"
#include "sim/machine.h"
#include "sparse/vector.h"

namespace cosparse::kernels {

struct OpResult {
  sparse::SparseVector y;  ///< touched rows only, sorted by row
};

/// Modeled footprints (bytes).
inline constexpr std::uint32_t kOpElemBytes = 12;   ///< (row u32, value f64)
inline constexpr std::uint32_t kOpEntryBytes = 12;  ///< x (index, value)
inline constexpr std::uint32_t kHeapNodeBytes = 16; ///< (row, cursor, end, x)
inline constexpr std::uint32_t kColPtrBytes = 16;   ///< begin+end offsets

/// Row-groups a simulated PE completes before yielding to the next PE of
/// its tile.
inline constexpr std::uint32_t kOpInterleavePops = 16;

// Templated over the machine/address-map pair for the same reason as
// run_inner_product: the native backend re-runs this exact loop with no-op
// charges (DESIGN.md §14).
template <Semiring S, class Machine = sim::Machine, class AMap = AddressMap>
OpResult run_outer_product(Machine& m, AMap& amap,
                           const OpStripedMatrix& A,
                           const sparse::SparseVector& x,
                           const sparse::DenseVector* x_dst_old, const S& sr) {
  COSPARSE_CHECK_MSG(A.cols() == x.dimension(),
                     "OP: matrix/vector dimension mismatch");
  if constexpr (S::kUsesDst) {
    COSPARSE_CHECK_MSG(x_dst_old != nullptr &&
                           x_dst_old->dimension() == A.rows(),
                       "OP: semiring uses destination values but none given");
  }
  const bool ps = m.hw() == sim::HwConfig::kPS;
  const std::size_t spm_per_pe = m.spm_bytes_per_pe();

  OpResult out;
  out.y = sparse::SparseVector(A.rows());
  const auto& stripes = A.stripes();
  COSPARSE_CHECK_MSG(stripes.size() == m.num_tiles(),
                     "OP stripe count does not match machine tiles");

  // Empty frontiers/stripes have no bytes to place (and issue no
  // accesses); AddressMap::of rejects zero-sized regions.
  const Addr x_base =
      x.nnz() == 0
          ? Addr{0}
          : amap.of(x.entries().data(), x.nnz() * kOpEntryBytes,
                    "vector.sparse");
  const Addr xold_base =
      x_dst_old == nullptr
          ? 0
          : amap.of(x_dst_old->values().data(),
                    static_cast<std::size_t>(x_dst_old->dimension()) * 8,
                    "vector.dense_old");

  struct HeapNode {
    Index row;
    Offset cursor;  ///< index into stripe.elems of the loaded element
    Offset end;
    Value xval;
  };

  const std::uint32_t P = m.pes_per_tile();
  // Per-PE share of x within a tile (every tile scans all of x).
  const std::size_t chunk = (x.nnz() + P - 1) / P;

  // Simulated placement of every tile's structures, hoisted ahead of the
  // tile loop so tile bodies touch no machine-global state: native tile
  // bodies may run on parallel host threads (native::HostMachine::
  // for_tiles). Allocation order — elems, col_ptr, heap per tile in
  // ascending tile order — matches the historical in-loop order, so
  // addresses and profiler attribution are unchanged.
  struct TilePlacement {
    Addr elems = 0;
    Addr col_ptr = 0;
    Addr heap = 0;
  };
  std::vector<TilePlacement> place(m.num_tiles());
  for (std::uint32_t tile = 0; tile < m.num_tiles(); ++tile) {
    const auto& stripe = stripes[tile];
    place[tile].elems =
        stripe.elems.empty()
            ? Addr{0}
            : amap.of(stripe.elems.data(),
                      stripe.elems.size() * kOpElemBytes, "matrix.op_elems");
    place[tile].col_ptr = amap.of(stripe.col_ptr.data(),
                                  stripe.col_ptr.size() * 8, "matrix.col_ptr");
    // Scratch heap region for this invocation; per-PE sub-ranges.
    place[tile].heap = m.alloc(
        static_cast<std::size_t>(P) * (chunk + 1) * kHeapNodeBytes, "op.heap");
  }

  // Per-tile finished rows; concatenated in tile order below (stripes are
  // ascending disjoint row ranges, so concatenation keeps y sorted).
  std::vector<std::vector<sparse::VectorEntry>> tile_rows(m.num_tiles());
  const std::uint32_t burst = m.pe_burst(kOpInterleavePops);

  m.for_tiles([&](std::uint32_t tile) {
    const auto& stripe = stripes[tile];
    const Addr elems_base = place[tile].elems;
    const Addr colptr_base = place[tile].col_ptr;
    const Addr heap_base = place[tile].heap;

    // Per-PE merge state, advanced round-robin.
    struct PeState {
      std::vector<HeapNode> heap;
      std::size_t build_pos = 0;  ///< next x-entry index (build phase)
      std::size_t build_end = 0;
      std::vector<sparse::VectorEntry> emitted;
    };
    std::vector<PeState> state(P);
    for (std::uint32_t lp = 0; lp < P; ++lp) {
      state[lp].build_pos =
          std::min<std::size_t>(static_cast<std::size_t>(lp) * chunk,
                                x.nnz());
      state[lp].build_end =
          std::min<std::size_t>(state[lp].build_pos + chunk, x.nnz());
      state[lp].heap.reserve(state[lp].build_end - state[lp].build_pos);
    }

    auto heap_access = [&](std::uint32_t pe, std::uint32_t lp,
                           std::size_t idx, bool write) {
      const std::size_t off = idx * kHeapNodeBytes;
      if (ps && off + kHeapNodeBytes <= spm_per_pe) {
        if (write) {
          m.spm_write(pe, kHeapNodeBytes);
        } else {
          m.spm_read(pe, kHeapNodeBytes);
        }
        return;
      }
      const Addr a =
          heap_base + static_cast<Addr>(lp) * (chunk + 1) * kHeapNodeBytes +
          off;
      if (write) {
        m.mem_write(pe, a, kHeapNodeBytes);
      } else {
        m.mem_read(pe, a, kHeapNodeBytes);
      }
    };

    auto sift_up = [&](std::uint32_t pe, std::uint32_t lp, std::size_t i) {
      auto& heap = state[lp].heap;
      while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        heap_access(pe, lp, parent, false);
        m.compute(pe, 1);
        if (heap[parent].row <= heap[i].row) break;
        std::swap(heap[parent], heap[i]);
        heap_access(pe, lp, parent, true);
        heap_access(pe, lp, i, true);
        i = parent;
      }
    };

    auto sift_down = [&](std::uint32_t pe, std::uint32_t lp, std::size_t i) {
      auto& heap = state[lp].heap;
      const std::size_t n = heap.size();
      while (true) {
        const std::size_t l = 2 * i + 1, r = 2 * i + 2;
        std::size_t smallest = i;
        if (l < n) {
          heap_access(pe, lp, l, false);
          m.compute(pe, 1);
          if (heap[l].row < heap[smallest].row) smallest = l;
        }
        if (r < n) {
          heap_access(pe, lp, r, false);
          m.compute(pe, 1);
          if (heap[r].row < heap[smallest].row) smallest = r;
        }
        if (smallest == i) break;
        std::swap(heap[i], heap[smallest]);
        heap_access(pe, lp, i, true);
        heap_access(pe, lp, smallest, true);
        i = smallest;
      }
    };

    // ---- build + merge, interleaved round-robin across the tile's PEs ----
    bool any_work = true;
    while (any_work) {
      any_work = false;
      for (std::uint32_t lp = 0; lp < P; ++lp) {
        PeState& st = state[lp];
        const std::uint32_t pe = tile * P + lp;

        // Build phase burst: install up to `burst` column heads.
        std::uint32_t build_left = burst;
        while (st.build_pos < st.build_end && build_left > 0) {
          const auto& e = x.entries()[st.build_pos];
          m.mem_read(pe, x_base + st.build_pos * kOpEntryBytes,
                     kOpEntryBytes);
          m.mem_read(pe, colptr_base + static_cast<Addr>(e.index) * 8,
                     kColPtrBytes);
          m.compute(pe, 2);
          const Offset c0 = stripe.col_begin(e.index);
          const Offset c1 = stripe.col_end(e.index);
          ++st.build_pos;
          --build_left;
          if (c0 == c1) continue;  // empty column in this stripe
          m.mem_read(pe, elems_base + c0 * kOpElemBytes, kOpElemBytes);
          st.heap.push_back({stripe.elems[c0].row, c0, c1, e.value});
          heap_access(pe, lp, st.heap.size() - 1, true);
          sift_up(pe, lp, st.heap.size() - 1);
        }
        if (st.build_pos < st.build_end) {
          any_work = true;
          continue;  // keep building next turn; merging starts afterwards
        }

        // Merge phase burst: complete up to `burst` row-groups.
        auto& heap = st.heap;
        for (std::uint32_t pops = 0; pops < burst && !heap.empty(); ++pops) {
          const Index row = heap[0].row;
          Value acc = sr.reduce_identity();
          Value xdst = 0;
          if constexpr (S::kUsesDst) {
            m.mem_read(pe, xold_base + static_cast<Addr>(row) * 8, 8);
            xdst = (*x_dst_old)[row];
          }
          while (!heap.empty() && heap[0].row == row) {
            heap_access(pe, lp, 0, false);
            const HeapNode& top = heap[0];
            m.compute(pe, S::kEdgeOps);
            acc = sr.reduce(acc, sr.edge(stripe.elems[top.cursor].value,
                                         top.xval, xdst));
            const Offset next = top.cursor + 1;
            if (next < top.end) {
              m.mem_read(pe, elems_base + next * kOpElemBytes, kOpElemBytes);
              heap[0].cursor = next;
              heap[0].row = stripe.elems[next].row;
              heap_access(pe, lp, 0, true);
            } else {
              heap[0] = heap.back();
              heap.pop_back();
              if (!heap.empty()) heap_access(pe, lp, 0, true);
            }
            if (!heap.empty()) sift_down(pe, lp, 0);
          }
          // Raw (pre-finalize) partial row handed to the LCP.
          m.compute(pe, 1);
          m.lcp_emit(pe, kOpEntryBytes);
          st.emitted.push_back({row, acc});
        }
        if (!heap.empty()) any_work = true;
      }
    }

    // ---- LCP: combine same-row partials across PEs, finalize once ----
    // Rows collect locally and land in tile_rows once: neighbouring tiles'
    // vector headers share cache lines.
    std::vector<sparse::VectorEntry> rows;
    std::vector<std::size_t> cursor(P, 0);
    while (true) {
      Index row = A.rows();
      for (std::uint32_t lp = 0; lp < P; ++lp) {
        if (cursor[lp] < state[lp].emitted.size()) {
          row = std::min(row, state[lp].emitted[cursor[lp]].index);
        }
      }
      if (row == A.rows()) break;
      Value acc = sr.reduce_identity();
      for (std::uint32_t lp = 0; lp < P; ++lp) {
        auto& c = cursor[lp];
        if (c < state[lp].emitted.size() &&
            state[lp].emitted[c].index == row) {
          acc = sr.reduce(acc, state[lp].emitted[c].value);
          ++c;
        }
      }
      const Value xdst =
          (S::kUsesDst && x_dst_old != nullptr) ? (*x_dst_old)[row] : Value{0};
      rows.push_back({row, sr.finalize(acc, xdst)});
    }
    tile_rows[tile] = std::move(rows);
    m.tile_barrier(tile);
  });

  for (const auto& rows : tile_rows) {
    for (const sparse::VectorEntry& e : rows) out.y.push_back(e.index, e.value);
  }
  m.global_barrier();
  return out;
}

}  // namespace cosparse::kernels
