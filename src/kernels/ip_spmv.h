// Inner-product SpMV kernel (paper Fig. 3, top).
//
// Dataflow: every PE streams its nnz-balanced row partition in COO order
// (vblock-major), checks the frontier bitmap for the source vertex, loads
// the 8-byte frontier value only for active sources, and accumulates into
// its exclusive output rows — no synchronization between partitions. Under
// SCS the vector segment of the current vblock (values + bitmap) lives in
// the tile's shared scratchpad, refilled by a DMA per vblock (with a tile
// barrier); under SC the same loop runs with vector accesses through the
// shared L1 cache.
//
// The kernel is functional *and* timed: results are exact, and every
// architectural event is charged to the simulated machine.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "kernels/address_map.h"
#include "kernels/frontier.h"
#include "kernels/partition.h"
#include "kernels/semiring.h"
#include "sim/machine.h"

namespace cosparse::kernels {

struct IpResult {
  sparse::DenseVector y;               ///< reduce_identity where untouched
  std::vector<std::uint8_t> touched;   ///< 1 where at least one edge landed
  std::size_t num_touched = 0;
};

/// Modeled in-memory footprints (bytes) of the streamed structures.
inline constexpr std::uint32_t kIpElemBytes = 16;  ///< (row, col, value)
inline constexpr std::uint32_t kValueBytes = 8;

/// Elements a simulated PE streams before yielding to the next PE of its
/// tile (round-robin interleaving, so shared caches see concurrent
/// pressure); the machine's pe_burst() decides whether it applies.
inline constexpr std::uint32_t kIpInterleaveElems = 64;

// The machine/address-map types are template parameters (defaulting to the
// simulated pair) so the native backend can run this exact loop with
// charge-free stand-ins (native::HostMachine / native::NullAddressMap,
// DESIGN.md §14): same operations, the same order within every PE's
// exclusive rows, bit-identical results. The machine orders the work the
// kernel declares independent (for_tile_steps, pe_burst).
template <Semiring S, class Machine = sim::Machine, class AMap = AddressMap>
IpResult run_inner_product(Machine& m, AMap& amap,
                           const IpPartitionedMatrix& A,
                           const DenseFrontier& x, const S& sr) {
  COSPARSE_CHECK_MSG(A.cols() == x.dimension(),
                     "IP: matrix/vector dimension mismatch");
  const Index n_rows = A.rows();
  const Index n_cols = A.cols();
  const bool all_active = x.all_active();
  const bool scs = m.hw() == sim::HwConfig::kSCS;

  IpResult out;
  out.y = sparse::DenseVector(n_rows, sr.reduce_identity());
  out.touched.assign(n_rows, 0);

  // Simulated placement of the persistent arrays. An empty matrix has no
  // element stream to place (and the loops below never touch it);
  // AddressMap::of rejects zero-sized regions.
  const Addr elems_base =
      A.nnz() == 0
          ? Addr{0}
          : amap.of(A.elems().data(), A.nnz() * kIpElemBytes, "matrix.elems");
  const Addr xval_base = amap.of(x.values.values().data(),
                                 static_cast<std::size_t>(n_cols) * kValueBytes,
                                 "vector.dense");
  const Addr xbit_base =
      amap.of(x.active.data(), n_cols / 8 + 1, "vector.bitmap");
  // Output buffer: fresh each invocation (it is new data).
  const Addr y_base = m.alloc(static_cast<std::size_t>(n_rows) * kValueBytes,
                              "output.y");
  // Output initialization to reduce_identity is a bulk DMA store; it costs
  // bandwidth (caught by the roofline) but no PE issue slots.
  m.dma_traffic(static_cast<std::size_t>(n_rows) * kValueBytes,
                /*write=*/true);

  const auto& parts = A.partitions();
  const std::uint32_t pes = m.num_pes();
  COSPARSE_CHECK_MSG(parts.size() == pes,
                     "IP partition count does not match machine PEs");

  // Bytes DMA'd into the SPM per vblock: the vblock's value segment.
  auto segment_bytes = [&](std::uint32_t vb) -> std::size_t {
    const Index c0 = static_cast<Index>(
        static_cast<std::uint64_t>(vb) * A.vblock_cols());
    const Index c1 = std::min<Index>(n_cols, c0 + A.vblock_cols());
    return static_cast<std::size_t>(c1 - c0) * kValueBytes;
  };

  // Vblocks are the steps of one for_tile_steps() pass. The simulator runs
  // it step-major (every tile's vblock 0, then vblock 1, ...), the host
  // tile-major in one dispatch; either way each PE meets its exclusive rows'
  // vblocks in ascending order, so every reduction happens in the same
  // order. Within a step the PEs of a tile advance round-robin in bursts of
  // m.pe_burst(kIpInterleaveElems) elements so the simulated shared L1/L2
  // see the tile's *concurrent* working set (see the class comment in
  // op_spmv.h); host PEs run to completion in one burst.
  struct PeState {
    Offset k = 0, k_end = 0;
    Index cur_row = 0;
    Value acc = 0;
    bool acc_open = false;
  };
  std::vector<PeState> state(pes);
  // Tile bodies may run on parallel host threads, so the touched-row tally
  // is kept per tile (added once per step) and summed afterwards; rows
  // themselves are PE-exclusive, so y/touched need no coordination.
  std::vector<std::size_t> tile_touched(m.num_tiles(), 0);
  const std::uint32_t burst = m.pe_burst(kIpInterleaveElems);

  m.for_tile_steps(A.num_vblocks(), [&](std::uint32_t tile, std::uint32_t vb) {
    // Raw views, local to the tile body: the byte-sized touched stores may
    // alias any object in memory, so reading through the containers (or
    // through captured references) would reload every pointer after each
    // row flush.
    const sparse::Triplet* const elems = A.elems().data();
    const std::uint8_t* const x_active = x.active.data();
    const Value* const x_val = x.values.values().data();
    Value* const y = out.y.values().data();
    std::uint8_t* const touched = out.touched.data();

    if (scs) {
      const Addr seg =
          xval_base + static_cast<Addr>(vb) * A.vblock_cols() * kValueBytes;
      m.spm_fill_tile(tile, seg, segment_bytes(vb));
    }
    for (std::uint32_t lp = 0; lp < m.pes_per_tile(); ++lp) {
      const std::uint32_t pe = tile * m.pes_per_tile() + lp;
      auto& st = state[pe];
      std::tie(st.k, st.k_end) = parts[pe].vblocks[vb];
      st.cur_row = n_rows;  // sentinel: no open row
      st.acc = sr.reduce_identity();
      st.acc_open = false;
    }

    std::size_t newly_touched = 0;
    auto flush_row = [&](std::uint32_t pe, PeState& st) {
      if (!st.acc_open) return;
      // Update of the exclusive output element. On the first touch of a
      // row the old value is the known reduce identity, so the kernel
      // writes directly; later touches (same row, earlier vblock) are
      // read-modify-write. The per-row touched bit lives in a small
      // PE-local bitmap (rows are PE-exclusive) — one ALU cycle.
      m.compute(pe, 1);
      if (touched[st.cur_row]) {
        m.mem_read(pe, y_base + static_cast<Addr>(st.cur_row) * kValueBytes,
                   kValueBytes);
      }
      m.mem_write(pe, y_base + static_cast<Addr>(st.cur_row) * kValueBytes,
                  kValueBytes);
      y[st.cur_row] = sr.reduce(y[st.cur_row], st.acc);
      if (!touched[st.cur_row]) {
        touched[st.cur_row] = 1;
        ++newly_touched;
      }
      st.acc = sr.reduce_identity();
      st.acc_open = false;
    };

    // One PE's burst of elements, compiled once for an all-active frontier
    // and once for a partial one. With a partial frontier the functional
    // update is a select, not a branch: every element computes its edge
    // value and an inactive one leaves the accumulator as it was, so host
    // PEs (which issue no charges) do not branch on frontier activity.
    auto stream = [&](std::uint32_t pe, PeState& st, Offset burst_end,
                      auto all_active_tag) {
      constexpr bool kAllActive = decltype(all_active_tag)::value;
      for (; st.k < burst_end; ++st.k) {
        const sparse::Triplet e = elems[st.k];
        // Matrix element stream (sequential; prefetcher keeps it hot).
        m.mem_read(pe, elems_base + st.k * kIpElemBytes, kIpElemBytes);
        m.compute(pe, 1);  // loop/issue overhead

        if (e.row != st.cur_row) {
          flush_row(pe, st);
          st.cur_row = e.row;
        }

        bool active = true;
        if constexpr (!kAllActive) {
          // Bitmap probe before touching the value (the test-and-branch
          // issues in the load's shadow, so only the access is charged).
          // The bitmap is tiny (N/8 bytes) and caches perfectly, so it
          // stays in the cache half even under SCS — SPM capacity is
          // reserved for the 8-byte values, which are what miss.
          m.mem_read(pe, xbit_base + e.col / 8, 1);
          active = x_active[e.col] != 0;
        }
        if (active) {
          // Frontier value load.
          if (scs) {
            m.spm_read(pe, kValueBytes);
          } else {
            m.mem_read(pe, xval_base + static_cast<Addr>(e.col) * kValueBytes,
                       kValueBytes);
          }
          if constexpr (S::kUsesDst) {
            m.mem_read(pe, xval_base + static_cast<Addr>(e.row) * kValueBytes,
                       kValueBytes);
          }
          m.compute(pe, S::kEdgeOps);
        }
        Value xdst = 0;
        if constexpr (S::kUsesDst) xdst = x_val[e.row];
        const Value next =
            sr.reduce(st.acc, sr.edge(e.value, x_val[e.col], xdst));
        if constexpr (kAllActive) {
          st.acc = next;
          st.acc_open = true;
        } else {
          // An indexed pick: compilers turn `active ? next : st.acc` back
          // into a branch, on activity or on the semiring's compare.
          const Value pick[2] = {st.acc, next};
          st.acc = pick[active];
          st.acc_open = st.acc_open || active;
        }
      }
    };

    bool any_left = true;
    while (any_left) {
      any_left = false;
      for (std::uint32_t lp = 0; lp < m.pes_per_tile(); ++lp) {
        const std::uint32_t pe = tile * m.pes_per_tile() + lp;
        // The burst advances a local copy: neighbouring PEs' (and tiles')
        // states share cache lines, and a row flush's byte-sized touched
        // write may alias them, which would keep every field in memory.
        PeState st = state[pe];
        const Offset burst_end = std::min<Offset>(st.k + burst, st.k_end);
        if (all_active) {
          stream(pe, st, burst_end, std::true_type{});
        } else {
          stream(pe, st, burst_end, std::false_type{});
        }
        if (st.k < st.k_end) any_left = true;
        state[pe] = st;
      }
    }
    for (std::uint32_t lp = 0; lp < m.pes_per_tile(); ++lp) {
      const std::uint32_t pe = tile * m.pes_per_tile() + lp;
      flush_row(pe, state[pe]);
    }
    tile_touched[tile] += newly_touched;
  });
  for (const std::size_t t : tile_touched) out.num_touched += t;

  // finalize() pass (only semirings that use the destination value need it;
  // for the others it is the identity and costs nothing).
  if constexpr (S::kUsesDst) {
    m.for_tiles([&](std::uint32_t tile) {
      for (std::uint32_t lp = 0; lp < m.pes_per_tile(); ++lp) {
        const std::uint32_t pe = tile * m.pes_per_tile() + lp;
        const auto& part = parts[pe];
        for (Index r = part.row_begin; r < part.row_end; ++r) {
          if (!out.touched[r]) continue;
          m.mem_read(pe, y_base + static_cast<Addr>(r) * kValueBytes,
                     kValueBytes);
          m.mem_read(pe, xval_base + static_cast<Addr>(r) * kValueBytes,
                     kValueBytes);
          m.compute(pe, 2);
          m.mem_write(pe, y_base + static_cast<Addr>(r) * kValueBytes,
                      kValueBytes);
          out.y[r] = sr.finalize(out.y[r], x.values[r]);
        }
      }
    });
  }

  m.global_barrier();
  return out;
}

}  // namespace cosparse::kernels
