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

/// Elements a PE streams before yielding to the next PE of its tile
/// (round-robin interleaving, so shared caches see concurrent pressure).
inline constexpr std::uint32_t kIpInterleaveElems = 64;

// The machine/address-map types are template parameters (defaulting to the
// simulated pair) so the native backend can run this exact loop with
// charge-free stand-ins (native::HostMachine / native::NullAddressMap,
// DESIGN.md §14): same operations, same order, bit-identical results.
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

  // PEs of a tile are advanced round-robin in bursts of kIpInterleaveElems
  // elements so the shared L1/L2 see the tile's *concurrent* working set
  // (see the class comment in op_spmv.h for why this matters).
  struct PeState {
    Offset k = 0, k_end = 0;
    Index cur_row = 0;
    Value acc = 0;
    bool acc_open = false;
  };
  std::vector<PeState> state(pes);
  // Native tile bodies may run on parallel host threads
  // (native::HostMachine::for_tiles), so the touched-row tally is kept per
  // tile and summed afterwards; rows themselves are PE-exclusive, so
  // y/touched need no coordination.
  std::vector<std::size_t> tile_touched(m.num_tiles(), 0);

  for (std::uint32_t vb = 0; vb < A.num_vblocks(); ++vb) {
    m.for_tiles([&](std::uint32_t tile) {
      if (scs) {
        const Addr seg = xval_base + static_cast<Addr>(vb) *
                                         A.vblock_cols() * kValueBytes;
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

      auto flush_row = [&](std::uint32_t pe, PeState& st) {
        if (!st.acc_open) return;
        // Update of the exclusive output element. On the first touch of a
        // row the old value is the known reduce identity, so the kernel
        // writes directly; later touches (same row, earlier vblock) are
        // read-modify-write. The per-row touched bit lives in a small
        // PE-local bitmap (rows are PE-exclusive) — one ALU cycle.
        m.compute(pe, 1);
        if (out.touched[st.cur_row]) {
          m.mem_read(pe, y_base + static_cast<Addr>(st.cur_row) * kValueBytes,
                     kValueBytes);
        }
        m.mem_write(pe, y_base + static_cast<Addr>(st.cur_row) * kValueBytes,
                    kValueBytes);
        out.y[st.cur_row] = sr.reduce(out.y[st.cur_row], st.acc);
        if (!out.touched[st.cur_row]) {
          out.touched[st.cur_row] = 1;
          ++tile_touched[tile];
        }
        st.acc = sr.reduce_identity();
        st.acc_open = false;
      };

      bool any_left = true;
      while (any_left) {
        any_left = false;
        for (std::uint32_t lp = 0; lp < m.pes_per_tile(); ++lp) {
          const std::uint32_t pe = tile * m.pes_per_tile() + lp;
          auto& st = state[pe];
          const Offset burst_end =
              std::min<Offset>(st.k + kIpInterleaveElems, st.k_end);
          for (; st.k < burst_end; ++st.k) {
            const auto& e = A.elems()[st.k];
            // Matrix element stream (sequential; prefetcher keeps it hot).
            m.mem_read(pe, elems_base + st.k * kIpElemBytes, kIpElemBytes);
            m.compute(pe, 1);  // loop/issue overhead

            if (e.row != st.cur_row) {
              flush_row(pe, st);
              st.cur_row = e.row;
            }

            bool active = true;
            if (!all_active) {
              // Bitmap probe before touching the value (the test-and-branch
              // issues in the load's shadow, so only the access is charged).
              // The bitmap is tiny (N/8 bytes) and caches perfectly, so it
              // stays in the cache half even under SCS — SPM capacity is
              // reserved for the 8-byte values, which are what miss.
              m.mem_read(pe, xbit_base + e.col / 8, 1);
              active = x.active[e.col] != 0;
            }
            if (!active) continue;

            // Frontier value load.
            if (scs) {
              m.spm_read(pe, kValueBytes);
            } else {
              m.mem_read(pe,
                         xval_base + static_cast<Addr>(e.col) * kValueBytes,
                         kValueBytes);
            }
            Value xdst = 0;
            if constexpr (S::kUsesDst) {
              m.mem_read(pe,
                         xval_base + static_cast<Addr>(e.row) * kValueBytes,
                         kValueBytes);
              xdst = x.values[e.row];
            }
            m.compute(pe, S::kEdgeOps);
            st.acc = sr.reduce(st.acc, sr.edge(e.value, x.values[e.col], xdst));
            st.acc_open = true;
          }
          if (st.k < st.k_end) any_left = true;
        }
      }
      for (std::uint32_t lp = 0; lp < m.pes_per_tile(); ++lp) {
        const std::uint32_t pe = tile * m.pes_per_tile() + lp;
        flush_row(pe, state[pe]);
      }
    });
  }
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
