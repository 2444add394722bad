// Reconfigurable cache bank array (Table II "RCache", cache personality).
//
// A CacheArray models a group of 4 kB banks that act as one
// address-interleaved cache: line address modulo #banks selects the bank,
// each bank is 4-way set-associative with true LRU, write-back and
// write-allocate. Each bank group carries per-requester tagged stride
// prefetchers (Table II: "stride prefetcher"): a confirmed stride issues
// `prefetch_depth` line fetches on a miss, and a demand hit on a
// prefetched line issues one more line to sustain the stream.
//
// The array reports which line addresses it fetched so the owning
// MemoryHierarchy can propagate demand/prefetch fills to the next level and
// to DRAM; it performs no timing itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/types.h"

namespace cosparse::sim {

class CacheArray {
 public:
  /// `num_requesters` bounds the requester ids passed to access() and sizes
  /// the prefetcher state table.
  CacheArray(std::uint32_t num_banks, std::uint32_t bank_bytes,
             std::uint32_t line_bytes, std::uint32_t associativity,
             std::uint32_t prefetch_depth, std::uint32_t num_requesters);

  static constexpr std::uint32_t kMaxFetchedLines = 1 + 8;

  /// Only `hit` and the three counts are initialized: entries of
  /// `fetched_lines` past `num_fetched` and of `writeback_lines` past
  /// `num_writebacks` are indeterminate and must not be read. The arrays
  /// stay uninitialized because zero-filling them on every access costs a
  /// measurable share of the simulator's host time.
  struct Outcome {
    bool hit = false;                    ///< demand access hit in the array
    std::uint32_t num_fetched = 0;       ///< lines to fill from next level
    std::uint32_t num_prefetched = 0;    ///< subset of num_fetched that are prefetches
    std::uint32_t num_writebacks = 0;    ///< dirty lines evicted by the fills
    Addr fetched_lines[kMaxFetchedLines];    ///< line-aligned byte addrs, demand first
    Addr writeback_lines[kMaxFetchedLines];  ///< line-aligned byte addrs
  };

  /// Performs an access at byte address `addr` (the containing line is
  /// used). `write` marks the line dirty. `low_priority` marks fills on
  /// behalf of an upper level's prefetcher/writeback: they install at
  /// prefetch (victim-preferred) priority and do not train this level's
  /// prefetcher, so speculative streams cannot flush demand-hot data.
  /// Never performs next-level accesses itself — the caller propagates
  /// `fetched_lines`.
  Outcome access(std::uint32_t requester, Addr addr, bool write,
                 bool low_priority = false);

  /// Installs a line that was filled by the *next* level on behalf of this
  /// one (used for inclusive fills from a peer path). Returns the number of
  /// dirty writebacks caused (line addresses appended to `out`).
  std::uint32_t install(Addr addr, Addr* writeback_out);

  /// True if the containing line is present (testing/diagnostics only).
  [[nodiscard]] bool probe(Addr addr) const;

  /// Writes back everything: returns the number of dirty lines and clears
  /// the array (used at reconfiguration boundaries). When `dirty_lines` is
  /// non-null the line-aligned byte address of every dirty line is appended
  /// to it (profiler attribution of flush writebacks).
  std::uint64_t flush(std::vector<Addr>* dirty_lines = nullptr);

  [[nodiscard]] std::size_t total_bytes() const {
    return static_cast<std::size_t>(num_banks_) * bank_bytes_;
  }
  [[nodiscard]] std::uint32_t num_banks() const { return num_banks_; }

 private:
  // One way of a set in 16 bytes, so a 4-way set is one 64-byte host cache
  // line: the tag doubles as the valid bit, and the flags share a word with
  // the LRU tick. Ticks count accesses and never reach bit 62.
  struct Line {
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    static constexpr std::uint64_t kDemand = std::uint64_t{1} << 63;
    static constexpr std::uint64_t kDirty = std::uint64_t{1} << 62;
    static constexpr std::uint64_t kTickMask = kDirty - 1;

    /// Line index; kEmpty = invalid way (no address maps to index ~0 once
    /// lines are wider than one byte).
    std::uint64_t line_addr = kEmpty;
    /// kDemand (installed by a demand access, or since promoted by one;
    /// clear = prefetched and not yet used) | kDirty | last-use tick.
    std::uint64_t meta = 0;

    [[nodiscard]] bool valid() const { return line_addr != kEmpty; }
    [[nodiscard]] bool dirty() const { return (meta & kDirty) != 0; }
    [[nodiscard]] bool prefetched() const { return (meta & kDemand) == 0; }
    /// Victim order among valid ways: prefetched before demand, then LRU.
    [[nodiscard]] std::uint64_t victim_key() const { return meta & ~kDirty; }
    void touch(std::uint64_t tick) { meta = (meta & ~kTickMask) | tick; }
  };
  static_assert(sizeof(Line) == 16);

  /// Allocates on 64-byte host cache-line boundaries, so every 4-way set
  /// occupies exactly one host line.
  template <class T>
  struct HostLineAllocator {
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};
    T* allocate(std::size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T* p, std::size_t /*n*/) { ::operator delete(p, kAlign); }
    bool operator==(const HostLineAllocator& /*other*/) const { return true; }
  };

  // Each requester tracks a few concurrent streams, matched by line
  // proximity — a PE interleaves accesses to several arrays (matrix
  // stream, frontier bitmap, output), and a single per-requester stride
  // register would see alternating jumps and never confirm. Real stride
  // prefetchers are PC- or region-indexed for exactly this reason.
  static constexpr std::uint32_t kStreamsPerRequester = 4;
  static constexpr std::int64_t kStreamMatchWindow = 64;  ///< lines

  struct StreamState {  // 32 bytes: a requester's table is two host lines
    std::uint64_t last_line = 0;
    std::int64_t stride = 0;
    std::uint64_t last_use = 0;
    std::uint32_t confidence = 0;
    bool valid = false;
  };

  /// Line index of a byte address.
  [[nodiscard]] std::uint64_t line_of(Addr addr) const {
    return pow2_ ? addr >> line_shift_ : addr / line_bytes_;
  }
  /// Index in `lines_` of way 0 of the line's set. Compute it once per line
  /// and pass it to the *_at helpers below.
  [[nodiscard]] std::size_t set_base(std::uint64_t line) const {
    if (pow2_) {
      const std::uint64_t bank = line & bank_mask_;
      const std::uint64_t set = (line >> bank_shift_) & set_mask_;
      return static_cast<std::size_t>(((bank << set_shift_) | set)
                                      << way_shift_);
    }
    const std::uint64_t bank = line % num_banks_;
    const std::uint64_t set = (line / num_banks_) % sets_per_bank_;
    return static_cast<std::size_t>((bank * sets_per_bank_ + set) *
                                    associativity_);
  }
  [[nodiscard]] Line* find_at(std::size_t base, std::uint64_t line);
  /// Picks a victim way in the set (invalid first, then LRU).
  [[nodiscard]] Line& victim_at(std::size_t base);
  /// Installs `line` into the set at `base` (evicting the victim way) and
  /// returns the installed way. A dirty victim's line-aligned byte address
  /// is appended at `writebacks[num_writebacks++]`.
  Line& install_at(std::size_t base, std::uint64_t line, bool prefetched,
                   Addr* writebacks, std::uint32_t& num_writebacks);

  std::uint32_t num_banks_;
  std::uint32_t bank_bytes_;
  std::uint32_t line_bytes_;
  std::uint32_t associativity_;
  std::uint32_t prefetch_depth_;
  std::uint32_t sets_per_bank_;
  // Shift/mask form of the geometry, used when banks, sets per bank, line
  // size and ways are all powers of two (the paper's shapes). Other legal
  // shapes, such as the 3-, 6- and 18-bank arrays of a 3x6 system, take the
  // divide path in line_of()/set_base().
  bool pow2_ = false;
  std::uint32_t line_shift_ = 0;
  std::uint32_t bank_shift_ = 0;
  std::uint32_t set_shift_ = 0;
  std::uint32_t way_shift_ = 0;
  std::uint64_t bank_mask_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint64_t tick_ = 0;
  std::vector<Line, HostLineAllocator<Line>> lines_;  ///< [bank][set][way]
  std::vector<StreamState> streams_; ///< [requester][stream] flattened
};

}  // namespace cosparse::sim
