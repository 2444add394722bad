#include "sim/cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace cosparse::sim {
namespace {

// Single 4 kB bank, 64 B lines, 4-way: 16 sets.
CacheArray small_cache(std::uint32_t prefetch_depth = 0) {
  return CacheArray(/*banks=*/1, /*bank_bytes=*/4096, /*line=*/64,
                    /*assoc=*/4, prefetch_depth, /*requesters=*/2);
}

TEST(Cache, ColdMissThenHit) {
  auto c = small_cache();
  auto o1 = c.access(0, 0x100, false);
  EXPECT_FALSE(o1.hit);
  EXPECT_EQ(o1.num_fetched, 1u);
  auto o2 = c.access(0, 0x100, false);
  EXPECT_TRUE(o2.hit);
  EXPECT_EQ(o2.num_fetched, 0u);
}

TEST(Cache, SameLineDifferentOffsetsHit) {
  auto c = small_cache();
  c.access(0, 0x40, false);
  EXPECT_TRUE(c.access(0, 0x7F, false).hit);
}

TEST(Cache, LruEvictionOrder) {
  auto c = small_cache();
  // 4-way set: 5 conflicting lines (same set: stride = sets*line = 1024).
  const Addr stride = 1024;
  for (Addr i = 0; i < 4; ++i) c.access(0, i * stride, false);
  // Touch line 0 to make line 1 the LRU victim.
  c.access(0, 0, false);
  c.access(0, 4 * stride, false);  // evicts line 1
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(1 * stride));
  EXPECT_TRUE(c.probe(2 * stride));
  EXPECT_TRUE(c.probe(4 * stride));
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  auto c = small_cache();
  const Addr stride = 1024;
  c.access(0, 0, /*write=*/true);
  for (Addr i = 1; i <= 4; ++i) {
    auto o = c.access(0, i * stride, false);
    if (!c.probe(0)) {
      // The write-dirty line 0 was the victim at some point.
      EXPECT_GE(o.num_writebacks, 1u);
      EXPECT_EQ(o.writeback_lines[0], 0u);
      return;
    }
  }
  FAIL() << "dirty line was never evicted";
}

TEST(Cache, CleanEvictionNoWriteback) {
  auto c = small_cache();
  const Addr stride = 1024;
  for (Addr i = 0; i <= 4; ++i) {
    auto o = c.access(0, i * stride, false);
    EXPECT_EQ(o.num_writebacks, 0u);
  }
}

TEST(Cache, StridePrefetcherFetchesAhead) {
  auto c = small_cache(/*prefetch_depth=*/4);
  // Sequential line stream: 0x0, 0x40, 0x80 — third access confirms
  // stride and the miss brings lookahead lines with it.
  c.access(0, 0x00, false);
  c.access(0, 0x40, false);
  auto o = c.access(0, 0x80, false);
  EXPECT_FALSE(o.hit);
  EXPECT_GE(o.num_prefetched, 1u);
  // The next sequential lines are now resident.
  EXPECT_TRUE(c.probe(0xC0));
  EXPECT_TRUE(c.access(0, 0xC0, false).hit);
}

TEST(Cache, SteadyStateStreamMostlyHits) {
  auto c = small_cache(/*prefetch_depth=*/4);
  int misses = 0;
  for (Addr a = 0; a < 64 * 200; a += 64) {
    if (!c.access(0, a, false).hit) ++misses;
  }
  // After warmup, the tagged prefetcher should make a sequential stream
  // nearly all-hit.
  EXPECT_LT(misses, 15);
}

TEST(Cache, PrefetcherPerRequesterIsolation) {
  auto c = small_cache(/*prefetch_depth=*/4);
  // Requester 0 streams; requester 1 does random accesses that would break
  // a shared stride detector.
  c.access(0, 0x00, false);
  c.access(1, 0x5000, false);
  c.access(0, 0x40, false);
  c.access(1, 0x9040, false);
  auto o = c.access(0, 0x80, false);
  EXPECT_GE(o.num_prefetched, 1u);  // stream still detected
}

TEST(Cache, FlushCountsDirtyAndClears) {
  auto c = small_cache();
  c.access(0, 0x000, true);
  c.access(0, 0x400, true);
  c.access(0, 0x800, false);
  EXPECT_EQ(c.flush(), 2u);
  EXPECT_FALSE(c.probe(0x000));
  EXPECT_FALSE(c.probe(0x800));
  EXPECT_EQ(c.flush(), 0u);
}

TEST(Cache, BankInterleaving) {
  // 4 banks: consecutive lines land in different banks, so 4 consecutive
  // lines never conflict in a set even with assoc 1.
  CacheArray c(/*banks=*/4, /*bank_bytes=*/256, /*line=*/64, /*assoc=*/1,
               /*prefetch=*/0, /*requesters=*/1);
  for (Addr a = 0; a < 4 * 64; a += 64) c.access(0, a, false);
  for (Addr a = 0; a < 4 * 64; a += 64) {
    EXPECT_TRUE(c.probe(a)) << "line " << a;
  }
}

TEST(Cache, InstallMakesLineResident) {
  auto c = small_cache();
  Addr wb = 0;
  EXPECT_EQ(c.install(0x123, &wb), 0u);
  EXPECT_TRUE(c.probe(0x100));
}

TEST(Cache, NegativeStrideStreamPrefetches) {
  auto c = small_cache(/*prefetch_depth=*/2);
  c.access(0, 64 * 100, false);
  c.access(0, 64 * 99, false);
  auto o = c.access(0, 64 * 98, false);
  EXPECT_GE(o.num_prefetched, 1u);
  EXPECT_TRUE(c.probe(64 * 97));
}

// ---- reference model ----
//
// A plain transcription of the original CacheArray algorithm: the set
// index by divide/modulo, LRU victims chosen by std::pair keys, and a
// second find() of the line after every install that marks it dirty.
// CacheArray's host-side shortcuts (shift/mask indexing, one set lookup per
// line, a packed victim key, an Outcome whose arrays are not zero-filled)
// must not change a single observable result.
class ReferenceCache {
 public:
  struct Result {
    bool hit = false;
    std::uint32_t num_prefetched = 0;
    std::vector<Addr> fetched;
    std::vector<Addr> writebacks;
  };

  ReferenceCache(std::uint32_t num_banks, std::uint32_t bank_bytes,
                 std::uint32_t line_bytes, std::uint32_t associativity,
                 std::uint32_t prefetch_depth, std::uint32_t num_requesters)
      : num_banks_(num_banks),
        line_bytes_(line_bytes),
        associativity_(associativity),
        prefetch_depth_(prefetch_depth),
        sets_per_bank_(bank_bytes / (line_bytes * associativity)),
        lines_(static_cast<std::size_t>(num_banks) * sets_per_bank_ *
               associativity),
        streams_(static_cast<std::size_t>(num_requesters) * kStreams) {}

  Result access(std::uint32_t requester, Addr addr, bool write,
                bool low_priority) {
    Result out;
    const std::uint64_t line = addr / line_bytes_;
    if (low_priority) {
      Line* resident = find(line);
      if (resident != nullptr) {
        out.hit = true;
        if (write) resident->dirty = true;
        return out;
      }
      Addr wb = 0;
      const bool had_wb = install_line(line, true, &wb);
      out.fetched.push_back(line * line_bytes_);
      if (write) find(line)->dirty = true;
      if (had_wb) out.writebacks.push_back(wb);
      return out;
    }

    Stream* match = nullptr;
    Stream* base = &streams_[static_cast<std::size_t>(requester) * kStreams];
    Stream* victim_stream = base;
    for (std::uint32_t s = 0; s < kStreams; ++s) {
      Stream& cand = base[s];
      if (cand.valid) {
        const auto delta = static_cast<std::int64_t>(line) -
                           static_cast<std::int64_t>(cand.last_line);
        if (delta >= -kWindow && delta <= kWindow) {
          match = &cand;
          break;
        }
      }
      if (!cand.valid || std::tie(cand.confidence, cand.last_use) <
                             std::tie(victim_stream->confidence,
                                      victim_stream->last_use)) {
        victim_stream = &cand;
      }
    }
    if (match == nullptr) {
      *victim_stream = Stream{};
      victim_stream->valid = true;
      victim_stream->last_line = line;
      victim_stream->last_use = ++tick_;
    }
    bool confirmed = false;
    std::int64_t stride = 0;
    if (match != nullptr) {
      match->last_use = ++tick_;
      const auto delta = static_cast<std::int64_t>(line) -
                         static_cast<std::int64_t>(match->last_line);
      if (delta != 0) {
        if (delta == match->stride) {
          if (match->confidence < 4) ++match->confidence;
        } else {
          match->stride = delta;
          match->confidence = 1;
        }
        match->last_line = line;
      }
      confirmed = match->confidence >= 2 && match->stride != 0;
      stride = match->stride;
    }

    auto prefetch = [&](std::uint64_t pf_line) {
      if (find(pf_line) != nullptr) return;
      if (out.fetched.size() >= CacheArray::kMaxFetchedLines) return;
      Addr wb = 0;
      const bool had_wb = install_line(pf_line, true, &wb);
      out.fetched.push_back(pf_line * line_bytes_);
      ++out.num_prefetched;
      if (had_wb) out.writebacks.push_back(wb);
    };

    Line* hit_line = find(line);
    if (hit_line != nullptr) {
      out.hit = true;
      hit_line->last_use = ++tick_;
      if (write) hit_line->dirty = true;
      if (hit_line->prefetched) {
        hit_line->prefetched = false;
        if (confirmed) {
          const std::int64_t next =
              static_cast<std::int64_t>(line) +
              stride * static_cast<std::int64_t>(prefetch_depth_);
          if (next > 0) prefetch(static_cast<std::uint64_t>(next));
        }
      }
      return out;
    }
    Addr wb = 0;
    const bool had_wb = install_line(line, false, &wb);
    out.fetched.push_back(line * line_bytes_);
    if (had_wb) out.writebacks.push_back(wb);
    if (write) find(line)->dirty = true;
    if (confirmed) {
      for (std::uint32_t i = 1; i <= prefetch_depth_; ++i) {
        const std::int64_t next = static_cast<std::int64_t>(line) +
                                  stride * static_cast<std::int64_t>(i);
        if (next > 0) prefetch(static_cast<std::uint64_t>(next));
      }
    }
    return out;
  }

  std::uint32_t install(Addr addr, Addr* writeback_out) {
    Addr wb = 0;
    const bool had_wb = install_line(addr / line_bytes_, false, &wb);
    if (had_wb) *writeback_out = wb;
    return had_wb ? 1u : 0u;
  }

  bool probe(Addr addr) { return find(addr / line_bytes_) != nullptr; }

  std::vector<Addr> flush() {
    std::vector<Addr> dirty;
    for (Line& l : lines_) {
      if (l.valid && l.dirty) dirty.push_back(l.line_addr * line_bytes_);
      l = Line{};
    }
    for (Stream& s : streams_) s = Stream{};
    tick_ = 0;
    return dirty;
  }

 private:
  struct Line {
    std::uint64_t line_addr = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;
  };
  struct Stream {
    std::uint64_t last_line = 0;
    std::int64_t stride = 0;
    std::uint32_t confidence = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };
  static constexpr std::uint32_t kStreams = 4;
  static constexpr std::int64_t kWindow = 64;

  std::size_t set_base(std::uint64_t line) const {
    const std::uint64_t bank = line % num_banks_;
    const std::uint64_t set = (line / num_banks_) % sets_per_bank_;
    return static_cast<std::size_t>((bank * sets_per_bank_ + set) *
                                    associativity_);
  }
  Line* find(std::uint64_t line) {
    const std::size_t base = set_base(line);
    for (std::uint32_t w = 0; w < associativity_; ++w) {
      Line& l = lines_[base + w];
      if (l.valid && l.line_addr == line) return &l;
    }
    return nullptr;
  }
  Line& victim(std::uint64_t line) {
    const std::size_t base = set_base(line);
    Line* best = &lines_[base];
    for (std::uint32_t w = 0; w < associativity_; ++w) {
      Line& l = lines_[base + w];
      if (!l.valid) return l;
      if (std::make_pair(!l.prefetched, l.last_use) <
          std::make_pair(!best->prefetched, best->last_use)) {
        best = &l;
      }
    }
    return *best;
  }
  bool install_line(std::uint64_t line, bool prefetched, Addr* writeback) {
    Line& v = victim(line);
    const bool wb = v.valid && v.dirty;
    if (wb) *writeback = v.line_addr * line_bytes_;
    v.line_addr = line;
    v.valid = true;
    v.dirty = false;
    v.prefetched = prefetched;
    v.last_use = ++tick_;
    return wb;
  }

  std::uint32_t num_banks_;
  std::uint32_t line_bytes_;
  std::uint32_t associativity_;
  std::uint32_t prefetch_depth_;
  std::uint32_t sets_per_bank_;
  std::uint64_t tick_ = 0;
  std::vector<Line> lines_;
  std::vector<Stream> streams_;
};

::testing::AssertionResult same_outcome(const CacheArray::Outcome& got,
                                        const ReferenceCache::Result& want) {
  if (got.hit != want.hit) return ::testing::AssertionFailure() << "hit";
  if (got.num_prefetched != want.num_prefetched) {
    return ::testing::AssertionFailure() << "num_prefetched";
  }
  if (got.num_fetched != want.fetched.size()) {
    return ::testing::AssertionFailure()
           << "num_fetched " << got.num_fetched << " vs "
           << want.fetched.size();
  }
  if (got.num_writebacks != want.writebacks.size()) {
    return ::testing::AssertionFailure()
           << "num_writebacks " << got.num_writebacks << " vs "
           << want.writebacks.size();
  }
  for (std::uint32_t i = 0; i < got.num_fetched; ++i) {
    if (got.fetched_lines[i] != want.fetched[i]) {
      return ::testing::AssertionFailure() << "fetched_lines[" << i << "]";
    }
  }
  for (std::uint32_t i = 0; i < got.num_writebacks; ++i) {
    if (got.writeback_lines[i] != want.writebacks[i]) {
      return ::testing::AssertionFailure() << "writeback_lines[" << i << "]";
    }
  }
  return ::testing::AssertionSuccess();
}

struct Geometry {
  std::uint32_t banks;
  std::uint32_t bank_bytes;
  std::uint32_t line_bytes;
  std::uint32_t assoc;
  std::uint32_t prefetch_depth;
};

/// Drives CacheArray and the reference model with one seeded sequence of
/// strided and random demand/low-priority reads and writes, installs,
/// probes and flushes, comparing every observable result.
void expect_matches_reference(const Geometry& g, std::uint64_t seed) {
  constexpr std::uint32_t kRequesters = 4;
  CacheArray cache(g.banks, g.bank_bytes, g.line_bytes, g.assoc,
                   g.prefetch_depth, kRequesters);
  ReferenceCache ref(g.banks, g.bank_bytes, g.line_bytes, g.assoc,
                     g.prefetch_depth, kRequesters);
  Rng rng(seed, "cache_reference");
  // Four times the capacity keeps evictions (and dirty writebacks) common.
  const std::uint64_t span = 4ull * g.banks * g.bank_bytes;
  std::int64_t stream_pos[kRequesters] = {};
  std::int64_t stream_stride[kRequesters] = {};
  for (std::uint32_t r = 0; r < kRequesters; ++r) {
    stream_pos[r] = static_cast<std::int64_t>(rng.next_below(span));
    const std::int64_t strides[] = {8, 64, 128, -64, 3 * 64, 1024};
    stream_stride[r] = strides[rng.next_below(6)];
  }

  for (int op = 0; op < 6000; ++op) {
    const std::uint64_t kind = rng.next_below(1000);
    const auto requester =
        static_cast<std::uint32_t>(rng.next_below(kRequesters));
    Addr addr = 0;
    if (rng.next_below(2) == 0) {
      std::int64_t& pos = stream_pos[requester];
      pos += stream_stride[requester];
      if (pos < 0) pos += static_cast<std::int64_t>(span);
      addr = static_cast<Addr>(pos) % span;
    } else {
      addr = rng.next_below(span);
    }
    const std::string where = "op " + std::to_string(op);

    if (kind < 5) {
      std::vector<Addr> dirty;
      const std::uint64_t n = cache.flush(&dirty);
      const std::vector<Addr> want = ref.flush();
      ASSERT_EQ(n, want.size()) << where;
      ASSERT_EQ(dirty, want) << where;
    } else if (kind < 60) {
      Addr wb_got = 0;
      Addr wb_want = 0;
      const std::uint32_t n = cache.install(addr, &wb_got);
      ASSERT_EQ(n, ref.install(addr, &wb_want)) << where;
      if (n != 0) ASSERT_EQ(wb_got, wb_want) << where;
    } else {
      const bool write = rng.next_below(10) < 3;
      const bool low_priority = rng.next_below(10) < 2;
      ASSERT_TRUE(same_outcome(cache.access(requester, addr, write,
                                            low_priority),
                               ref.access(requester, addr, write,
                                          low_priority)))
          << where;
    }
    const Addr other = rng.next_below(span);
    ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << where;
    ASSERT_EQ(cache.probe(other), ref.probe(other)) << where;
  }
  std::vector<Addr> dirty;
  cache.flush(&dirty);
  EXPECT_EQ(dirty, ref.flush());
}

TEST(CacheReference, MatchesReferenceModelOverGeometries) {
  // Non-power-of-two bank counts (3, 6, 18: a 3x6 system's arrays) and
  // bank sizes with a non-power-of-two set count take the divide path;
  // the rest take the shift/mask path.
  std::uint64_t seed = 1;
  for (const std::uint32_t banks : {1u, 3u, 6u, 8u, 18u, 64u}) {
    for (const std::uint32_t assoc : {1u, 2u, 4u}) {
      for (const std::uint32_t line : {32u, 64u}) {
        for (const std::uint32_t bank_bytes : {4096u, 3 * 1024u}) {
          const Geometry g{banks, bank_bytes, line, assoc,
                           static_cast<std::uint32_t>(seed % 9)};
          SCOPED_TRACE("banks=" + std::to_string(banks) +
                       " assoc=" + std::to_string(assoc) +
                       " line=" + std::to_string(line) +
                       " bank_bytes=" + std::to_string(bank_bytes) +
                       " depth=" + std::to_string(g.prefetch_depth));
          expect_matches_reference(g, seed++);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cosparse::sim
