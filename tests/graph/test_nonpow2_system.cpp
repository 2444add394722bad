// Pins a non-power-of-two system end to end.
//
// transmuter(3, 6) builds 6-bank shared L1s (SC), 3-bank L1s (SCS), an
// 18-bank global L2 and 6-bank per-tile L2s (PC, PS), so every cache array
// of this system indexes its sets through CacheArray's divide path rather
// than the shift/mask path the power-of-two shapes take. A small seeded BFS
// followed by an SSSP runs once per hardware configuration (pinned), and
// once with the decision tree free to reconfigure. The machine's counters,
// its per-tile counters and its cycles must equal the values recorded from
// the simulator as it was before the shift/mask path was added.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "common/digest.h"
#include "graph/algorithms.h"
#include "sparse/generate.h"

namespace cosparse::graph {
namespace {

using runtime::Engine;
using runtime::EngineOptions;
using runtime::SwConfig;
using sim::HwConfig;

/// Bit-exact fold of every raw counter (doubles by their IEEE-754 bits).
void fold(const sim::Stats& s, Digest& d) {
  s.for_each_counter([&](std::string_view, double v) { d.update_value(v); });
}

struct Pinned {
  const char* name;
  std::optional<SwConfig> sw;  ///< nullopt: decision tree picks sw and hw
  HwConfig hw;                 ///< pinned with `sw`; unused when sw is nullopt
  Cycles cycles;
  std::uint64_t l1_hits;
  std::uint64_t l2_hits;
  std::uint64_t dram_bytes;
  const char* stats_digest;  ///< fold() of Machine::stats()
  const char* tiles_digest;  ///< fold() of every tile_stats() entry in order
};

// Recorded from the simulator before the shift/mask set-index path existed.
constexpr Pinned kPinned[] = {
    {"IP/SC", SwConfig::kIP, HwConfig::kSC, 215369, 968405, 50266, 9714008,
     "5df1918d879570ab", "9340a9308af3e93a"},
    {"IP/SCS", SwConfig::kIP, HwConfig::kSCS, 237978, 895095, 95987,
     11679448, "bd4a585ac25dad63", "47703fbdb0993970"},
    {"OP/PC", SwConfig::kOP, HwConfig::kPC, 257982, 757982, 13542, 3969984,
     "390cdf79b779ca7a", "8839320003d29d7e"},
    {"OP/PS", SwConfig::kOP, HwConfig::kPS, 287856, 0, 52611, 3021440,
     "6f09e3465020f811", "3638794886515109"},
    {"auto", std::nullopt, HwConfig::kSC, 131432, 510359, 31198, 5411606,
     "e3f0cbdc54769752", "040b869ff1929e11"},
};

TEST(NonPowerOfTwoSystem, SimBfsSsspMatchesPinnedCounters) {
  const sim::SystemConfig cfg = sim::SystemConfig::transmuter(3, 6);
  const sparse::Coo adj = sparse::power_law(3000, 3000, 24000, 2.1, 31);
  bool reached[4] = {};
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(p.name);
    EngineOptions opts;
    if (p.sw.has_value()) {
      opts.sw_reconfig = false;
      opts.fixed_sw = *p.sw;
      opts.hw_reconfig = false;
      opts.fixed_hw = p.hw;
    }
    Engine eng(adj, cfg, opts);
    bfs(eng, 0);
    sssp(eng, 0);
    for (const auto& rec : eng.iterations()) {
      reached[static_cast<int>(rec.hw)] = true;
    }

    const sim::Machine& m = eng.machine();
    Digest stats;
    fold(m.stats(), stats);
    Digest tiles;
    for (const sim::Stats& t : m.tile_stats()) fold(t, tiles);
    EXPECT_EQ(m.cycles(), p.cycles);
    EXPECT_EQ(m.stats().l1_hits, p.l1_hits);
    EXPECT_EQ(m.stats().l2_hits, p.l2_hits);
    EXPECT_EQ(m.stats().dram_bytes(), p.dram_bytes);
    EXPECT_EQ(stats.hex(), p.stats_digest);
    EXPECT_EQ(tiles.hex(), p.tiles_digest);
  }
  for (int hw = 0; hw < 4; ++hw) {
    EXPECT_TRUE(reached[hw]) << to_string(static_cast<HwConfig>(hw));
  }
}

}  // namespace
}  // namespace cosparse::graph
