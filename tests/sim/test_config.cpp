#include "sim/config.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace cosparse::sim {
namespace {

TEST(SystemConfig, TransmuterDefaultsMatchTableTwo) {
  const auto cfg = SystemConfig::transmuter(16, 16);
  EXPECT_EQ(cfg.num_pes(), 256u);
  EXPECT_DOUBLE_EQ(cfg.freq_ghz, 1.0);
  EXPECT_EQ(cfg.bank_bytes, 4096u);
  EXPECT_EQ(cfg.line_bytes, 64u);
  EXPECT_EQ(cfg.associativity, 4u);
  EXPECT_EQ(cfg.dram_channels, 16u);
  EXPECT_DOUBLE_EQ(cfg.dram_bytes_per_cycle_per_channel, 8.0);
  EXPECT_DOUBLE_EQ(cfg.dram_latency_min, 80.0);
  EXPECT_DOUBLE_EQ(cfg.dram_latency_max, 150.0);
  EXPECT_DOUBLE_EQ(cfg.reconfig_cycles, 10.0);
}

TEST(SystemConfig, DerivedCapacities) {
  const auto cfg = SystemConfig::transmuter(4, 8);
  EXPECT_EQ(cfg.l1_banks_per_tile(), 8u);
  EXPECT_EQ(cfg.l1_bytes_per_tile(), 32u * 1024u);
  EXPECT_EQ(cfg.l2_bytes_total(), 128u * 1024u);
  EXPECT_EQ(cfg.scs_spm_bytes_per_tile(), 16u * 1024u);
  EXPECT_EQ(cfg.ps_spm_bytes_per_pe(), 4096u);
  EXPECT_DOUBLE_EQ(cfg.dram_peak_bytes_per_cycle(), 128.0);
  EXPECT_EQ(cfg.name(), "4x8");
}

TEST(SystemConfig, LcpCostGrowsWithPes) {
  EXPECT_LT(SystemConfig::transmuter(4, 8).lcp_cycles_per_element(),
            SystemConfig::transmuter(4, 32).lcp_cycles_per_element());
}

TEST(SystemConfig, RejectsInvalidShapes) {
  EXPECT_THROW(SystemConfig::transmuter(0, 8), Error);
  EXPECT_THROW(SystemConfig::transmuter(4, 1), Error);
  EXPECT_THROW(SystemConfig::transmuter(4, 7), Error);  // odd: SCS can't split
}

TEST(HwConfig, NamesRoundTrip) {
  for (auto c : {HwConfig::kSC, HwConfig::kSCS, HwConfig::kPC,
                 HwConfig::kPS}) {
    EXPECT_EQ(hw_config_from_string(to_string(c)), c);
  }
  EXPECT_EQ(hw_config_from_string("scs"), HwConfig::kSCS);  // case-insensitive
  EXPECT_THROW((void)hw_config_from_string("XYZ"), Error);
}

TEST(HwConfig, Predicates) {
  EXPECT_TRUE(is_shared(HwConfig::kSC));
  EXPECT_TRUE(is_shared(HwConfig::kSCS));
  EXPECT_FALSE(is_shared(HwConfig::kPC));
  EXPECT_FALSE(is_shared(HwConfig::kPS));
  EXPECT_TRUE(has_l1_spm(HwConfig::kSCS));
  EXPECT_TRUE(has_l1_spm(HwConfig::kPS));
  EXPECT_FALSE(has_l1_spm(HwConfig::kSC));
  EXPECT_FALSE(has_l1_spm(HwConfig::kPC));
}

}  // namespace
}  // namespace cosparse::sim
