#include "sim/config.h"

#include <algorithm>

#include "common/error.h"

namespace cosparse::sim {

const char* to_string(HwConfig c) {
  switch (c) {
    case HwConfig::kSC: return "SC";
    case HwConfig::kSCS: return "SCS";
    case HwConfig::kPC: return "PC";
    case HwConfig::kPS: return "PS";
  }
  return "?";
}

HwConfig hw_config_from_string(const std::string& name) {
  std::string up = name;
  std::transform(up.begin(), up.end(), up.begin(),
                 [](unsigned char ch) { return static_cast<char>(std::toupper(ch)); });
  if (up == "SC") return HwConfig::kSC;
  if (up == "SCS") return HwConfig::kSCS;
  if (up == "PC") return HwConfig::kPC;
  if (up == "PS") return HwConfig::kPS;
  throw Error("unknown hardware configuration '" + name +
              "' (expected SC, SCS, PC or PS)");
}

SystemConfig SystemConfig::transmuter(std::uint32_t tiles, std::uint32_t pes) {
  COSPARSE_REQUIRE(tiles >= 1 && pes >= 2,
                   "a Transmuter system needs >= 1 tile and >= 2 PEs/tile");
  COSPARSE_REQUIRE(pes % 2 == 0,
                   "pes_per_tile must be even so SCS can split L1 banks");
  SystemConfig cfg;
  cfg.num_tiles = tiles;
  cfg.pes_per_tile = pes;
  return cfg;
}

std::string SystemConfig::name() const {
  return std::to_string(num_tiles) + "x" + std::to_string(pes_per_tile);
}

Json SystemConfig::to_json() const {
  Json o = Json::object();
  o["system"] = name();
  o["num_tiles"] = num_tiles;
  o["pes_per_tile"] = pes_per_tile;
  o["freq_ghz"] = freq_ghz;
  o["bank_bytes"] = bank_bytes;
  o["line_bytes"] = line_bytes;
  o["associativity"] = associativity;
  o["prefetch_depth"] = prefetch_depth;
  o["l1_bytes_per_tile"] = l1_bytes_per_tile();
  o["l2_bytes_total"] = l2_bytes_total();
  o["dram_channels"] = dram_channels;
  o["dram_peak_bytes_per_cycle"] = dram_peak_bytes_per_cycle();
  o["reconfig_cycles"] = reconfig_cycles;
  return o;
}

}  // namespace cosparse::sim
