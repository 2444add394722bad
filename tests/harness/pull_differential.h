// Whole-algorithm differential checks for the native `min` pull, shared by
// GatherPullDifferential and SsspBound*: run an algorithm on a serial sim
// engine, then on native engines at 0, 3 and 8 host threads, with the
// engine's own decisions and pinned to the pull on SC and on SCS. Every
// native result, decision sequence and pull count must equal the
// simulator's.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "sim/config.h"

namespace cosparse::harness {

inline runtime::Engine pull_engine(const sparse::Coo& adj,
                                   const sim::SystemConfig& sys,
                                   native::ExecMode mode,
                                   std::uint32_t threads,
                                   std::optional<sim::HwConfig> pinned) {
  runtime::EngineOptions opts;
  opts.exec_mode = mode;
  opts.sim_threads = threads;
  if (pinned) {
    opts.sw_reconfig = false;
    opts.hw_reconfig = false;
    opts.fixed_sw = runtime::SwConfig::kIP;
    opts.fixed_hw = *pinned;
  }
  return runtime::Engine(adj, sys, opts);
}

/// Per-iteration decisions and frontier sizes, mode-independent.
inline std::string decisions(const runtime::Engine& eng) {
  std::string s;
  for (const auto& r : eng.iterations()) {
    s += std::string(runtime::to_string(r.sw)) + sim::to_string(r.hw) + ":" +
         std::to_string(r.frontier_nnz) + " ";
  }
  return s;
}

/// The IEEE bit patterns of `v`, so equality means bit-for-bit.
inline std::vector<std::uint64_t> bits(const std::vector<Value>& v) {
  std::vector<std::uint64_t> b;
  b.reserve(v.size());
  for (const Value d : v) b.push_back(std::bit_cast<std::uint64_t>(d));
  return b;
}

/// Runs `algo` in sim mode, then native at 0, 3 and 8 host threads, every
/// engine pinned to the pull on `pinned` or deciding per iteration when it
/// is nullopt. Returns the simulator's result.
template <class Algo>
auto check_mode(const sparse::Coo& adj, const sim::SystemConfig& sys,
                Algo algo, std::optional<sim::HwConfig> pinned) {
  runtime::Engine sim = pull_engine(adj, sys, native::ExecMode::kSim, 0, pinned);
  const auto want = algo(sim);
  std::size_t sim_pulls = 0;
  for (const auto& r : sim.iterations()) {
    sim_pulls += r.sw == runtime::SwConfig::kIP ? 1 : 0;
  }
  EXPECT_GT(sim_pulls, 0U);
  if (pinned) EXPECT_EQ(sim_pulls, sim.iterations().size());
  for (const std::uint32_t threads : {0U, 3U, 8U}) {
    const std::string what =
        std::string(pinned ? sim::to_string(*pinned) : "decided") + ", " +
        std::to_string(threads) + " native threads";
    runtime::Engine nat =
        pull_engine(adj, sys, native::ExecMode::kNative, threads, pinned);
    EXPECT_EQ(algo(nat), want) << what;
    EXPECT_EQ(decisions(nat), decisions(sim)) << what;
    EXPECT_EQ(nat.native_decisions().pulls(), sim_pulls) << what;
  }
  return want;
}

/// check_mode with the engine's own decisions and pinned to the pull on SC
/// and on SCS, sparse frontiers included; all three must agree.
template <class Algo>
auto check_native(const sparse::Coo& adj, const sim::SystemConfig& sys,
                  Algo algo) {
  const auto decided = check_mode(adj, sys, algo, std::nullopt);
  for (const auto hw : {sim::HwConfig::kSC, sim::HwConfig::kSCS}) {
    EXPECT_EQ(check_mode(adj, sys, algo, hw), decided)
        << "pinned " << sim::to_string(hw) << " pull changed the result";
  }
  return decided;
}

}  // namespace cosparse::harness
