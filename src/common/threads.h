// Host thread counts: the one parser behind --sim-threads and the
// COSPARSE_SIM_THREADS environment variable. Both name the host threads
// that run native kernels; the simulator itself is always serial.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace cosparse {

class CliParser;

/// Upper bound on any host thread count taken from the command line or
/// the environment.
inline constexpr std::uint32_t kMaxHostThreads = 256;

/// Parses a thread count: a plain decimal integer >= 0, clamped to
/// kMaxHostThreads. nullopt when `text` is empty, negative, non-numeric or
/// carries anything besides digits.
[[nodiscard]] std::optional<std::uint32_t> parse_thread_count(
    std::string_view text);

/// COSPARSE_SIM_THREADS as a thread count; 0 (serial) when the variable is
/// unset, empty, non-numeric or negative.
[[nodiscard]] std::uint32_t sim_threads_from_env();

/// The host thread count a command line asks for: --sim-threads when `cli`
/// declares it and it is non-empty, else sim_threads_from_env(). Returns
/// nullopt, after a usage message on stderr, when --sim-threads is not a
/// thread count; callers then exit 2 (usage error).
[[nodiscard]] std::optional<std::uint32_t> sim_threads_from_cli(
    const CliParser& cli);

}  // namespace cosparse
