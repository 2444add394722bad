#include "common/threads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/cli.h"

namespace cosparse {

std::optional<std::uint32_t> parse_thread_count(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint32_t n = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    n = std::min(kMaxHostThreads, n * 10 + static_cast<std::uint32_t>(c - '0'));
  }
  return n;
}

std::uint32_t sim_threads_from_env() {
  const char* v = std::getenv("COSPARSE_SIM_THREADS");
  return v == nullptr ? 0 : parse_thread_count(v).value_or(0);
}

std::optional<std::uint32_t> sim_threads_from_cli(const CliParser& cli) {
  if (!cli.has("sim-threads") || cli.str("sim-threads").empty()) {
    return sim_threads_from_env();
  }
  const std::string v = cli.str("sim-threads");
  const auto n = parse_thread_count(v);
  if (!n.has_value()) {
    std::fprintf(stderr,
                 "%s: option --sim-threads: '%s' is not a thread count "
                 "(expected an integer >= 0)\n",
                 cli.program().c_str(), v.c_str());
  }
  return n;
}

}  // namespace cosparse
