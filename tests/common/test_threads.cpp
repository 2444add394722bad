#include "common/threads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "common/cli.h"

namespace cosparse {
namespace {

/// Sets COSPARSE_SIM_THREADS for one scope and restores the old value.
class ScopedSimThreadsEnv {
 public:
  explicit ScopedSimThreadsEnv(const char* value) {
    if (const char* old = std::getenv(kName)) old_ = old;
    if (value == nullptr) {
      unsetenv(kName);
    } else {
      setenv(kName, value, 1);
    }
  }
  ~ScopedSimThreadsEnv() {
    if (old_.has_value()) {
      setenv(kName, old_->c_str(), 1);
    } else {
      unsetenv(kName);
    }
  }
  ScopedSimThreadsEnv(const ScopedSimThreadsEnv&) = delete;
  ScopedSimThreadsEnv& operator=(const ScopedSimThreadsEnv&) = delete;

 private:
  static constexpr const char* kName = "COSPARSE_SIM_THREADS";
  std::optional<std::string> old_;
};

std::optional<std::uint32_t> from_cli(const char* value) {
  CliParser cli("prog", "test");
  cli.add_option("sim-threads", "host threads", "");
  const char* argv[] = {"prog", "--sim-threads", value};
  EXPECT_TRUE(cli.parse(3, argv));
  return sim_threads_from_cli(cli);
}

TEST(ThreadCount, ParsesNonNegativeIntegersAndClamps) {
  EXPECT_EQ(parse_thread_count("8"), 8u);
  EXPECT_EQ(parse_thread_count("0"), 0u);
  EXPECT_EQ(parse_thread_count("300"), kMaxHostThreads);
  EXPECT_EQ(parse_thread_count("99999999999999999999"), kMaxHostThreads);
}

TEST(ThreadCount, RejectsEmptyNegativeAndNonNumeric) {
  EXPECT_EQ(parse_thread_count(""), std::nullopt);
  EXPECT_EQ(parse_thread_count("-1"), std::nullopt);
  EXPECT_EQ(parse_thread_count("abc"), std::nullopt);
  EXPECT_EQ(parse_thread_count("4x"), std::nullopt);
  EXPECT_EQ(parse_thread_count("+4"), std::nullopt);
  EXPECT_EQ(parse_thread_count("1.5"), std::nullopt);
}

TEST(ThreadCount, EnvironmentFallsBackToSerial) {
  const struct {
    const char* value;
    std::uint32_t want;
  } cases[] = {{"8", 8},   {"0", 0},   {"-1", 0},     {"abc", 0},
               {"300", kMaxHostThreads}, {"", 0}, {nullptr, 0}};
  for (const auto& c : cases) {
    const ScopedSimThreadsEnv env(c.value);
    EXPECT_EQ(sim_threads_from_env(), c.want)
        << (c.value == nullptr ? "(unset)" : c.value);
  }
}

TEST(ThreadCount, CliOptionWinsOverEnvironment) {
  const ScopedSimThreadsEnv env("3");
  EXPECT_EQ(from_cli("8"), 8u);
  EXPECT_EQ(from_cli("0"), 0u);
  EXPECT_EQ(from_cli("300"), kMaxHostThreads);
  // An empty option defers to the environment.
  EXPECT_EQ(from_cli(""), 3u);
}

TEST(ThreadCount, BadCliOptionIsAUsageError) {
  const ScopedSimThreadsEnv env("3");
  EXPECT_EQ(from_cli("-1"), std::nullopt);
  EXPECT_EQ(from_cli("abc"), std::nullopt);
  EXPECT_EQ(from_cli("2.5"), std::nullopt);
}

}  // namespace
}  // namespace cosparse
