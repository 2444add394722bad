// Exec-mode resolution and the host-capability stamps native reports carry.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/error.h"
#include "native/exec_mode.h"
#include "native/simd.h"

namespace cosparse {
namespace {

TEST(ExecMode, ParsesAndPrints) {
  EXPECT_EQ(native::exec_mode_from_string("sim"), native::ExecMode::kSim);
  EXPECT_EQ(native::exec_mode_from_string("native"),
            native::ExecMode::kNative);
  EXPECT_STREQ(native::to_string(native::ExecMode::kSim), "sim");
  EXPECT_STREQ(native::to_string(native::ExecMode::kNative), "native");
  EXPECT_THROW((void)native::exec_mode_from_string("fast"), Error);
  EXPECT_THROW((void)native::exec_mode_from_string(""), Error);
}

TEST(ExecMode, CliWinsOverEnvironment) {
  ::setenv("COSPARSE_EXEC_MODE", "native", 1);
  EXPECT_EQ(native::resolve_exec_mode(std::string("sim")),
            native::ExecMode::kSim);
  EXPECT_EQ(native::resolve_exec_mode(std::nullopt),
            native::ExecMode::kNative);
  ::setenv("COSPARSE_EXEC_MODE", "bogus", 1);
  EXPECT_THROW((void)native::resolve_exec_mode(std::nullopt), Error);
  ::unsetenv("COSPARSE_EXEC_MODE");
  EXPECT_EQ(native::resolve_exec_mode(std::nullopt), native::ExecMode::kSim);
}

TEST(Simd, LevelAndModelStringsAreWellFormed) {
  // simd_level() is cached process-wide; just pin the printable forms and
  // that detection returns one of the known levels.
  const native::SimdLevel level = native::simd_level();
  EXPECT_TRUE(level == native::SimdLevel::kScalar ||
              level == native::SimdLevel::kAvx2);
  EXPECT_STREQ(native::to_string(native::SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(native::to_string(native::SimdLevel::kAvx2), "avx2");
  EXPECT_FALSE(native::cpu_model_string().empty());
}

}  // namespace
}  // namespace cosparse
