// Per-test scratch file paths.
//
// gtest_discover_tests registers every test case as its own ctest test, so
// `ctest -j` runs sibling cases of one binary as concurrent processes. A
// fixed file name shared by two cases (or a per-process counter, which
// restarts at 0 in every process) lets them overwrite each other's files.
// unique_temp_path() names the file after the running test and the process
// id, under testing::TempDir(), so no two concurrent cases share a path.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <string_view>

namespace cosparse::test {

/// `<TempDir>cosparse_<Suite>.<Test>_<pid>_<name>`; '/' in parameterized
/// suite and test names becomes '_'. Call it from inside a test body or
/// fixture method.
inline std::string unique_temp_path(std::string_view name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string id = info == nullptr ? std::string("no_test")
                                   : std::string(info->test_suite_name()) +
                                         "." + info->name();
  for (char& c : id) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "cosparse_" + id + "_" +
         std::to_string(::getpid()) + "_" + std::string(name);
}

}  // namespace cosparse::test
