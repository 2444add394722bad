#include "common/cli.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace cosparse {
namespace {

CliParser make_parser() {
  CliParser p("prog", "test");
  p.add_flag("verbose", "be loud");
  p.add_option("count", "how many", "10");
  p.add_option("ratio", "a ratio", "0.5");
  p.add_option("name", "a name", "default");
  p.add_option("sizes", "comma list", "1,2,3");
  return p;
}

TEST(Cli, DefaultsApply) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_FALSE(p.flag("verbose"));
  EXPECT_EQ(p.integer("count"), 10);
  EXPECT_DOUBLE_EQ(p.real("ratio"), 0.5);
  EXPECT_EQ(p.str("name"), "default");
}

TEST(Cli, SpaceSeparatedValues) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--count", "42", "--verbose"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_EQ(p.integer("count"), 42);
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(Cli, EqualsSeparatedValues) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--ratio=0.25", "--name=abc"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_DOUBLE_EQ(p.real("ratio"), 0.25);
  EXPECT_EQ(p.str("name"), "abc");
}

TEST(Cli, IntListParses) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--sizes", "4,8,16"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.int_list("sizes"), (std::vector<std::int64_t>{4, 8, 16}));
}

TEST(Cli, UnknownOptionRejected) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(p.parse(3, argv));
}

TEST(Cli, MalformedIntegerThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--count", "abc"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_THROW((void)p.integer("count"), Error);
}

TEST(Cli, PositionalArgumentsCollected) {
  auto p = make_parser();
  const char* argv[] = {"prog", "file1", "--count", "3", "file2"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.positional(), (std::vector<std::string>{"file1", "file2"}));
}

TEST(Cli, HelpReturnsFalse) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(Cli, UnregisteredLookupThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_THROW(p.str("nope"), Error);
}

}  // namespace
}  // namespace cosparse
