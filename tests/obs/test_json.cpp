#include "common/json.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"

namespace cosparse {
namespace {

TEST(Json, BuildsOrderedObjects) {
  Json j = Json::object();
  j["zebra"] = 1;
  j["apple"] = 2;
  j["mango"] = 3;
  // Insertion order survives (reports diff cleanly across runs).
  EXPECT_EQ(j.dump(), R"({"zebra":1,"apple":2,"mango":3})");
}

TEST(Json, NullPromotesToObjectOrArrayOnFirstUse) {
  Json j;
  j["a"]["b"] = true;
  EXPECT_EQ(j.dump(), R"({"a":{"b":true}})");
  Json arr;
  arr.push_back(1);
  arr.push_back("two");
  EXPECT_EQ(arr.dump(), R"([1,"two"])");
}

TEST(Json, IntegersStayExact) {
  const std::int64_t big = (std::int64_t{1} << 53) + 1;  // not double-exact
  Json j = Json::object();
  j["v"] = big;
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.find("v")->as_int(), big);
}

TEST(Json, ParsesRoundTrip) {
  const char* text =
      R"({"name":"run","ok":true,"none":null,"n":42,"x":1.5,)"
      R"("arr":[1,2,3],"nested":{"k":"v"}})";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.find("name")->as_string(), "run");
  EXPECT_TRUE(j.find("ok")->as_bool());
  EXPECT_TRUE(j.find("none")->is_null());
  EXPECT_EQ(j.find("n")->as_int(), 42);
  EXPECT_DOUBLE_EQ(j.find("x")->as_double(), 1.5);
  EXPECT_EQ(j.find("arr")->size(), 3u);
  EXPECT_EQ(j.find("arr")->at(2).as_int(), 3);
  EXPECT_EQ(j.find("nested")->find("k")->as_string(), "v");
  // Dump of the parse re-parses to the same dump (fixed point).
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
}

TEST(Json, EscapesStrings) {
  Json j = Json::object();
  j["s"] = std::string("a\"b\\c\n\t\x01");
  const std::string text = j.dump();
  const Json back = Json::parse(text);
  EXPECT_EQ(back.find("s")->as_string(), "a\"b\\c\n\t\x01");
}

TEST(Json, PrettyPrintReparses) {
  Json j = Json::object();
  j["arr"].push_back(1);
  j["arr"].push_back(2);
  j["obj"]["k"] = "v";
  const std::string pretty = j.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty).dump(), j.dump());
}

TEST(Json, NonFiniteDumpsAsNull) {
  Json j = Json::object();
  j["inf"] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(j.dump(), R"({"inf":null})");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(Json::parse("nul"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
}

TEST(Json, ParseRejectsDeeplyNestedArrays) {
  // One frame per level: a million '[' would overflow the stack.
  const std::string deep(1000000, '[');
  EXPECT_THROW(Json::parse(deep), Error);
  // The error names the offset of the first bracket past the limit.
  const std::string over(Json::kMaxDepth + 1, '[');
  try {
    (void)Json::parse(over + std::string(Json::kMaxDepth + 1, ']'));
    FAIL() << "expected a nesting error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "offset " + std::to_string(Json::kMaxDepth)),
              std::string::npos)
        << e.what();
  }
}

TEST(Json, ParseRejectsDeeplyNestedObjects) {
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += "{\"a\":";
  EXPECT_THROW(Json::parse(deep), Error);
}

TEST(Json, ParsesNestingExactlyAtTheLimit) {
  const auto depth = static_cast<std::size_t>(Json::kMaxDepth);
  const Json arrays =
      Json::parse(std::string(depth, '[') + std::string(depth, ']'));
  const Json* inner = &arrays;
  for (std::size_t i = 1; i < depth; ++i) inner = &inner->at(0);
  EXPECT_TRUE(inner->is_array());
  EXPECT_EQ(inner->size(), 0u);

  std::string objects;
  for (std::size_t i = 1; i < depth; ++i) objects += "{\"a\":";
  objects += "{}" + std::string(depth - 1, '}');
  EXPECT_TRUE(Json::parse(objects).is_object());
}

TEST(Json, FindReturnsNullptrOnMissingKey) {
  const Json j = Json::parse(R"({"a":1})");
  EXPECT_EQ(j.find("b"), nullptr);
  EXPECT_NE(j.find("a"), nullptr);
}

TEST(Json, Uint64AboveInt64MaxFallsBackToDouble) {
  const Json j(static_cast<unsigned long long>(
      std::numeric_limits<std::uint64_t>::max()));
  EXPECT_TRUE(j.is_number());
  EXPECT_NEAR(j.as_double(), 1.8446744073709552e19, 1e4);
}

}  // namespace
}  // namespace cosparse
