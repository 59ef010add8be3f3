#include "src/core/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "src/core/error.hpp"

namespace castanet::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse("2.5").as_double(), 2.5);
  EXPECT_EQ(parse("\"hello\"").as_string(), "hello");
}

TEST(Json, IntegralViewOnlyForIntegralText) {
  EXPECT_TRUE(parse("3").is_number());
  EXPECT_EQ(parse("3").as_int(), 3);
  EXPECT_THROW(parse("3.5").as_int(), LogicError);
  EXPECT_DOUBLE_EQ(parse("3").as_double(), 3.0);
}

TEST(Json, ParsesNestedStructure) {
  const Value v = parse(R"({
    "name": "cross_run",
    "defaults": { "cells": 32, "deep": [1, 2, {"k": true}] },
    "matrix": { "seed": [1, 2, 3] }
  })");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.string_or("name", ""), "cross_run");
  const Value* defaults = v.find("defaults");
  ASSERT_NE(defaults, nullptr);
  EXPECT_EQ(defaults->int_or("cells", 0), 32);
  const Value* deep = defaults->find("deep");
  ASSERT_TRUE(deep != nullptr && deep->is_array());
  ASSERT_EQ(deep->as_array().size(), 3u);
  EXPECT_TRUE(deep->as_array()[2].bool_or("k", false));
}

TEST(Json, ObjectKeyOrderPreserved) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  const Object& o = v.as_object();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
  EXPECT_EQ(v.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  // Dump re-escapes so the round trip is stable.
  const Value v = parse(R"({"s": "line1\nline2"})");
  EXPECT_EQ(parse(v.dump()).string_or("s", ""), "line1\nline2");
}

TEST(Json, DumpParseRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":-3},"d":"e"})";
  const Value v = parse(text);
  EXPECT_EQ(v.dump(), text);
  EXPECT_EQ(parse(v.dump()).dump(), text);
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  // JSON has no NaN or infinity literal; writing one must still parse.
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    const Value doc(v);
    EXPECT_EQ(doc.dump(), "null");
    EXPECT_TRUE(parse(doc.dump()).is_null());
    EXPECT_THROW(doc.as_int(), LogicError);
  }
}

TEST(Json, DoublesOutsideInt64RangeRoundTrip) {
  for (const double v : {1e300, -1e300, 9.3e18, -9.3e18, 1.0 / 3.0, 5e-324}) {
    const Value doc(v);
    EXPECT_THROW(doc.as_int(), LogicError) << v;
    EXPECT_EQ(parse(doc.dump()).as_double(), v);
  }
  // Integral doubles inside the range keep their exact integer view.
  EXPECT_EQ(Value(-9223372036854775808.0).as_int(), INT64_MIN);
  EXPECT_EQ(Value(4096.0).dump(), "4096");
}

TEST(Json, NumbersAreReadWhole) {
  EXPECT_THROW(parse("1-2"), IoError);
  EXPECT_THROW(parse("[1.5e3e4]"), IoError);
  EXPECT_THROW(parse("1e999"), IoError);
  EXPECT_THROW(parse("99999999999999999999"), IoError);
  // Subnormals underflow gracefully instead of being refused.
  EXPECT_EQ(parse("4.9406564584124654e-324").as_double(), 5e-324);
}

TEST(Json, AppendQuotedEscapesControlCharacters) {
  std::string out = "x";
  append_quoted(out, std::string("a\"b\\c\x01\n", 7));
  EXPECT_EQ(out, "x\"a\\\"b\\\\c\\u0001\\n\"");
  EXPECT_EQ(parse(out.substr(1)).as_string(), std::string("a\"b\\c\x01\n", 7));
}

TEST(Json, FallbackAccessors) {
  const Value v = parse(R"({"s": "x", "n": 5, "b": true})");
  EXPECT_EQ(v.string_or("s", "d"), "x");
  EXPECT_EQ(v.string_or("missing", "d"), "d");
  EXPECT_EQ(v.int_or("n", 0), 5);
  EXPECT_EQ(v.int_or("missing", 9), 9);
  EXPECT_TRUE(v.bool_or("b", false));
  EXPECT_FALSE(v.bool_or("missing", false));
  // Wrong-kind members fall back too (string_or on a number, etc).
  EXPECT_EQ(v.string_or("n", "d"), "d");
}

TEST(Json, MutationHelpers) {
  Value v{Object{}};
  v.set("a", 1);
  v.set("b", "x");
  v.set("a", 2);  // replace, not append
  EXPECT_EQ(v.as_object().size(), 2u);
  EXPECT_EQ(v.int_or("a", 0), 2);
  Value arr{Array{}};
  arr.push_back(1);
  arr.push_back("two");
  ASSERT_EQ(arr.as_array().size(), 2u);
  v.set("list", std::move(arr));
  EXPECT_EQ(v.dump(), R"({"a":2,"b":"x","list":[1,"two"]})");
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(parse(""), IoError);
  EXPECT_THROW(parse("{"), IoError);
  EXPECT_THROW(parse("{\"a\": }"), IoError);
  EXPECT_THROW(parse("[1, 2,]"), IoError);
  EXPECT_THROW(parse("tru"), IoError);
  EXPECT_THROW(parse("1 2"), IoError);  // trailing non-whitespace
  EXPECT_THROW(parse("\"unterminated"), IoError);
}

TEST(Json, NestingDepthIsBounded) {
  // The parser recurses once per container level: past 512 levels it
  // rejects the input with the usual typed error instead of overflowing
  // the stack.  512 levels still parse.
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const auto objects = [](std::size_t depth) {
    std::string doc;
    for (std::size_t i = 0; i < depth; ++i) doc += "{\"k\":";
    return doc + "0" + std::string(depth, '}');
  };
  EXPECT_NO_THROW(parse(arrays(512)));
  EXPECT_NO_THROW(parse(objects(512)));
  EXPECT_THROW(parse(arrays(513)), IoError);
  EXPECT_THROW(parse(objects(513)), IoError);
  try {
    parse(std::string(100000, '['));
    FAIL() << "100,000 nested '[' parsed";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("json parse error at line 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(Json, KindMismatchThrows) {
  const Value v = parse("[1]");
  EXPECT_THROW(v.as_object(), LogicError);
  EXPECT_THROW(v.as_string(), LogicError);
  EXPECT_EQ(v.find("x"), nullptr);  // find on a non-object is just absent
}

TEST(Json, ParseFile) {
  const std::string path = ::testing::TempDir() + "castanet_json_test.json";
  {
    std::ofstream f(path);
    f << R"({"name": "from_file", "n": 7})";
  }
  const Value v = parse_file(path);
  EXPECT_EQ(v.string_or("name", ""), "from_file");
  EXPECT_EQ(v.int_or("n", 0), 7);
  std::remove(path.c_str());
  EXPECT_THROW(parse_file(path), IoError);
}

}  // namespace
}  // namespace castanet::json
