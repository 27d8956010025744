// The JSON reader's contract: full-grammar parsing with checked typed
// accessors, plus the two strictnesses job specs and store snapshots rely
// on — duplicate object keys and trailing garbage are errors, and every
// syntax error carries a 1-based line:column location.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace apsq {
namespace {

TEST(Json, ParsesScalarsArraysAndNestedObjects) {
  const JsonValue v = json_parse(
      "{\"n\": null, \"b\": true, \"x\": -2.5e3, \"s\": \"hi\","
      " \"a\": [1, 2, 3], \"o\": {\"k\": false}}");
  EXPECT_TRUE(v.is_object());
  EXPECT_TRUE(v.get("n").is_null());
  EXPECT_EQ(v.get("b").as_bool(), true);
  EXPECT_DOUBLE_EQ(v.get("x").as_number(), -2500.0);
  EXPECT_EQ(v.get("s").as_string(), "hi");
  ASSERT_EQ(v.get("a").size(), 3u);
  EXPECT_EQ(v.get("a").at(1).as_i64(), 2);
  EXPECT_EQ(v.get("o").get("k").as_bool(), false);
}

TEST(Json, MembersPreserveSourceOrder) {
  const JsonValue v = json_parse("{\"z\": 1, \"a\": 2, \"m\": 3}");
  const auto& m = v.members();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].first, "z");
  EXPECT_EQ(m[1].first, "a");
  EXPECT_EQ(m[2].first, "m");
}

TEST(Json, StringEscapesDecode) {
  const JsonValue v =
      json_parse("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  EXPECT_EQ(v.as_string(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(Json, NumbersRoundTripThroughSeventeenSignificantDigits) {
  const JsonValue v = json_parse("[0.1, 1e-300, 9007199254740993.0]");
  EXPECT_DOUBLE_EQ(v.at(0).as_number(), 0.1);
  EXPECT_DOUBLE_EQ(v.at(1).as_number(), 1e-300);
  // 2^53 + 1 is not exactly representable — as_i64 must reject rather
  // than silently round, but as_number returns the nearest double.
  EXPECT_DOUBLE_EQ(v.at(2).as_number(), 9007199254740992.0);
}

TEST(Json, AccessorsThrowNamingActualType) {
  const JsonValue v = json_parse("{\"s\": \"x\", \"f\": 2.5}");
  EXPECT_THROW(v.get("s").as_number(), std::invalid_argument);
  EXPECT_THROW(v.get("f").as_i64(), std::invalid_argument);  // fractional
  EXPECT_THROW(v.get("missing"), std::invalid_argument);
  EXPECT_THROW(v.at(0), std::invalid_argument);  // object, not array
  try {
    v.get("s").as_number();
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("expected a number, got string"),
              std::string::npos);
  }
}

TEST(Json, RejectsDuplicateKeysTrailingGarbageAndBadSyntax) {
  EXPECT_THROW(json_parse("{\"a\": 1, \"a\": 2}"), std::invalid_argument);
  EXPECT_THROW(json_parse("{} x"), std::invalid_argument);
  EXPECT_THROW(json_parse("[1, 2"), std::invalid_argument);
  EXPECT_THROW(json_parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(json_parse("[01]"), std::invalid_argument);  // leading zero
  EXPECT_THROW(json_parse("[1.]"), std::invalid_argument);
  EXPECT_THROW(json_parse(""), std::invalid_argument);
  EXPECT_THROW(json_parse("tru"), std::invalid_argument);
}

TEST(Json, SyntaxErrorsCarryLineAndColumn) {
  try {
    json_parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

std::string nested_arrays(int depth) {
  return std::string(static_cast<size_t>(depth), '[') +
         std::string(static_cast<size_t>(depth), ']');
}

TEST(Json, NestingUpToTheLimitParses) {
  const JsonValue doc = json_parse(nested_arrays(kJsonMaxNesting));
  const JsonValue* v = &doc;
  for (int d = 1; d < kJsonMaxNesting; ++d) {
    ASSERT_EQ(v->size(), 1u);
    v = &v->at(0);
  }
  EXPECT_EQ(v->size(), 0u);
  // Objects and arrays share one count.
  std::string mixed;
  for (int d = 0; d < kJsonMaxNesting / 2; ++d) mixed += "{\"k\": [";
  for (int d = 0; d < kJsonMaxNesting / 2; ++d) mixed += "]}";
  EXPECT_NO_THROW(json_parse(mixed));
  EXPECT_THROW(json_parse("[" + mixed + "]"), std::invalid_argument);
}

TEST(Json, NestingPastTheLimitThrowsNamingIt) {
  try {
    json_parse(nested_arrays(kJsonMaxNesting + 1));
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nesting deeper than 256 levels"), std::string::npos)
        << what;
    // The location is the bracket that went one level too deep.
    EXPECT_NE(what.find("line 1, column 257"), std::string::npos) << what;
  }
  EXPECT_THROW(json_parse("{\"a\": " + nested_arrays(kJsonMaxNesting) + "}"),
               std::invalid_argument);
}

TEST(Json, MegabyteOfOpenBracketsThrowsInsteadOfOverflowingTheStack) {
  const std::string line(1000000, '[');
  try {
    json_parse(line);
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256 levels"),
              std::string::npos);
  }
}

TEST(Json, ParseFilePrefixesErrorsWithPath) {
  const std::string path = ::testing::TempDir() + "json_test_bad.json";
  std::ofstream(path) << "{ nope";
  try {
    json_parse_file(path);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).find(path), 0u);
  }
  std::remove(path.c_str());
  EXPECT_THROW(json_parse_file(path + ".absent"), std::runtime_error);
}

}  // namespace
}  // namespace apsq
