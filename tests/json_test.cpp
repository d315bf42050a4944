// Unit tests for the minimal JSON value / parser / writer.
#include "json/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace catalyst::json {
namespace {

// --- value type -----------------------------------------------------------------

TEST(JsonValue, TypePredicatesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(3.5).is_number());
  EXPECT_TRUE(Value(7).is_number());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value::array().is_array());
  EXPECT_TRUE(Value::object().is_object());

  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_DOUBLE_EQ(Value(2.5).as_number(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
}

TEST(JsonValue, WrongTypeAccessThrows) {
  EXPECT_THROW(Value(1.0).as_string(), JsonError);
  EXPECT_THROW(Value("x").as_number(), JsonError);
  EXPECT_THROW(Value().as_array(), JsonError);
  EXPECT_THROW(Value(true).at("k"), JsonError);
  EXPECT_THROW(Value(true).at(0), JsonError);
}

TEST(JsonValue, ArrayBuilding) {
  Value a = Value::array();
  a.push_back(1);
  a.push_back("two");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.at(0).as_number(), 1.0);
  EXPECT_EQ(a.at(1).as_string(), "two");
  EXPECT_THROW(a.at(2), JsonError);
}

TEST(JsonValue, ObjectBuildingAndNullPromotion) {
  Value o;  // null
  o["k"] = 5;  // promotes to object
  EXPECT_TRUE(o.is_object());
  EXPECT_TRUE(o.contains("k"));
  EXPECT_FALSE(o.contains("missing"));
  EXPECT_THROW(o.at("missing"), JsonError);
}

TEST(JsonValue, IntegersAreExact) {
  constexpr std::uint64_t kBig = (std::uint64_t{1} << 63) + 1;  // no double
  EXPECT_EQ(Value(kBig).as_u64(), kBig);
  EXPECT_EQ(Value(std::numeric_limits<std::int64_t>::min()).as_i64(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Value(-3).as_i64(), -3);
  EXPECT_EQ(Value(std::size_t{7}).as_i64(), 7);
  EXPECT_DOUBLE_EQ(Value(kBig).as_number(), 9223372036854775808.0);
}

TEST(JsonValue, CheckedIntegerAccessRefusesWhatDoesNotFit) {
  EXPECT_EQ(Value(5.0).as_u64(), 5u);
  EXPECT_EQ(Value(-5.0).as_i64(), -5);
  for (const Value& bad : {Value(-1), Value(2.5), Value(1e300),
                           Value(-0.5), Value("7"), Value()}) {
    EXPECT_THROW(bad.as_u64(), JsonError);
  }
  EXPECT_THROW(Value(std::numeric_limits<std::uint64_t>::max()).as_i64(),
               JsonError);
  EXPECT_THROW(Value(9223372036854775808.0).as_i64(), JsonError);
  EXPECT_THROW(Value(18446744073709551616.0).as_u64(), JsonError);
}

TEST(JsonValue, NumbersCompareByValue) {
  EXPECT_EQ(Value(5), Value(5.0));
  EXPECT_EQ(Value(std::uint64_t{5}), Value(std::int64_t{5}));
  EXPECT_EQ(Value(-2), Value(-2.0));
  EXPECT_FALSE(Value(5) == Value(5.5));
  EXPECT_FALSE(Value(-1) == Value(std::numeric_limits<std::uint64_t>::max()));
  // 2^63 + 1 rounds to 2^63 as a double: not the same number.
  EXPECT_FALSE(Value((std::uint64_t{1} << 63) + 1) ==
               Value(9223372036854775808.0));
}

// --- parser ---------------------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.25e2").as_number(), -325.0);
  EXPECT_EQ(parse("\"hello\"").as_string(), "hello");
}

TEST(JsonParse, IntegerTokensStayExact) {
  EXPECT_EQ(parse("18446744073709551615").as_u64(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse("-9223372036854775808").as_i64(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse("9223372036854775809").as_u64(), 9223372036854775809u);
  // Past 64 bits, or with a fraction/exponent, a token is a double.
  EXPECT_DOUBLE_EQ(parse("18446744073709551616").as_number(),
                   18446744073709551616.0);
  EXPECT_EQ(parse("1e2").as_i64(), 100);
  EXPECT_EQ(parse("1e2").as_u64(), 100u);
  EXPECT_THROW(parse("2.5").as_u64(), JsonError);
  EXPECT_THROW(parse("-1").as_u64(), JsonError);
}

TEST(JsonParse, Whitespace) {
  const Value v = parse("  {\n\t\"a\" : [ 1 ,\r\n 2 ] }  ");
  EXPECT_EQ(v.at("a").size(), 2u);
}

TEST(JsonParse, NestedStructures) {
  const Value v = parse(R"({"a": {"b": [1, [2, {"c": null}]]}})");
  EXPECT_TRUE(v.at("a").at("b").at(1).at(1).at("c").is_null());
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(parse(R"("Az")").as_string(), "Az");
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_EQ(parse("[]").size(), 0u);
  EXPECT_EQ(parse("{}").size(), 0u);
}

TEST(JsonParse, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "[1 2]", "{\"a\" 1}", "{\"a\":}", "tru", "01a",
        "\"unterminated", "[1],", "{\"a\":1,}", R"("\q")", R"("\u00ZZ")",
        "nan", "[1]]"}) {
    EXPECT_THROW(parse(bad), JsonError) << bad;
  }
}

TEST(JsonParse, RejectsNonAsciiUnicodeEscapes) {
  // é is beyond ASCII: rejected loudly rather than silently mangled.
  EXPECT_THROW(parse("\"\\u00e9\""), JsonError);
  // ASCII \u escapes decode.
  EXPECT_EQ(parse("\"\\u0041\"").as_string(), "A");
  // Raw UTF-8 bytes pass through untouched.
  EXPECT_EQ(parse("\"\xc3\xa9\"").as_string(), "\xc3\xa9");
}

TEST(JsonParse, RejectsControlCharactersInStrings) {
  EXPECT_THROW(parse("\"a\nb\""), JsonError);
}

// --- writer ---------------------------------------------------------------------

TEST(JsonDump, CompactForm) {
  Value o = Value::object();
  o["b"] = true;
  o["n"] = 1.5;
  o["s"] = "x";
  Value arr = Value::array();
  arr.push_back(1);
  arr.push_back(2);
  o["a"] = std::move(arr);
  EXPECT_EQ(dump(o), R"({"a":[1,2],"b":true,"n":1.5,"s":"x"})");
}

TEST(JsonDump, IntegersPrintWithoutDecimals) {
  EXPECT_EQ(dump(Value(42.0)), "42");
  EXPECT_EQ(dump(Value(-7)), "-7");
  EXPECT_EQ(dump(Value(std::numeric_limits<std::uint64_t>::max())),
            "18446744073709551615");
  EXPECT_EQ(dump(Value(std::numeric_limits<std::int64_t>::min())),
            "-9223372036854775808");
  // Doubles keep their format: bare below 1e15, 17 digits above.
  EXPECT_EQ(dump(Value(1e15)), "1000000000000000");
  EXPECT_EQ(dump(Value(1e17)), "1e+17");
  EXPECT_EQ(dump(Value(0.1)), "0.10000000000000001");
}

TEST(JsonDump, EscapesSpecialCharacters) {
  EXPECT_EQ(dump(Value("a\"b\\c\nd")), R"("a\"b\\c\nd")");
}

TEST(JsonDump, EscapesQuoteBackslashNewlineAndControlBytes) {
  EXPECT_EQ(dump(Value("plain")), R"("plain")");
  EXPECT_EQ(dump(Value("a\"b")), R"("a\"b")");
  EXPECT_EQ(dump(Value("a\\b")), R"("a\\b")");
  EXPECT_EQ(dump(Value("a\nb")), R"("a\nb")");
  EXPECT_EQ(dump(Value(std::string("a\x01") + "b")), R"("a\u0001b")");
}

TEST(JsonDump, RejectsNonFiniteNumbers) {
  EXPECT_THROW(dump(Value(std::numeric_limits<double>::infinity())),
               JsonError);
}

TEST(JsonDump, PrettyPrintedFormReparses) {
  Value o = Value::object();
  o["nested"] = Value::array();
  o["nested"].push_back(Value::object());
  o["x"] = 1;
  const std::string pretty = dump(o, 2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse(pretty), o);
}

class JsonRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonRoundTrip, ParseDumpParseIsIdentity) {
  const Value v1 = parse(GetParam());
  const Value v2 = parse(dump(v1));
  EXPECT_EQ(v1, v2) << GetParam();
  const Value v3 = parse(dump(v1, 2));
  EXPECT_EQ(v1, v3);
}

INSTANTIATE_TEST_SUITE_P(
    Documents, JsonRoundTrip,
    ::testing::Values(
        "null", "true", "[1,2.5,-3e-4,\"s\",null,{}]",
        R"({"a":{"b":{"c":[[[1]]]}},"d":""})",
        R"([{"event":"FP_ARITH","coefficient":0.123456789012345}])",
        "[1e300,-1e-300,0]",
        "[18446744073709551615,-9223372036854775808,9007199254740993]"));

TEST(JsonRoundTrip, PreservesDoublePrecision) {
  const double v = 0.1234567890123456789;  // more digits than a double holds
  const Value parsed = parse(dump(Value(v)));
  EXPECT_DOUBLE_EQ(parsed.as_number(), v);
}

}  // namespace
}  // namespace catalyst::json
