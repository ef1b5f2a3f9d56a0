#include "util/json.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "util/json_arena.h"

namespace mecsc::util {
namespace {

/// Parses one document and returns its canonical dump.
std::string dump_of(const std::string& text,
                    const JsonParseLimits& limits = {}) {
  return parse_json_arena(text, limits).dump();
}

/// Parses a one-element array document and returns the number inside, so
/// scalar number semantics can be checked bit for bit.
double number_of(const std::string& token) {
  return parse_json_arena("[" + token + "]").root().as_array()[0].as_number();
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(parse_json("null"), JsonValue(nullptr));
  EXPECT_EQ(parse_json("true"), JsonValue(true));
  EXPECT_EQ(parse_json("false"), JsonValue(false));
  EXPECT_EQ(parse_json("42"), JsonValue(42.0));
  EXPECT_EQ(parse_json("-3.5"), JsonValue(-3.5));
  EXPECT_EQ(parse_json("1e3"), JsonValue(1000.0));
  EXPECT_EQ(parse_json("\"hi\""), JsonValue("hi"));
}

TEST(Json, TypePredicates) {
  EXPECT_TRUE(JsonValue(nullptr).is_null());
  EXPECT_TRUE(JsonValue(true).is_bool());
  EXPECT_TRUE(JsonValue(1.0).is_number());
  EXPECT_TRUE(JsonValue("x").is_string());
  EXPECT_TRUE(JsonValue(JsonArray{}).is_array());
  EXPECT_TRUE(JsonValue(JsonObject{}).is_object());
}

TEST(Json, AccessorsThrowOnMismatch) {
  const JsonValue v(1.5);
  EXPECT_THROW(v.as_string(), JsonError);
  EXPECT_THROW(v.as_array(), JsonError);
  EXPECT_THROW(v.as_object(), JsonError);
  EXPECT_THROW(v.as_bool(), JsonError);
  EXPECT_DOUBLE_EQ(v.as_number(), 1.5);
}

TEST(Json, ObjectAccess) {
  const JsonValue v = parse_json(R"({"a": 1, "b": "two"})");
  EXPECT_DOUBLE_EQ(v.number_at("a"), 1.0);
  EXPECT_EQ(v.string_at("b"), "two");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("c"));
  EXPECT_THROW(v.at("c"), JsonError);
}

TEST(Json, NestedStructures) {
  const JsonValue v = parse_json(R"({"xs": [1, [2, 3], {"y": null}]})");
  const JsonArray& xs = v.at("xs").as_array();
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(xs[1].as_array()[1].as_number(), 3.0);
  EXPECT_TRUE(xs[2].at("y").is_null());
}

TEST(Json, StringEscapes) {
  const JsonValue v = parse_json(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\teA");
}

TEST(Json, UnicodeEscapeUtf8) {
  EXPECT_EQ(parse_json(R"("é")").as_string(), "\xC3\xA9");   // é
  EXPECT_EQ(parse_json(R"("€")").as_string(), "\xE2\x82\xAC");  // €
}

TEST(Json, DumpParseRoundTrip) {
  const std::string doc = R"({"a":[1,2.5,true,null,"s\n"],"b":{"c":-7}})";
  const JsonValue v = parse_json(doc);
  for (int indent : {0, 2, 4}) {
    EXPECT_EQ(parse_json(v.dump(indent)), v) << "indent " << indent;
  }
}

TEST(Json, DumpIsDeterministic) {
  JsonObject o;
  o["zebra"] = JsonValue(1);
  o["alpha"] = JsonValue(2);
  const std::string s = JsonValue(o).dump();
  // std::map ordering: alpha before zebra.
  EXPECT_LT(s.find("alpha"), s.find("zebra"));
}

TEST(Json, IntegersPrintWithoutFraction) {
  EXPECT_EQ(JsonValue(5.0).dump(), "5");
  EXPECT_EQ(JsonValue(-12.0).dump(), "-12");
  EXPECT_NE(JsonValue(0.5).dump().find('.'), std::string::npos);
}

TEST(Json, PrettyPrintIndents) {
  const JsonValue v = parse_json(R"({"a": [1]})");
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find("\n  \"a\""), std::string::npos);
}

TEST(Json, ParseErrorsCarryOffsets) {
  for (const char* bad :
       {"", "{", "[1,", "\"abc", "{\"a\" 1}", "tru", "01x", "[1] x",
        "{\"a\":}", "nul"}) {
    EXPECT_THROW(parse_json(bad), JsonError) << "input: " << bad;
  }
}

// The parser sits on a network boundary (src/svc/), so every malformed
// document must produce a JsonError with an accurate byte offset — never a
// crash, a hang, or a silently wrong value. One row per failure mode,
// mirroring the error-path tables of the reference C parsers. The offsets
// and messages reach clients verbatim in parse_error responses.
struct MalformedCase {
  const char* input;
  std::size_t offset;           ///< expected JsonError::offset()
  const char* message_contains; ///< expected substring of what()
};

TEST(Json, MalformedInputCorpus) {
  const MalformedCase corpus[] = {
      // Truncation and structure.
      {"", 0, "unexpected end of input"},
      {"{", 1, "unexpected end of input"},
      {"[1, 2", 5, "unexpected end of input"},
      {"{\"a\": 1", 7, "unexpected end of input"},
      {"{\"a\"}", 4, "expected ':'"},
      {"{\"a\": 1,}", 8, "expected"},     // trailing comma: '"' expected next
      {"{1: 2}", 1, "expected '\"'"},     // non-string key
      {"[1 2]", 3, "expected"},           // missing comma
      {"]", 0, "expected a value"},
      {"}", 0, "expected a value"},
      {":", 0, "expected a value"},
      // Trailing garbage after a complete document.
      {"1 1", 2, "trailing characters"},
      {"{} {}", 3, "trailing characters"},
      {"null,", 4, "trailing characters"},
      // Bad literals. ("truth" mismatches "true" at its 4th character, so
      // consume_literal rejects the whole token.)
      {"truth", 0, "bad literal"},
      {"falsy", 0, "bad literal"},
      {"none", 0, "bad literal"},
      // Bad strings.
      {"\"abc", 4, "unterminated string"},
      {"\"a\\", 3, "unterminated escape"},
      {"\"\\x41\"", 3, "bad escape character"},
      {"\"\\u12\"", 3, "bad \\u escape"},
      {"\"\\uZZZZ\"", 4, "bad \\u escape"},
      // Bad numbers (strict RFC 8259 grammar).
      {"-", 1, "expected a value"},
      {"+1", 0, "expected a value"},
      {"01", 1, "leading zero"},
      {"-01", 2, "leading zero"},
      {"1.", 2, "expected digits after decimal point"},
      {".5", 0, "expected a value"},
      {"1e", 2, "expected digits in exponent"},
      {"1e+", 3, "expected digits in exponent"},
      {"1e1.5", 3, "trailing characters"},
      {"inf", 0, "expected a value"},  // 'i' is not a JSON value start
      {"1e999", 0, "outside double range"},
      {"-1e999", 0, "outside double range"},
      // Underflow: glibc reports subnormal results as out_of_range, so
      // tokens that land below the normal range are rejected.
      {"1e-310", 0, "outside double range"},
      {"4.9e-324", 0, "outside double range"},
  };
  EXPECT_EQ(std::size(corpus), 36u);
  for (const MalformedCase& c : corpus) {
    try {
      dump_of(c.input);
      FAIL() << "accepted malformed input: " << c.input;
    } catch (const JsonError& err) {
      EXPECT_EQ(err.offset(), c.offset) << "input: " << c.input
                                        << " error: " << err.what();
      EXPECT_NE(std::string(err.what()).find(c.message_contains),
                std::string::npos)
          << "input: " << c.input << " error: " << err.what();
    }
  }
}

// RFC 8259 strict-number corpus: tokens the grammar accepts, with the
// exact double each must produce. The expected literals are compiled by
// the same correctly-rounding conversion strtod guarantees, so EXPECT on
// the raw bit pattern is the right strength — the canonical %.17g dump
// (and through it the service cache key) depends on every bit.
struct NumberCase {
  const char* token;
  double value;
};

TEST(Json, StrictNumberCorpus) {
  const NumberCase corpus[] = {
      {"0", 0.0},
      {"-0", -0.0},
      {"42", 42.0},
      {"-7", -7.0},
      {"3.5", 3.5},
      {"-3.5", -3.5},
      {"0.1", 0.1},
      {"0.3", 0.3},
      {"1e3", 1000.0},
      {"1E3", 1000.0},
      {"1e+3", 1000.0},
      {"1e-3", 1e-3},
      {"2.5e-1", 0.25},
      {"123.456", 123.456},
      {"0.000001", 0.000001},
      // Decimal-binary rounding edges.
      {"9007199254740992", 9007199254740992.0},   // 2^53
      {"9007199254740993", 9007199254740993.0},   // ties to even: 2^53
      {"4.5", 4.5},                                // exact tie pattern
      {"1.0000000000000002", 1.0000000000000002},  // 1 + 2^-52
      {"5.9604644775390625e-08", 5.9604644775390625e-08},  // 2^-24, exact
      {"18446744073709551615", 18446744073709551615.0},    // 2^64 - 1
      {"18446744073709551616", 18446744073709551616.0},    // > uint64
      // Range extremes that are still representable.
      {"1.7976931348623157e308", 1.7976931348623157e308},  // DBL_MAX
      {"2.2250738585072014e-308", 2.2250738585072014e-308},  // DBL_MIN
      {"1e22", 1e22},
      {"1e-22", 1e-22},
      {"7450580596923828125e-27", 7450580596923828125e-27},  // 5^27 mantissa
      // More significant digits than a uint64 mantissa can hold.
      {"1.00000000000000011102230246251565404236316680908203125", 1.0},
      {"123456789012345678901234567890", 123456789012345678901234567890.0},
  };
  EXPECT_EQ(std::size(corpus), 29u);
  for (const NumberCase& c : corpus) {
    const double got = number_of(c.token);
    EXPECT_EQ(bits_of(got), bits_of(c.value))
        << "token " << c.token << " parsed to " << got;
  }
}

TEST(Json, DepthLimitRejectsDeepNesting) {
  JsonParseLimits limits;
  limits.max_depth = 8;
  const std::string ok(8, '[');
  EXPECT_NO_THROW(dump_of(ok + std::string(8, ']'), limits));
  const std::string deep(9, '[');
  EXPECT_THROW(dump_of(deep + std::string(9, ']'), limits), JsonError);
  // Mixed nesting counts every container level.
  EXPECT_THROW(dump_of("[{\"a\":[{\"b\":[{\"c\":[[[1]]]}]}]}]", limits),
               JsonError);
  // The default limit stops pathological input long before the recursive
  // walks over a parsed document (to_json_value, the dumpers) could
  // exhaust the call stack.
  EXPECT_THROW(parse_json(std::string(100000, '[')), JsonError);
}

// The over-deep error carries the offset of the bracket that first exceeds
// the limit, whether that bracket opens an array or an object.
TEST(Json, DepthErrorPointsAtTheOffendingOpener) {
  JsonParseLimits limits;
  limits.max_depth = 4;
  const std::pair<std::string, std::size_t> docs[] = {
      {"[[[[[1]]]]]", 4},
      {"[[[[{\"k\":1}]]]]x", 4},  // depth 5 via an object opener
      {"{\"a\":[[[[1]]]]}", 8},
  };
  for (const auto& [doc, offset] : docs) {
    try {
      parse_json(doc, limits);
      FAIL() << "accepted over-deep document: " << doc;
    } catch (const JsonError& e) {
      EXPECT_EQ(e.offset(), offset) << "doc: " << doc;
      EXPECT_EQ(std::string(e.what()),
                "json parse error at offset " + std::to_string(offset) +
                    ": nesting deeper than 4 levels")
          << "doc: " << doc;
    }
  }
}

TEST(Json, NumberLengthLimit) {
  JsonParseLimits limits;
  limits.max_number_length = 8;
  EXPECT_NO_THROW(dump_of("12345678", limits));
  EXPECT_THROW(dump_of("123456789", limits), JsonError);
  // The default cap still admits full double precision round trips.
  EXPECT_NO_THROW(dump_of("-1.7976931348623157e308"));
}

TEST(Json, ErrorOffsetPointsIntoNestedDocument) {
  try {
    parse_json("{\"a\": [1, 2, tru]}");
    FAIL();
  } catch (const JsonError& err) {
    EXPECT_EQ(err.offset(), 13u);
  }
}

TEST(Json, AccessorErrorsHaveNoOffset) {
  try {
    JsonValue(1.5).as_string();
    FAIL();
  } catch (const JsonError& err) {
    EXPECT_EQ(err.offset(), JsonError::kNoOffset);
  }
}

TEST(Json, WhitespaceTolerated) {
  const JsonValue v = parse_json(" \n\t { \"a\" : [ 1 , 2 ] } \r\n");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

TEST(Json, EmptyContainers) {
  EXPECT_TRUE(parse_json("[]").as_array().empty());
  EXPECT_TRUE(parse_json("{}").as_object().empty());
  EXPECT_EQ(parse_json("[]").dump(2), "[]");
  EXPECT_EQ(parse_json("{}").dump(2), "{}");
}

TEST(Json, NonFiniteNumbersRejectedOnDump) {
  EXPECT_THROW(JsonValue(std::numeric_limits<double>::infinity()).dump(),
               JsonError);
}

TEST(Json, LargePrecisionPreserved) {
  const double x = 0.1234567890123456;
  const JsonValue v = parse_json(JsonValue(x).dump());
  EXPECT_DOUBLE_EQ(v.as_number(), x);
}

}  // namespace
}  // namespace mecsc::util
