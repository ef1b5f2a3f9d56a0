// Arena coverage: cursor/iteration semantics, JsonValue round trips, and a
// differential of the two serializers — JsonValue::dump, which builds
// every response, and JsonArena::dump, which canonicalizes the instance
// subtree the service digests. They must agree byte for byte on
// handwritten corner cases (duplicate keys, unicode, number spellings) and
// on every fixture under examples/instances/. The accept/reject corpora
// live in test_json.cpp.
#include "util/json_arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace mecsc::util {
namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

TEST(JsonArena, ScalarDocuments) {
  EXPECT_TRUE(parse_json_arena("null").root().is_null());
  EXPECT_TRUE(parse_json_arena("true").root().as_bool());
  EXPECT_FALSE(parse_json_arena("false").root().as_bool());
  EXPECT_DOUBLE_EQ(parse_json_arena("-3.5").root().as_number(), -3.5);
  EXPECT_EQ(parse_json_arena("\"hi\"").root().as_string(), "hi");
  EXPECT_EQ(parse_json_arena("null").node_count(), 1u);
}

TEST(JsonArena, EmptyArenaAndMoves) {
  JsonArena arena;
  EXPECT_TRUE(arena.empty());
  EXPECT_THROW(arena.root(), JsonError);

  JsonArena parsed = parse_json_arena("[1,2]");
  EXPECT_FALSE(parsed.empty());
  JsonArena moved = std::move(parsed);
  EXPECT_TRUE(parsed.empty());  // NOLINT(bugprone-use-after-move): asserted
  EXPECT_EQ(moved.root().size(), 2u);
}

TEST(JsonArena, IterationPreservesDocumentOrder) {
  // Unlike JsonValue (std::map sorts members), the arena keeps wire order
  // for iteration; only dump() canonicalizes. Decoders that iterate must
  // therefore not depend on member order — and the canonical dump is the
  // only order-sensitive observable.
  const JsonArena arena = parse_json_arena(R"({"z":1,"a":2,"m":3})");
  std::vector<std::string> keys;
  for (const JsonArena::View member : arena.root().as_object()) {
    keys.emplace_back(member.key());
  }
  const std::vector<std::string> wire_order = {"z", "a", "m"};
  EXPECT_EQ(keys, wire_order);
  EXPECT_EQ(arena.dump(), R"({"a":2,"m":3,"z":1})");
}

TEST(JsonArena, ChildRangeIndexing) {
  const JsonArena arena = parse_json_arena("[10,20,30]");
  const auto range = arena.root().as_array();
  EXPECT_EQ(range.size(), 3u);
  EXPECT_DOUBLE_EQ(range[0].as_number(), 10.0);
  EXPECT_DOUBLE_EQ(range[2].as_number(), 30.0);
  EXPECT_THROW(range[3], JsonError);
}

TEST(JsonArena, ObjectAccessMatchesDomSemantics) {
  const JsonArena arena = parse_json_arena(R"({"a": 1, "b": "two"})");
  const JsonArena::View root = arena.root();
  EXPECT_DOUBLE_EQ(root.number_at("a"), 1.0);
  EXPECT_EQ(root.string_at("b"), "two");
  EXPECT_TRUE(root.contains("a"));
  EXPECT_FALSE(root.contains("c"));
  try {
    root.at("c");
    FAIL();
  } catch (const JsonError& e) {
    // Same spelling as JsonValue::at.
    EXPECT_STREQ(e.what(), "json: missing key 'c'");
  }
}

TEST(JsonArena, AccessorTypeErrorsMatchDomSpelling) {
  const JsonArena arena = parse_json_arena("[1.5]");
  const JsonArena::View num = arena.root().as_array()[0];
  const char* expected[] = {"json: value is not a string",
                            "json: value is not an array",
                            "json: value is not an object",
                            "json: value is not a bool"};
  int i = 0;
  for (const auto& call : {
           std::function<void()>([&] { num.as_string(); }),
           std::function<void()>([&] { num.as_array(); }),
           std::function<void()>([&] { num.as_object(); }),
           std::function<void()>([&] { num.as_bool(); }),
       }) {
    try {
      call();
      FAIL() << expected[i];
    } catch (const JsonError& e) {
      EXPECT_STREQ(e.what(), expected[i]);
    }
    ++i;
  }
}

TEST(JsonArena, DuplicateKeysResolveToLastLikeDom) {
  const std::string doc = R"({"a":1,"b":2,"a":3})";
  const JsonArena arena = parse_json_arena(doc);
  EXPECT_DOUBLE_EQ(arena.root().number_at("a"), 3.0);
  EXPECT_EQ(arena.root().size(), 3u);  // wire members, pre-canonicalization
  // Both serializers collapse duplicates to the last occurrence.
  EXPECT_EQ(arena.dump(), R"({"a":3,"b":2})");
  EXPECT_EQ(arena.root().to_json_value().dump(), arena.dump());
  EXPECT_EQ(arena.root().to_json_value(),
            JsonValue(JsonObject{{"a", JsonValue(3)}, {"b", JsonValue(2)}}));
}

TEST(JsonArena, FromJsonValueRoundTrips) {
  const JsonValue built(JsonObject{
      {"xs", JsonValue(JsonArray{JsonValue(1), JsonValue(nullptr),
                                 JsonValue("s\n"), JsonValue(JsonArray{})})},
      {"o", JsonValue(JsonObject{{"b", JsonValue(true)}})},
      {"e", JsonValue(JsonObject{})}});
  const JsonArena arena = JsonArena::from_json_value(built);
  EXPECT_EQ(arena.root().to_json_value(), built);
  EXPECT_EQ(arena.dump(), built.dump());
  EXPECT_EQ(arena.root().at("xs").as_array()[2].as_string(), "s\n");
  EXPECT_EQ(arena.node_count(), 9u);
  // Numbers keep their bits, including values no parse can produce.
  const JsonArena nan =
      JsonArena::from_json_value(JsonValue(std::nan("")));
  EXPECT_TRUE(std::isnan(nan.root().as_number()));
}

TEST(JsonArena, InSituStringDecoding) {
  const JsonArena arena =
      parse_json_arena(R"(["plain", "a\"b\\c\nd\te", "é€", "é€"])");
  const auto range = arena.root().as_array();
  EXPECT_EQ(range[0].as_string(), "plain");
  EXPECT_EQ(range[1].as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(range[2].as_string(), "\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(range[3].as_string(), "\xC3\xA9\xE2\x82\xAC");
  EXPECT_LE(arena.scratch_bytes(),
            std::string(R"(["plain", "a\"b\\c\nd\te", "é€", "é€"])")
                .size());
}

TEST(JsonArena, DumpParityOnHandwrittenDocuments) {
  const char* docs[] = {
      "null",
      "[]",
      "{}",
      "[[],{},[{}],{\"a\":[]}]",
      R"({"a":[1,2.5,true,null,"s\n"],"b":{"c":-7}})",
      R"({"nums":[0,-0,1e3,0.1,9007199254740993,1.7976931348623157e308]})",
      R"({"z":{"y":{"x":[1,[2,[3]]]}},"dup":1,"dup":2})",
      "[\"\\u0041\\u00e9\\u20ac\", \"\"]",
      " \n\t [ 1 , { \"k\" : null } ] \r\n ",
  };
  for (const char* doc : docs) {
    const JsonArena arena = parse_json_arena(doc);
    const JsonValue value = arena.root().to_json_value();
    for (int indent : {0, 2, 4}) {
      EXPECT_EQ(value.dump(indent), arena.dump(indent))
          << "doc " << doc << " indent " << indent;
    }
  }
}

// The fixture differential: every instance fixture shipped under
// examples/instances/ must serialize byte-identically through both
// serializers, at both indents, and survive a JsonValue round trip. These
// documents are the realistic workload — deep nesting, long float vectors,
// the whole io.h schema — so this is the closest test to the serving
// contract.
TEST(JsonArena, FixtureDumpParity) {
  const std::filesystem::path dir =
      std::filesystem::path(MECSC_EXAMPLES_DIR) / "instances";
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::vector<std::filesystem::path> fixtures;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") fixtures.push_back(entry.path());
  }
  std::sort(fixtures.begin(), fixtures.end());
  ASSERT_GE(fixtures.size(), 3u) << "fixture corpus went missing";
  for (const auto& path : fixtures) {
    const std::string text = read_file(path);
    ASSERT_FALSE(text.empty()) << path;
    const JsonArena arena = parse_json_arena(text);
    const JsonValue value = arena.root().to_json_value();
    EXPECT_EQ(value.dump(), arena.dump()) << path;
    EXPECT_EQ(value.dump(2), arena.dump(2)) << path;
    EXPECT_EQ(parse_json(value.dump(2)), value) << path;
    EXPECT_GT(arena.node_count(), 1u) << path;
  }
}

TEST(JsonArena, FieldReadersNameTheWronglyTypedField) {
  const JsonArena arena =
      parse_json_arena(R"({"s":"x","n":2.5,"b":true,"bad":[1]})");
  const JsonArena::View root = arena.root();
  EXPECT_EQ(field_string(root, "s"), "x");
  EXPECT_DOUBLE_EQ(field_number(root, "n", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(field_number(root, "absent", 7.0), 7.0);
  EXPECT_TRUE(field_bool(root, "b", false));
  EXPECT_FALSE(field_bool(root, "absent", false));
  EXPECT_THROW(field_string(root, "absent"), JsonError);
  const std::pair<std::function<void()>, const char*> cases[] = {
      {[&] { field_string(root, "bad"); }, "field \"bad\" must be a string"},
      {[&] { field_number(root, "s", 0.0); }, "field \"s\" must be a number"},
      {[&] { field_bool(root, "n", false); }, "field \"n\" must be a boolean"},
  };
  for (const auto& [call, message] : cases) {
    try {
      call();
      FAIL() << message;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), message);
    }
  }
}

TEST(JsonArena, NodeCountMatchesDocumentValues) {
  // root + "xs" array + "b" bool + elements 1, 2, {…} + member null = 7.
  const JsonArena arena =
      parse_json_arena(R"({"xs":[1,2,{"y":null}],"b":true})");
  EXPECT_EQ(arena.node_count(), 7u);
}

}  // namespace
}  // namespace mecsc::util
