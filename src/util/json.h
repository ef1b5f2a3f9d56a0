// JSON value model and serializer.
//
// Substrate for the instance/solution interchange format (core/io.h) and
// the mecsc CLI: experiments can be generated once, solved by different
// algorithm configurations, and evaluated elsewhere. Self-contained (no
// third-party dependency), supports the full JSON grammar except for
// numbers outside double range.
//
// JsonValue is the builder and serializer: responses, BENCH records and
// CLI artifacts are assembled as JsonValue trees and dumped. There is one
// parser, the arena parser in util/json_arena.h; parse_json below runs it
// and materializes the result as a JsonValue.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace mecsc::util {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// std::map keeps keys sorted, making serialization deterministic.
using JsonObject = std::map<std::string, JsonValue>;

/// Thrown by the parser (with position info) and by typed accessors.
class JsonError : public std::runtime_error {
 public:
  /// offset() value for errors that have no byte position (accessor type
  /// mismatches, serialization failures).
  static constexpr std::size_t kNoOffset = static_cast<std::size_t>(-1);

  explicit JsonError(const std::string& what, std::size_t offset = kNoOffset)
      : std::runtime_error(what), offset_(offset) {}

  /// Byte offset into the parsed text where the problem was detected, or
  /// kNoOffset when the error did not come from the parser.
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_ = kNoOffset;
};

/// One JSON value: null, bool, number, string, array, or object.
class JsonValue {
 public:
  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(long long i) : value_(static_cast<double>(i)) {}
  JsonValue(std::size_t i) : value_(static_cast<double>(i)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(JsonArray a) : value_(std::move(a)) {}
  JsonValue(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  /// Typed accessors; throw JsonError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& as_array();
  JsonObject& as_object();

  /// Object member access; throws JsonError when absent or not an object.
  const JsonValue& at(const std::string& key) const;

  /// True when this is an object containing `key`.
  bool contains(const std::string& key) const;

  /// Convenience typed lookups with mandatory presence.
  double number_at(const std::string& key) const { return at(key).as_number(); }
  const std::string& string_at(const std::string& key) const {
    return at(key).as_string();
  }

  /// Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  bool operator==(const JsonValue& other) const { return value_ == other.value_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// Hard limits applied while parsing. The defaults are far above anything
/// the interchange format produces but small enough that adversarial input
/// arriving over the solver-service socket (src/svc/) cannot stall the
/// parser with pathological tokens or nest deeper than the code that walks
/// a parsed document can follow.
struct JsonParseLimits {
  /// Maximum container nesting depth ([[ or {{ counts as 2). A safety
  /// bound: the parser itself is iterative, but View::to_json_value() and
  /// both dumpers recurse once per level.
  std::size_t max_depth = 128;
  /// Maximum characters in one number token. RFC 8259 numbers that carry
  /// full double precision fit in ~25 characters; longer tokens are either
  /// precision theater or an attack.
  std::size_t max_number_length = 64;
};

/// Parses a complete JSON document into a JsonValue: parse_json_arena
/// (util/json_arena.h) followed by View::to_json_value(), so it accepts,
/// rejects and reports exactly as the arena parser does. Throws JsonError
/// carrying the byte offset of the first problem (also spelled out in the
/// message). Trailing non-whitespace is an error, as are documents
/// exceeding `limits`. Numbers follow the strict RFC 8259 grammar: no
/// leading zeros, no bare '.', no 'inf'/'nan', and a finite double value.
/// Defined in json_arena.cpp.
JsonValue parse_json(const std::string& text,
                     const JsonParseLimits& limits = {});

/// Canonical string escaping shared by both JSON serializers in the tree
/// (JsonValue::dump and the arena dump in util/json_arena.h must emit
/// byte-identical output — responses are built with the first, and the
/// service digests instance subtrees with the second). Appends the
/// quoted, escaped spelling of `s` to `out`.
void json_append_escaped(std::string& out, std::string_view s);

/// Canonical number formatting for the same contract: integral values
/// below 1e15 print without a fractional part, everything else as %.17g
/// (round-trips doubles exactly). Throws JsonError on non-finite input.
void json_append_number(std::string& out, double d);

}  // namespace mecsc::util
