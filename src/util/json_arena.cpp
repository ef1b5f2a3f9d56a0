#include "util/json_arena.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

namespace mecsc::util {

namespace {

using Type = JsonArenaNode::Type;

[[noreturn]] void type_error(const char* want) {
  // Same spelling as the JsonValue accessors.
  throw JsonError(std::string("json: value is not ") + want);
}

}  // namespace

// ---------------------------------------------------------------------------
// Cursor accessors
// ---------------------------------------------------------------------------

JsonArena::View JsonArena::root() const {
  if (nodes_.empty()) throw JsonError("json: arena is empty");
  return View(this, 0);
}

bool JsonArena::View::as_bool() const {
  if (!is_bool()) type_error("a bool");
  return node().boolean;
}

double JsonArena::View::as_number() const {
  if (!is_number()) type_error("a number");
  return node().number;
}

std::string_view JsonArena::View::as_string() const {
  if (!is_string()) type_error("a string");
  const JsonArenaNode& n = node();
  return std::string_view(arena_->scratch_).substr(n.str.off, n.str.len);
}

JsonArena::View::ChildRange JsonArena::View::as_array() const {
  if (!is_array()) type_error("an array");
  const JsonArenaNode& n = node();
  return ChildRange(arena_, n.cont.first, n.cont.count);
}

JsonArena::View::ChildRange JsonArena::View::as_object() const {
  if (!is_object()) type_error("an object");
  const JsonArenaNode& n = node();
  return ChildRange(arena_, n.cont.first, n.cont.count);
}

std::size_t JsonArena::View::size() const {
  return is_array() || is_object() ? node().cont.count : 0;
}

std::string_view JsonArena::View::key() const {
  const JsonArenaNode& n = node();
  if (n.key_off == JsonArenaNode::kNoKey) return {};
  return std::string_view(arena_->scratch_).substr(n.key_off, n.key_len);
}

JsonArena::View JsonArena::View::at(std::string_view key) const {
  if (!is_object()) type_error("an object");
  // Duplicate keys resolve to the last occurrence — the member dump() and
  // to_json_value() keep, so decoders read the data the digest covers.
  View match;
  bool found = false;
  for (const View member : as_object()) {
    if (member.key() == key) {
      match = member;
      found = true;
    }
  }
  if (!found) {
    throw JsonError("json: missing key '" + std::string(key) + "'");
  }
  return match;
}

bool JsonArena::View::contains(std::string_view key) const {
  if (!is_object()) return false;
  for (const View member : as_object()) {
    if (member.key() == key) return true;
  }
  return false;
}

JsonArena::View JsonArena::View::ChildRange::operator[](std::size_t i) const {
  if (i >= count_) throw JsonError("json: child index out of range");
  View v(arena_, first_);
  for (; i > 0; --i) v = View(arena_, v.node().next);
  return v;
}

// ---------------------------------------------------------------------------
// Canonical serialization (byte-compatible with JsonValue::dump)
// ---------------------------------------------------------------------------

namespace {

/// Mirrors the JsonValue Dumper (util/json.cpp) over cursors. Recursion
/// depth is bounded by the max_depth enforced at parse time, so — unlike
/// parsing — recursing here cannot be driven arbitrarily deep by input.
struct ArenaDumper {
  std::string os;
  int indent;

  void newline(int depth) {
    if (indent <= 0) return;
    os += '\n';
    os.append(static_cast<std::size_t>(indent * depth), ' ');
  }

  void dump(const JsonArena::View& v, int depth) {
    if (v.is_null()) {
      os += "null";
    } else if (v.is_bool()) {
      os += v.as_bool() ? "true" : "false";
    } else if (v.is_number()) {
      json_append_number(os, v.as_number());
    } else if (v.is_string()) {
      json_append_escaped(os, v.as_string());
    } else if (v.is_array()) {
      const auto a = v.as_array();
      if (a.empty()) {
        os += "[]";
        return;
      }
      os += '[';
      bool first = true;
      for (const JsonArena::View elem : a) {
        if (!first) os += ',';
        first = false;
        newline(depth + 1);
        dump(elem, depth + 1);
      }
      newline(depth);
      os += ']';
    } else {
      // Canonical member order: sorted by key, duplicates collapsed to the
      // last occurrence — exactly what JsonValue's std::map holds after
      // to_json_value().
      std::vector<JsonArena::View> members;
      members.reserve(v.size());
      for (const JsonArena::View member : v.as_object()) {
        members.push_back(member);
      }
      std::stable_sort(members.begin(), members.end(),
                       [](const JsonArena::View& a, const JsonArena::View& b) {
                         return a.key() < b.key();
                       });
      if (members.empty()) {
        os += "{}";
        return;
      }
      os += '{';
      bool first = true;
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i + 1 < members.size() && members[i].key() == members[i + 1].key())
          continue;  // a later duplicate supersedes this member
        if (!first) os += ',';
        first = false;
        newline(depth + 1);
        json_append_escaped(os, members[i].key());
        os += indent > 0 ? ": " : ":";
        dump(members[i], depth + 1);
      }
      newline(depth);
      os += '}';
    }
  }
};

}  // namespace

std::string JsonArena::View::dump(int indent) const {
  ArenaDumper d;
  d.indent = indent;
  d.dump(*this, 0);
  return std::move(d.os);
}

std::string JsonArena::dump(int indent) const { return root().dump(indent); }

JsonValue JsonArena::View::to_json_value() const {
  if (is_null()) return JsonValue(nullptr);
  if (is_bool()) return JsonValue(as_bool());
  if (is_number()) return JsonValue(as_number());
  if (is_string()) return JsonValue(std::string(as_string()));
  if (is_array()) {
    JsonArray a;
    a.reserve(size());
    for (const View elem : as_array()) a.push_back(elem.to_json_value());
    return JsonValue(std::move(a));
  }
  JsonObject o;
  for (const View member : as_object()) {
    // Assignment, not emplace: duplicate keys keep the last value, same as
    // at() and dump().
    o[std::string(member.key())] = member.to_json_value();
  }
  return JsonValue(std::move(o));
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

/// Every power of five that fits a uint64 (5^27 is the largest).
constexpr std::array<std::uint64_t, 28> kPow5 = {
    1ull,
    5ull,
    25ull,
    125ull,
    625ull,
    3125ull,
    15625ull,
    78125ull,
    390625ull,
    1953125ull,
    9765625ull,
    48828125ull,
    244140625ull,
    1220703125ull,
    6103515625ull,
    30517578125ull,
    152587890625ull,
    762939453125ull,
    3814697265625ull,
    19073486328125ull,
    95367431640625ull,
    476837158203125ull,
    2384185791015625ull,
    11920928955078125ull,
    59604644775390625ull,
    298023223876953125ull,
    1490116119384765625ull,
    7450580596923828125ull,
};

int bit_width_u128(unsigned __int128 v) {
  const auto hi = static_cast<std::uint64_t>(v >> 64);
  return hi != 0 ? 64 + static_cast<int>(std::bit_width(hi))
                 : static_cast<int>(
                       std::bit_width(static_cast<std::uint64_t>(v)));
}

/// Correctly rounds m * 10^e10 to the nearest double (ties to even) for
/// m != 0 and |e10| <= 27, using exact integer arithmetic only:
///
///   e10 >= 0: m * 10^e = (m * 5^e) * 2^e, and m * 5^e fits 128 bits
///             exactly (m < 2^64, 5^27 < 2^63), so every discarded bit is
///             known when rounding to 53 significant bits.
///   e10 <  0: m * 10^e = (m / 5^p) * 2^-p with p = -e10. The quotient is
///             taken with >= 60 significant bits (the dividend is
///             pre-shifted by `shift`), and the remainder supplies an exact
///             sticky bit, so the rounding decision is again exact.
///
/// Results stay inside [10^-27, 2^64 * 10^27] in magnitude — comfortably
/// normal — so no overflow, underflow, or subnormal case can arise here;
/// every such input takes the slow path instead. Correct rounding is also
/// what glibc's strtod guarantees, which makes this path bit-identical to
/// the std::stod fallback below (a requirement: the canonical %.17g dump
/// feeds the service cache digest).
double exact_scaled_decimal(std::uint64_t m, int e10) {
  unsigned __int128 n;
  int exp2;
  bool sticky = false;
  if (e10 >= 0) {
    n = static_cast<unsigned __int128>(m) * kPow5[static_cast<std::size_t>(e10)];
    exp2 = e10;
  } else {
    const std::uint64_t divisor = kPow5[static_cast<std::size_t>(-e10)];
    const int shift =
        std::max(0, 60 - static_cast<int>(std::bit_width(m)) +
                        static_cast<int>(std::bit_width(divisor)));
    const unsigned __int128 scaled = static_cast<unsigned __int128>(m)
                                     << shift;
    n = scaled / divisor;
    sticky = scaled % divisor != 0;
    exp2 = e10 - shift;
  }
  const int bits = bit_width_u128(n);
  if (bits <= 53) {
    // Only reachable on the multiply branch (the divide branch shifts the
    // quotient to >= 60 bits), so the value is exact: sticky is false.
    return std::ldexp(static_cast<double>(static_cast<std::uint64_t>(n)),
                      exp2);
  }
  const int drop = bits - 53;
  std::uint64_t keep = static_cast<std::uint64_t>(n >> drop);
  const bool round_bit = ((n >> (drop - 1)) & 1) != 0;
  sticky = sticky ||
           (n & ((static_cast<unsigned __int128>(1) << (drop - 1)) - 1)) != 0;
  if (round_bit && (sticky || (keep & 1) != 0)) ++keep;
  return std::ldexp(static_cast<double>(keep), exp2 + drop);
}

/// Iterative in-situ parser. The error offsets and messages it produces are
/// part of the service's wire contract (parse_error responses); the
/// malformed-input and strict-number corpora in tests/test_json.cpp pin
/// them row by row.
class ArenaParser {
 public:
  ArenaParser(std::string_view text, const JsonParseLimits& limits,
              std::string& scratch, std::vector<JsonArenaNode>& nodes)
      : limits_(limits), scratch_(scratch), nodes_(nodes) {
    scratch_.assign(text.data(), text.size());
    size_ = scratch_.size();
  }

  void parse_document() {
    reserve_nodes();
    skip_ws();
    parse_value_stream();
    skip_ws();
    if (pos_ != size_) fail("trailing characters");
  }

 private:
  /// One open container during parsing: the node plus its trailing child
  /// (for sibling linking). The stack replaces recursion, so adversarial
  /// nesting cannot exhaust the call stack.
  struct Open {
    std::uint32_t node;
    std::uint32_t last_child;
  };

  const JsonParseLimits& limits_;
  std::string& scratch_;
  std::vector<JsonArenaNode>& nodes_;
  std::size_t pos_ = 0;
  std::size_t size_ = 0;
  std::vector<Open> stack_;
  /// Reused number-token buffer: keeps std::stod's exact accept/reject
  /// semantics for the slow path without a per-token allocation.
  std::string number_buf_;

  char* data() { return scratch_.data(); }

  [[noreturn]] void fail(const std::string& what) {
    throw JsonError(
        "json parse error at offset " + std::to_string(pos_) + ": " + what,
        pos_);
  }

  void skip_ws() {
    const char* buf = data();
    while (pos_ < size_ &&
           (buf[pos_] == ' ' || buf[pos_] == '\t' || buf[pos_] == '\n' ||
            buf[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= size_) fail("unexpected end of input");
    return data()[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (scratch_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  /// Sizes the node array by heuristic — canonical instance documents run
  /// ~24 bytes per value, so bytes/16 over-reserves slightly without a
  /// counting pre-pass over the document (measured at a quarter of the
  /// whole parse). Denser documents simply grow the vector: every link is
  /// an index, so reallocation mid-parse is safe, just amortized.
  void reserve_nodes() { nodes_.reserve(size_ / 16 + 16); }

  /// Appends a node and links it to the innermost open container.
  std::uint32_t add_node(Type type, std::uint32_t key_off,
                         std::uint32_t key_len) {
    if (nodes_.size() >= JsonArenaNode::kNoKey) {
      fail("document has too many values");
    }
    const auto idx = static_cast<std::uint32_t>(nodes_.size());
    JsonArenaNode n;
    n.type = type;
    n.key_off = key_off;
    n.key_len = key_len;
    if (type == Type::Array || type == Type::Object) n.cont = {0, 0};
    if (!stack_.empty()) {
      Open& top = stack_.back();
      JsonArenaNode& parent = nodes_[top.node];
      if (parent.cont.count == 0) {
        parent.cont.first = idx;
      } else {
        nodes_[top.last_child].next = idx;
      }
      ++parent.cont.count;
      top.last_child = idx;
    }
    nodes_.push_back(n);
    return idx;
  }

  /// "key": — the object-member prefix before a value position.
  void parse_member_key(std::uint32_t& off, std::uint32_t& len) {
    parse_string_in_situ(off, len);
    skip_ws();
    expect(':');
  }

  /// The whole value grammar as one loop: the outer iteration is a value
  /// position (with an optional pending member key), the inner loop closes
  /// completed containers and advances past ','.
  void parse_value_stream() {
    std::uint32_t key_off = JsonArenaNode::kNoKey;
    std::uint32_t key_len = 0;

    for (;;) {
      // --- value position ---
      skip_ws();
      const char c = peek();
      if (c == '{' || c == '[') {
        // Depth check before consuming the bracket, so the error carries
        // the offset of the offending opener.
        if (stack_.size() + 1 > limits_.max_depth) {
          fail("nesting deeper than " + std::to_string(limits_.max_depth) +
               " levels");
        }
        const bool is_object = c == '{';
        const std::uint32_t node =
            add_node(is_object ? Type::Object : Type::Array, key_off, key_len);
        key_off = JsonArenaNode::kNoKey;
        key_len = 0;
        ++pos_;
        stack_.push_back({node, 0});
        skip_ws();
        if (is_object) {
          if (peek() != '}') {
            parse_member_key(key_off, key_len);
            continue;  // value position for the first member
          }
          ++pos_;
          stack_.pop_back();
        } else {
          if (peek() != ']') continue;  // value position, first element
          ++pos_;
          stack_.pop_back();
        }
        // An empty container closed immediately: it is a completed value.
      } else if (c == '"') {
        std::uint32_t off = 0;
        std::uint32_t len = 0;
        parse_string_in_situ(off, len);
        const std::uint32_t node = add_node(Type::String, key_off, key_len);
        nodes_[node].str = {off, len};
        key_off = JsonArenaNode::kNoKey;
        key_len = 0;
      } else if (c == 't' || c == 'f') {
        if (!consume_literal(c == 't' ? "true" : "false")) {
          fail("bad literal");
        }
        const std::uint32_t node = add_node(Type::Bool, key_off, key_len);
        nodes_[node].boolean = c == 't';
        key_off = JsonArenaNode::kNoKey;
        key_len = 0;
      } else if (c == 'n') {
        if (!consume_literal("null")) fail("bad literal");
        add_node(Type::Null, key_off, key_len);
        key_off = JsonArenaNode::kNoKey;
        key_len = 0;
      } else {
        const double d = parse_number_token();
        const std::uint32_t node = add_node(Type::Number, key_off, key_len);
        nodes_[node].number = d;
        key_off = JsonArenaNode::kNoKey;
        key_len = 0;
      }

      // --- after a completed value: close containers, advance past ',' ---
      for (;;) {
        if (stack_.empty()) return;  // the document root is complete
        skip_ws();
        const bool in_object =
            nodes_[stack_.back().node].type == Type::Object;
        if (peek() == ',') {
          ++pos_;
          if (in_object) {
            skip_ws();
            parse_member_key(key_off, key_len);
          }
          break;  // back to a value position
        }
        expect(in_object ? '}' : ']');
        stack_.pop_back();
        // The closed container is itself a completed value; loop again.
      }
    }
  }

  /// Decodes a string token *in place*: the write cursor starts at the
  /// first content byte and every decoded form is no longer than its raw
  /// spelling, so writes never overtake reads.
  void parse_string_in_situ(std::uint32_t& out_off, std::uint32_t& out_len) {
    expect('"');
    char* buf = data();
    const std::size_t start = pos_;
    // Until the first escape the decoded string coincides with the raw
    // bytes, so nothing needs to move — scan, don't copy. Most tokens
    // (object keys, enum-like values) finish right here.
    while (pos_ < size_ && buf[pos_] != '"' && buf[pos_] != '\\') ++pos_;
    if (pos_ < size_ && buf[pos_] == '"') {
      out_off = static_cast<std::uint32_t>(start);
      out_len = static_cast<std::uint32_t>(pos_ - start);
      ++pos_;
      return;
    }
    std::size_t w = pos_;
    for (;;) {
      if (pos_ >= size_) fail("unterminated string");
      const char c = buf[pos_++];
      if (c == '"') {
        out_off = static_cast<std::uint32_t>(start);
        out_len = static_cast<std::uint32_t>(w - start);
        return;
      }
      if (c != '\\') {
        buf[w++] = c;
        continue;
      }
      if (pos_ >= size_) fail("unterminated escape");
      const char e = buf[pos_++];
      switch (e) {
        case '"':
          buf[w++] = '"';
          break;
        case '\\':
          buf[w++] = '\\';
          break;
        case '/':
          buf[w++] = '/';
          break;
        case 'n':
          buf[w++] = '\n';
          break;
        case 't':
          buf[w++] = '\t';
          break;
        case 'r':
          buf[w++] = '\r';
          break;
        case 'b':
          buf[w++] = '\b';
          break;
        case 'f':
          buf[w++] = '\f';
          break;
        case 'u': {
          if (pos_ + 4 > size_) fail("bad \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = buf[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // the interchange format never emits them). Worst case three
          // decoded bytes for six raw ones, so in-situ still holds.
          if (code < 0x80) {
            buf[w++] = static_cast<char>(code);
          } else if (code < 0x800) {
            buf[w++] = static_cast<char>(0xC0 | (code >> 6));
            buf[w++] = static_cast<char>(0x80 | (code & 0x3F));
          } else {
            buf[w++] = static_cast<char>(0xE0 | (code >> 12));
            buf[w++] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            buf[w++] = static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  bool digit_at(std::size_t i) {
    // Plain range compare, not std::isdigit: identical for every byte in
    // the "C" locale (the only one this program runs in) and free of
    // glibc's per-call locale-table lookup on this hot path.
    return i < size_ && data()[i] >= '0' && data()[i] <= '9';
  }

  /// Strict RFC 8259 number grammar: [-] int [frac] [exp], where int has
  /// no leading zero. Scanning the grammar explicitly (instead of trusting
  /// std::stod to reject the tail) keeps locale-dependent and non-JSON
  /// spellings — "inf", "nan", hex floats, "1.", ".5", "01" — off the
  /// network boundary. The mantissa and decimal exponent accumulate during
  /// the scan: tokens whose mantissa fits a uint64 with |e10| <= 27 (every
  /// token the canonical %.17g/%lld serializer can emit) convert through
  /// the exact integer rounder above; anything else — more than ~19
  /// significant digits, huge exponents, values near the double range
  /// limits — falls back to std::stod.
  double parse_number_token() {
    const std::size_t start = pos_;
    bool negative = false;
    if (peek() == '-') {
      negative = true;
      ++pos_;
    }
    std::uint64_t mantissa = 0;
    bool too_many_digits = false;
    int frac_digits = 0;
    int exp_value = 0;
    bool exp_negative = false;
    const auto accumulate = [&](char c) {
      if (mantissa > (std::numeric_limits<std::uint64_t>::max() - 9) / 10) {
        too_many_digits = true;
      } else {
        mantissa = mantissa * 10 + static_cast<std::uint64_t>(c - '0');
      }
    };
    if (!digit_at(pos_)) fail("expected a value");
    if (data()[pos_] == '0') {
      ++pos_;
      if (digit_at(pos_)) fail("number has a leading zero");
    } else {
      while (digit_at(pos_)) {
        accumulate(data()[pos_]);
        ++pos_;
      }
    }
    if (pos_ < size_ && data()[pos_] == '.') {
      ++pos_;
      if (!digit_at(pos_)) fail("expected digits after decimal point");
      while (digit_at(pos_)) {
        accumulate(data()[pos_]);
        ++frac_digits;
        ++pos_;
      }
    }
    if (pos_ < size_ && (data()[pos_] == 'e' || data()[pos_] == 'E')) {
      ++pos_;
      if (pos_ < size_ && (data()[pos_] == '+' || data()[pos_] == '-')) {
        exp_negative = data()[pos_] == '-';
        ++pos_;
      }
      if (!digit_at(pos_)) fail("expected digits in exponent");
      while (digit_at(pos_)) {
        // Saturate: the token length cap bounds frac_digits at 64, so any
        // saturated exponent still lands far outside the fast-path window.
        if (exp_value < 1000) {
          exp_value = exp_value * 10 + (data()[pos_] - '0');
        }
        ++pos_;
      }
    }
    if (pos_ - start > limits_.max_number_length) {
      pos_ = start;
      fail("number longer than " +
           std::to_string(limits_.max_number_length) + " characters");
    }
    const int e10 = (exp_negative ? -exp_value : exp_value) - frac_digits;
    if (!too_many_digits && e10 >= -27 && e10 <= 27) {
      if (mantissa == 0) return negative ? -0.0 : 0.0;
      const double magnitude = exact_scaled_decimal(mantissa, e10);
      return negative ? -magnitude : magnitude;
    }
    return convert_number_slow(start);
  }

  /// std::stod over a copied token, for tokens outside the fast path's
  /// envelope, including its range rejections (overflow, and
  /// underflow-to-subnormal, which glibc reports as out_of_range).
  double convert_number_slow(std::size_t start) {
    number_buf_.assign(data() + start, pos_ - start);
    try {
      const double d = std::stod(number_buf_);
      if (!std::isfinite(d)) {
        pos_ = start;
        fail("number outside double range '" + number_buf_ + "'");
      }
      return d;
    } catch (const std::logic_error&) {
      // invalid_argument cannot happen after the grammar scan;
      // out_of_range means the magnitude does not fit a double.
      pos_ = start;
      fail("number outside double range '" + number_buf_ + "'");
    }
  }
};

}  // namespace

JsonArena parse_json_arena(std::string_view text,
                           const JsonParseLimits& limits) {
  JsonArena arena;
  ArenaParser p(text, limits, arena.scratch_, arena.nodes_);
  p.parse_document();
  return arena;
}

JsonValue parse_json(const std::string& text, const JsonParseLimits& limits) {
  return parse_json_arena(text, limits).root().to_json_value();
}

// ---------------------------------------------------------------------------
// Building from a JsonValue
// ---------------------------------------------------------------------------

namespace {

/// Appends a JsonValue subtree to an arena's buffers in document order,
/// linking containers exactly as the parser does.
struct ArenaBuilder {
  std::string& scratch;
  std::vector<JsonArenaNode>& nodes;

  std::uint32_t span(std::string_view text) {
    const auto off = static_cast<std::uint32_t>(scratch.size());
    scratch.append(text);
    return off;
  }

  std::uint32_t add(const JsonValue& v, const std::string* key) {
    JsonArenaNode n;
    if (key != nullptr) {
      n.key_off = span(*key);
      n.key_len = static_cast<std::uint32_t>(key->size());
    }
    if (v.is_bool()) {
      n.type = Type::Bool;
      n.boolean = v.as_bool();
    } else if (v.is_number()) {
      n.type = Type::Number;
      n.number = v.as_number();
    } else if (v.is_string()) {
      n.type = Type::String;
      n.str = {span(v.as_string()),
               static_cast<std::uint32_t>(v.as_string().size())};
    } else if (v.is_array() || v.is_object()) {
      n.type = v.is_array() ? Type::Array : Type::Object;
      n.cont = {0, 0};
    }
    const auto idx = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(n);
    std::uint32_t last = 0;
    const auto link = [&](std::uint32_t child) {
      // Index, not reference: adding the child may have grown `nodes`.
      if (nodes[idx].cont.count++ == 0) {
        nodes[idx].cont.first = child;
      } else {
        nodes[last].next = child;
      }
      last = child;
    };
    if (v.is_array()) {
      for (const JsonValue& elem : v.as_array()) link(add(elem, nullptr));
    } else if (v.is_object()) {
      for (const auto& [name, member] : v.as_object()) link(add(member, &name));
    }
    return idx;
  }
};

}  // namespace

JsonArena JsonArena::from_json_value(const JsonValue& value) {
  JsonArena arena;
  ArenaBuilder{arena.scratch_, arena.nodes_}.add(value, nullptr);
  return arena;
}

// ---------------------------------------------------------------------------
// Request-field readers
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void field_type_error(std::string_view key, const char* want) {
  throw std::invalid_argument("field \"" + std::string(key) + "\" must be " +
                              want);
}

}  // namespace

std::string_view field_string(const JsonArena::View& object,
                              std::string_view key) {
  const JsonArena::View v = object.at(key);
  if (!v.is_string()) field_type_error(key, "a string");
  return v.as_string();
}

double field_number(const JsonArena::View& object, std::string_view key,
                    double fallback) {
  if (!object.contains(key)) return fallback;
  const JsonArena::View v = object.at(key);
  if (!v.is_number()) field_type_error(key, "a number");
  return v.as_number();
}

bool field_bool(const JsonArena::View& object, std::string_view key,
                bool fallback) {
  if (!object.contains(key)) return fallback;
  const JsonArena::View v = object.at(key);
  if (!v.is_bool()) field_type_error(key, "a boolean");
  return v.as_bool();
}

}  // namespace mecsc::util
