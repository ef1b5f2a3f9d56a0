// Arena-backed, in-situ JSON parser — the one parser in the tree.
//
// The whole document lands in two contiguous buffers:
//
//   scratch_  one mutable copy of the input bytes; string tokens are
//             escape-decoded *in place* (decoded text is never longer than
//             its raw spelling), so string values are views into this
//             buffer and never allocate;
//   nodes_    a flat array of fixed-size nodes in document order.
//             Containers link their children cjson-style: the parent holds
//             the first-child index, each child the index of its next
//             sibling (indices, not pointers, so the arena can move
//             wholesale and the array can grow mid-parse).
//
// Parsing is iterative (an explicit open-container stack), so adversarial
// nesting cannot exhaust the call stack. JsonParseLimits::max_depth still
// bounds the nesting, because View::to_json_value() and both dumpers
// recurse once per level. parse_json (util/json.h) is this parser followed
// by View::to_json_value(), for callers that want an owned JsonValue tree.
//
// Canonical re-serialization (dump()) is byte-identical with the
// JsonValue dump of the same document: members sorted by key, last
// duplicate wins, same escape and number formatting. The service builds
// responses with JsonValue::dump and digests instance subtrees with
// View::dump, so the two must agree (tests/test_json_arena.cpp).
//
// Lifetime/ownership rules: a JsonArena owns its buffers; View cursors and
// the string_views they return borrow from it and are invalidated by
// destroying or moving the arena. Keep the arena alive for as long as any
// cursor or decoded string_view is in flight (in the service: the scope of
// one request).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace mecsc::util {

/// One parsed value. Fixed-size POD; strings are (offset, length) spans of
/// the arena's scratch buffer, containers are (first child, count) with
/// sibling links threading the flat node array.
struct JsonArenaNode {
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  /// Object-member name (span of scratch_); key_off == kNoKey for array
  /// elements and the root.
  std::uint32_t key_off = kNoKey;
  std::uint32_t key_len = 0;
  /// Index of the next sibling; 0 means none (node 0 is the root, which
  /// can never be anyone's sibling).
  std::uint32_t next = 0;
  union {
    double number;
    struct {
      std::uint32_t off;
      std::uint32_t len;
    } str;
    struct {
      std::uint32_t first;  ///< first child index (valid when count > 0)
      std::uint32_t count;  ///< direct children
    } cont;
  };

  static constexpr std::uint32_t kNoKey = 0xFFFFFFFFu;

  JsonArenaNode() : number(0.0) {}
};

/// A parsed document: two contiguous buffers plus cursor accessors.
class JsonArena {
 public:
  class View;

  JsonArena() = default;
  JsonArena(JsonArena&&) = default;
  JsonArena& operator=(JsonArena&&) = default;
  JsonArena(const JsonArena&) = delete;
  JsonArena& operator=(const JsonArena&) = delete;

  /// True until parse_json_arena or from_json_value has populated this
  /// arena.
  bool empty() const { return nodes_.empty(); }

  /// Copies a JsonValue tree into an arena, the inverse of
  /// View::to_json_value(). Numbers keep their exact bits, non-finite ones
  /// included, so decoders over View validate hand-built documents the way
  /// they validate parsed ones.
  static JsonArena from_json_value(const JsonValue& value);

  /// Cursor onto the document root. Throws JsonError on an empty arena.
  View root() const;

  /// Total parsed values (root included), recorded by bench_json.
  std::size_t node_count() const { return nodes_.size(); }

  /// Bytes of the scratch buffer (the input size, for a parsed document).
  std::size_t scratch_bytes() const { return scratch_.size(); }

  /// Canonical serialization of the whole document: members sorted by key
  /// (last duplicate wins), identical bytes to JsonValue::dump() of the
  /// same input. `indent` > 0 pretty-prints exactly like JsonValue::dump.
  std::string dump(int indent = 0) const;

 private:
  friend class View;
  friend JsonArena parse_json_arena(std::string_view text,
                                    const JsonParseLimits& limits);

  std::string scratch_;              ///< input copy, strings decoded in situ
  std::vector<JsonArenaNode> nodes_; ///< document-order value array
};

/// Lightweight cursor over one arena value: {arena pointer, node index}.
/// Copyable; borrows the arena (see lifetime rules above). Accessors throw
/// JsonError with the same messages as the JsonValue accessors.
class JsonArena::View {
 public:
  View() = default;

  bool is_null() const { return node().type == JsonArenaNode::Type::Null; }
  bool is_bool() const { return node().type == JsonArenaNode::Type::Bool; }
  bool is_number() const { return node().type == JsonArenaNode::Type::Number; }
  bool is_string() const { return node().type == JsonArenaNode::Type::String; }
  bool is_array() const { return node().type == JsonArenaNode::Type::Array; }
  bool is_object() const { return node().type == JsonArenaNode::Type::Object; }

  bool as_bool() const;
  double as_number() const;
  /// View into the arena scratch buffer — zero-copy, arena-lifetime.
  std::string_view as_string() const;

  /// Forward range over a container's children (Views; objects expose the
  /// member name via View::key()), in document order.
  class ChildRange;
  ChildRange as_array() const;   ///< throws unless is_array()
  ChildRange as_object() const;  ///< throws unless is_object()

  /// Direct children of a container (0 for scalars).
  std::size_t size() const;

  /// Object member lookup. Duplicate keys resolve to the *last* occurrence,
  /// the member that dump() and to_json_value() keep. Throws JsonError
  /// "json: missing key 'k'" when absent.
  View at(std::string_view key) const;
  bool contains(std::string_view key) const;
  double number_at(std::string_view key) const { return at(key).as_number(); }
  std::string_view string_at(std::string_view key) const {
    return at(key).as_string();
  }

  /// Member name when this view was reached as an object member.
  std::string_view key() const;

  /// Canonical serialization of this subtree (same bytes as the dump of
  /// the equivalent JsonValue — the service digests instance subtrees
  /// through this).
  std::string dump(int indent = 0) const;

  /// Materializes this subtree as an owned JsonValue tree (one allocation
  /// per node; parse_json is parse_json_arena plus this).
  JsonValue to_json_value() const;

 private:
  friend class JsonArena;

  View(const JsonArena* arena, std::uint32_t index)
      : arena_(arena), index_(index) {}

  const JsonArenaNode& node() const { return arena_->nodes_[index_]; }

  const JsonArena* arena_ = nullptr;
  std::uint32_t index_ = 0;
};

/// Forward iteration over direct children via the sibling links.
class JsonArena::View::ChildRange {
 public:
  class iterator {
   public:
    using value_type = View;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const JsonArena* arena, std::uint32_t index)
        : view_(arena, index) {}

    View operator*() const { return view_; }
    const View* operator->() const { return &view_; }
    iterator& operator++() {
      view_.index_ = view_.node().next;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const iterator& o) const {
      return view_.index_ == o.view_.index_ && view_.arena_ == o.view_.arena_;
    }
    bool operator!=(const iterator& o) const { return !(*this == o); }

   private:
    View view_;
  };

  ChildRange(const JsonArena* arena, std::uint32_t first, std::uint32_t count)
      : arena_(arena), first_(first), count_(count) {}

  iterator begin() const {
    return count_ == 0 ? end() : iterator(arena_, first_);
  }
  iterator end() const { return iterator(arena_, 0); }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// O(i) sibling walk — for small fixed-arity tuples (edge quadruples),
  /// not for scanning long arrays; iterate those.
  View operator[](std::size_t i) const;

 private:
  const JsonArena* arena_;
  std::uint32_t first_;
  std::uint32_t count_;
};

/// Parses a complete JSON document into an arena. Throws JsonError
/// carrying the byte offset of the first problem; the grammar and limits
/// are documented at parse_json (util/json.h).
JsonArena parse_json_arena(std::string_view text,
                           const JsonParseLimits& limits = {});

/// Typed reads of one member of a request object. The solver service, the
/// router and core::solve_spec_from_arena read request fields through
/// these, so every front door words a wrongly typed field the same way:
/// std::invalid_argument `field "<key>" must be a <type>`.
/// field_string needs `key` present (check contains() first; an absent key
/// throws JsonError "json: missing key"); the others return `fallback`
/// when it is absent.
std::string_view field_string(const JsonArena::View& object,
                              std::string_view key);
double field_number(const JsonArena::View& object, std::string_view key,
                    double fallback);
bool field_bool(const JsonArena::View& object, std::string_view key,
                bool fallback);

}  // namespace mecsc::util
