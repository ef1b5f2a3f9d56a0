// JSON interchange for instances and solutions.
//
// Lets experiments be split across processes and tools: generate an
// instance once (`mecsc generate`), solve it under different algorithm
// configurations (`mecsc solve`), and evaluate/compare placements
// (`mecsc evaluate`) — with the exact same bits each time. The format is
// versioned and round-trips everything the algorithms consume: topology,
// cloudlet/DC placement, capacities, providers, and cost constants.
#pragma once

#include <string>
#include <string_view>

#include "core/assignment.h"
#include "core/instance.h"
#include "util/json.h"
#include "util/json_arena.h"

namespace mecsc::core {

/// Format version written into every document.
inline constexpr int kIoFormatVersion = 1;

/// Serializes a full instance (topology + placements + providers + cost
/// constants).
util::JsonValue instance_to_json(const Instance& inst);

/// Rebuilds an instance from a parsed document. Throws util::JsonError on
/// malformed documents (missing keys, wrongly typed values) and
/// std::invalid_argument on semantically invalid ones (bad ids, negative
/// or non-finite capacities, unknown congestion kind, version mismatch).
Instance instance_from_arena(const util::JsonArena::View& doc);

/// instance_from_arena over a JsonValue tree (copied into an arena first),
/// for tests and callers that hold a built document.
Instance instance_from_json(const util::JsonValue& doc);

/// Bytes → Instance: parse_json_arena plus instance_from_arena, with no
/// JsonValue tree in between. Throws util::JsonError on malformed JSON and
/// the errors of instance_from_arena otherwise.
Instance instance_from_json_text(std::string_view text);

/// Serializes a strategy profile together with its cost summary.
util::JsonValue assignment_to_json(const Assignment& a);

/// Rebinds a serialized profile to `inst`. Throws std::invalid_argument if
/// the profile does not fit the instance (size mismatch, invalid cloudlet
/// ids, capacity violations).
Assignment assignment_from_json(const Instance& inst,
                                const util::JsonValue& doc);

/// Convenience text-file helpers (throw std::runtime_error on I/O errors).
std::string read_text_file(const std::string& path);
void write_text_file(const std::string& path, const std::string& content);

}  // namespace mecsc::core
