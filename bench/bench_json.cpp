// bench_json — JSON parse and instance decode throughput on instance
// documents (the serving hot path's workload).
//
// For each fig2-scale network size, generates a seed-deterministic
// instance, serializes it canonically, and times three calls over the
// same bytes:
//   parse_json_arena         bytes -> JsonArena (what the service runs)
//   parse_json               bytes -> JsonArena -> owned JsonValue tree
//   instance_from_json_text  bytes -> JsonArena -> core::Instance
// Deterministic record fields: document bytes, arena node count, and the
// canonical-dump digest. All timing and throughput live under wall_ keys.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/io.h"
#include "obs/run_info.h"
#include "util/json.h"
#include "util/json_arena.h"

int main() {
  using namespace mecsc;
  using namespace mecsc::bench;

  const std::vector<std::size_t> sizes =
      smoke_trim(std::vector<std::size_t>{40, 80, 160, 320});
  // Iterations per measurement: enough for stable figures in a full run,
  // scaled down (with the repetition count) for CI smoke.
  const std::size_t iterations = smoke_mode() ? 5 : 40;

  util::Table table({"network size", "bytes", "arena parse (ms)",
                     "parse_json (ms)", "decode (ms)", "arena MB/s"});
  BenchRecorder recorder("json");

  for (const std::size_t size : sizes) {
    util::Rng rng(1000 * size + 7);
    core::InstanceParams params;
    params.network_size = size;
    params.provider_count = 2 * size;
    const core::Instance inst = core::generate_instance(params, rng);
    const std::string bytes = core::instance_to_json(inst).dump();
    const util::JsonArena doc = util::parse_json_arena(bytes);

    double arena_parse_ms = 0.0, parse_json_ms = 0.0, decode_ms = 0.0;
    for (std::size_t rep = 0; rep < repetitions(); ++rep) {
      {
        const util::Timer t;
        for (std::size_t i = 0; i < iterations; ++i) {
          const util::JsonArena a = util::parse_json_arena(bytes);
          if (a.empty()) std::abort();  // keep the parse observable
        }
        arena_parse_ms += t.elapsed_ms();
      }
      {
        const util::Timer t;
        for (std::size_t i = 0; i < iterations; ++i) {
          const util::JsonValue v = util::parse_json(bytes);
          if (v.is_null()) std::abort();
        }
        parse_json_ms += t.elapsed_ms();
      }
      {
        const util::Timer t;
        for (std::size_t i = 0; i < iterations; ++i) {
          const core::Instance decoded = core::instance_from_json_text(bytes);
          if (decoded.provider_count() == 0) std::abort();
        }
        decode_ms += t.elapsed_ms();
      }
    }
    const double runs = static_cast<double>(repetitions() * iterations);
    arena_parse_ms /= runs;
    parse_json_ms /= runs;
    decode_ms /= runs;
    const double mb = static_cast<double>(bytes.size()) / 1e6;
    const double arena_mb_per_s =
        arena_parse_ms > 0.0 ? mb / (arena_parse_ms / 1e3) : 0.0;

    table.add_row({static_cast<long long>(size),
                   static_cast<long long>(bytes.size()), arena_parse_ms,
                   parse_json_ms, decode_ms, arena_mb_per_s});

    util::JsonObject row;
    row["network_size"] = util::JsonValue(size);
    row["document_bytes"] = util::JsonValue(bytes.size());
    row["arena_nodes"] = util::JsonValue(doc.node_count());
    row["canonical_digest"] = util::JsonValue(obs::fnv1a64_hex(doc.dump()));
    // A throughput is derived from wall clocks, so it carries the wall_
    // prefix even without an _ms unit suffix.
    row["wall_arena_parse_mb_per_s"] = util::JsonValue(arena_mb_per_s);
    recorder.add("size=" + std::to_string(size), std::move(row),
                 {{"arena_parse", arena_parse_ms},
                  {"parse_json", parse_json_ms},
                  {"arena_decode", decode_ms}});
  }
  recorder.write_file();

  std::cout << "JSON parse (util/json_arena.h) and instance decode, "
            << repetitions() << " reps x " << iterations
            << " iterations per point, per-call means\n";
  util::print_section(std::cout, "instance documents", table);
  return 0;
}
