// SolveSpec decoding and cache keys. The service's bad_request error text
// is part of the wire contract, so rejections are pinned verbatim.
#include "core/solver_api.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/json_arena.h"

namespace mecsc::core {
namespace {

SolveSpec decode(const std::string& doc) {
  return solve_spec_from_arena(util::parse_json_arena(doc).root());
}

TEST(SolverApi, DecodeSolveSpecDefaults) {
  const SolveSpec spec = decode("{}");
  EXPECT_EQ(spec.algorithm, "lcf");
  EXPECT_DOUBLE_EQ(spec.one_minus_xi, 0.3);
}

TEST(SolverApi, DecodeSolveSpecFields) {
  const SolveSpec spec =
      decode(R"({"algorithm": "lcf", "one_minus_xi": 0.45, "extra": 1})");
  EXPECT_EQ(spec.algorithm, "lcf");
  EXPECT_DOUBLE_EQ(spec.one_minus_xi, 0.45);
  for (const std::string& name : solver_algorithm_names()) {
    EXPECT_EQ(decode(R"({"algorithm": ")" + name + R"("})").algorithm, name);
  }
}

TEST(SolverApi, DecodeSolveSpecRejectsUnknownAlgorithm) {
  try {
    decode(R"({"algorithm": "gradient-descent"})");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown algorithm \"gradient-descent\"");
  }
}

TEST(SolverApi, DecodeSolveSpecRejectsNonNumberXi) {
  try {
    decode(R"({"one_minus_xi": "0.3"})");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "field \"one_minus_xi\" must be a number");
  }
}

TEST(SolverApi, DecodeSolveSpecRejectsNonStringAlgorithm) {
  try {
    decode(R"({"algorithm": 7})");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "field \"algorithm\" must be a string");
  }
}

TEST(SolverApi, DecodeSolveSpecRejectsMalformedJson) {
  EXPECT_THROW(decode("{\"algorithm\": "), util::JsonError);
  EXPECT_THROW(decode(""), util::JsonError);
}

TEST(SolverApi, CacheKeySeparatesLcfXi) {
  SolveSpec a, b;
  a.algorithm = b.algorithm = "lcf";
  a.one_minus_xi = 0.3;
  b.one_minus_xi = 0.30000000000000004;  // adjacent double
  EXPECT_NE(a.cache_key(), b.cache_key());
  b.one_minus_xi = 0.3;
  EXPECT_EQ(a.cache_key(), b.cache_key());
  // Non-LCF algorithms ignore xi in the key (it does not affect results).
  a.algorithm = b.algorithm = "appro";
  a.one_minus_xi = 0.1;
  b.one_minus_xi = 0.9;
  EXPECT_EQ(a.cache_key(), b.cache_key());
}

}  // namespace
}  // namespace mecsc::core
