// Wire protocol: the flat line-JSON grammar, field validation, figure and
// series expansion, and escaping.

#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/format.hpp"

namespace hemo::serve {
namespace {

Request parse_ok(const std::string& line) {
  Request request;
  std::string error;
  EXPECT_TRUE(parse_request(line, &request, &error)) << error;
  return request;
}

std::string parse_error(const std::string& line) {
  Request request;
  std::string error;
  EXPECT_FALSE(parse_request(line, &request, &error)) << line;
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(Protocol, ParsesASubmitRequest) {
  const Request req = parse_ok(
      R"({"op": "submit", "tenant": "alice", "name": "job1",)"
      R"( "figure": "fig7", "series": ["crusher:hip", "polaris:cuda"]})");
  EXPECT_EQ(req.op, Op::kSubmit);
  EXPECT_EQ(req.tenant, "alice");
  EXPECT_EQ(req.name, "job1");
  EXPECT_EQ(req.figure, "fig7");
  ASSERT_EQ(req.series.size(), 2u);
  EXPECT_EQ(req.series[0], "crusher:hip");
  EXPECT_EQ(req.series[1], "polaris:cuda");
}

TEST(Protocol, ParsesATenantConfigRequest) {
  const Request req = parse_ok(
      R"({"op": "tenant", "tenant": "bob", "weight": 2.5,)"
      R"( "budget": 40, "max_pending": 64})");
  EXPECT_EQ(req.op, Op::kTenant);
  EXPECT_EQ(req.tenant, "bob");
  ASSERT_TRUE(req.weight.has_value());
  EXPECT_DOUBLE_EQ(*req.weight, 2.5);
  ASSERT_TRUE(req.budget.has_value());
  EXPECT_DOUBLE_EQ(*req.budget, 40.0);
  ASSERT_TRUE(req.max_pending.has_value());
  EXPECT_EQ(*req.max_pending, 64);
}

TEST(Protocol, ParsesBareOps) {
  EXPECT_EQ(parse_ok(R"({"op": "stats"})").op, Op::kStats);
  EXPECT_EQ(parse_ok(R"({"op": "shutdown"})").op, Op::kShutdown);
}

TEST(Protocol, EscapedStringsRoundTrip) {
  const Request req = parse_ok(
      R"({"op": "submit", "tenant": "a\"b\\c", "name": "tab\there"})");
  EXPECT_EQ(req.tenant, "a\"b\\c");
  EXPECT_EQ(req.name, "tab\there");
}

TEST(Protocol, RejectsMalformedLines) {
  parse_error("");
  parse_error("not json");
  parse_error(R"({"op": "submit", "tenant": "a")");   // unterminated object
  parse_error(R"({"op": "submit", "tenant": "a"} x)");  // trailing bytes
  parse_error(R"({"tenant": "a"})");                  // missing op
  parse_error(R"({"op": "frobnicate"})");             // unknown op
  parse_error(R"({"op": "submit"})");                 // submit needs tenant
  parse_error(R"({"op": "tenant"})");                 // tenant op needs tenant
}

TEST(Protocol, RejectsUnknownFieldsLoudly) {
  // Catching the typo beats silently ignoring a misspelled budget.
  const std::string error =
      parse_error(R"({"op": "tenant", "tenant": "a", "weigth": 2})");
  EXPECT_NE(error.find("weigth"), std::string::npos);
}

TEST(Protocol, RejectsNonPositiveLimits) {
  parse_error(R"({"op": "tenant", "tenant": "a", "weight": 0})");
  parse_error(R"({"op": "tenant", "tenant": "a", "budget": -1})");
  parse_error(R"({"op": "tenant", "tenant": "a", "max_pending": 0})");
}

TEST(Protocol, RejectsNonFiniteNumbers) {
  // strtod happily reads these spellings; admission must never see them
  // (nan slips past a '<= 0' check, inf monopolizes fair share).
  parse_error(R"({"op": "tenant", "tenant": "a", "weight": nan})");
  parse_error(R"({"op": "tenant", "tenant": "a", "weight": inf})");
  parse_error(R"({"op": "tenant", "tenant": "a", "budget": nan})");
  parse_error(R"({"op": "tenant", "tenant": "a", "budget": 1e999})");
  parse_error(R"({"op": "tenant", "tenant": "a", "max_pending": nan})");
}

TEST(Protocol, BoundsMaxPendingToIntRange) {
  // Casting past INT_MAX is UB; the largest int must still round-trip.
  parse_error(R"({"op": "tenant", "tenant": "a", "max_pending": 1e18})");
  const Request req = parse_ok(
      R"({"op": "tenant", "tenant": "a", "max_pending": 2147483647})");
  ASSERT_TRUE(req.max_pending.has_value());
  EXPECT_EQ(*req.max_pending, 2147483647);
}

TEST(Protocol, BuildSeriesExpandsFigureAndSeriesStrings) {
  Request req;
  req.op = Op::kSubmit;
  req.tenant = "a";
  req.figure = "fig7";
  req.series = {"crusher:hip:harvey:aorta"};
  std::vector<rt::SeriesSpec> series;
  std::string error;
  ASSERT_TRUE(build_series(req, &series, &error)) << error;
  // The figure matrix comes first, then the explicit series.
  EXPECT_EQ(series.size(), rt::figure_matrix("fig7").size() + 1);
  EXPECT_EQ(series.back().system, sys::SystemId::kCrusher);
  EXPECT_EQ(series.back().model, hal::Model::kHip);
  EXPECT_EQ(series.back().workload, rt::WorkloadKind::kAorta);
}

TEST(Protocol, BuildSeriesRejectsUnknownInputs) {
  Request req;
  req.op = Op::kSubmit;
  req.tenant = "a";
  std::vector<rt::SeriesSpec> series;
  std::string error;

  req.figure = "fig99";
  EXPECT_FALSE(build_series(req, &series, &error));

  req.figure.clear();
  req.series = {"atlantis:cuda"};
  EXPECT_FALSE(build_series(req, &series, &error));

  req.series.clear();  // no figure, no series: nothing to run
  EXPECT_FALSE(build_series(req, &series, &error));
}

TEST(Protocol, JsonEscapeHandlesSpecialsAndControlBytes) {
  EXPECT_EQ(hemo::json_escape("plain"), "plain");
  EXPECT_EQ(hemo::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(hemo::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(hemo::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(hemo::json_escape("a\rb"), "a\\u000db");
  EXPECT_EQ(hemo::json_escape(std::string("a\x01" "b", 3)), "a\\u0001b");
}

}  // namespace
}  // namespace hemo::serve
