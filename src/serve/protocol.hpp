#pragma once
// Wire protocol of the hemo-serve campaign service: line-delimited JSON.
// A client writes one JSON object per line; the server answers with one
// or more JSON event objects per line on the same connection.  The
// protocol is deliberately flat — every request is a single object of
// string/number/bool fields plus at most one array of strings — so the
// parser here covers exactly that grammar and rejects everything else.
//
// Requests:
//   {"op": "submit", "tenant": "alice", "name": "job1",
//    "figure": "fig7", "series": ["crusher:hip:harvey:aorta", ...],
//    "deadline_ms": 5000}
//   {"op": "tenant", "tenant": "alice", "weight": 2.0,
//    "budget": 50.0, "max_pending": 256}
//   {"op": "stats"}
//   {"op": "shutdown"}
//
// Responses (events):
//   {"event": "accepted", "request": 1, "tenant": "alice", "points": 12,
//    "cost": 1.5}
//   {"event": "rejected", "reason": "over_budget"|"queue_full"|
//    "bad_request"|"shutting_down", "detail": "..."}
//   {"event": "point", "request": 1, "series": 0, "point": 3, ...,
//    "coalesced": true|false}
//   {"event": "done", "request": 1, "points": 12, "failed": 0}
//   {"event": "ack", "op": "tenant"}
//   {"event": "stats", ...}
//
// The full field-by-field specification lives in DESIGN.md ("Serving
// tier").

#include <optional>
#include <string>
#include <vector>

#include "rt/campaign.hpp"

namespace hemo::serve {

enum class Op { kSubmit, kTenant, kStats, kShutdown };

/// One parsed request line.  Unknown fields are a parse error (catching
/// client typos like "weigth" beats silently ignoring them).
struct Request {
  Op op = Op::kSubmit;
  std::string tenant;
  std::string name;                  // submit: campaign name (optional)
  std::string figure;                // submit: figure matrix shorthand
  std::vector<std::string> series;   // submit: "system:model[:app[:workload]]"
  std::optional<double> weight;      // tenant
  std::optional<double> budget;      // tenant
  std::optional<int> max_pending;    // tenant
  /// submit: wall-clock budget in milliseconds; past it the request gets
  /// one deadline_exceeded event and its undelivered points are cancelled.
  std::optional<double> deadline_ms;
};

/// Parses one request line.  On failure returns false and sets *error to
/// a one-line description (which the server sends back verbatim in a
/// bad_request rejection).
bool parse_request(const std::string& line, Request* out, std::string* error);

/// Expands a submit request's figure + series strings into the series
/// list run_campaign would price.  Returns false (with *error set) on an
/// unknown figure or a malformed series string.
bool build_series(const Request& request, std::vector<rt::SeriesSpec>* out,
                  std::string* error);

}  // namespace hemo::serve
