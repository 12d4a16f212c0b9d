#pragma once
// Open-loop load generation: requests go out on a fixed schedule whether
// or not earlier ones have completed, so a stall shows up as waiting in the
// requests behind it.  Latency is measured from each request's due time,
// not from when the generator got around to sending it.

#include <functional>
#include <vector>

#include "common.hpp"

namespace hemo::bench {

/// Calls send(i) at t0 + due_s[i] for every i in order, sleeping while
/// ahead of schedule and never skipping when behind.  send must not wait
/// for the request to complete.  Returns, per request, how late its send
/// started (seconds past its due time; 0 when on time).
std::vector<double> run_open_loop(const std::vector<double>& due_s,
                                  Clock::time_point t0,
                                  const std::function<void(std::size_t)>& send);

/// Seconds from a request's due time to its completion.
inline double latency_from_due(Clock::time_point t0, double due_s,
                               Clock::time_point done) {
  return seconds_between(t0, done) - due_s;
}

}  // namespace hemo::bench
