#include "open_loop.hpp"

#include <algorithm>
#include <thread>

namespace hemo::bench {

std::vector<double> run_open_loop(
    const std::vector<double>& due_s, Clock::time_point t0,
    const std::function<void(std::size_t)>& send) {
  std::vector<double> lag(due_s.size(), 0.0);
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due_s[i]));
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    lag[i] = std::max(0.0, seconds_between(due, Clock::now()));
    send(i);
  }
  return lag;
}

}  // namespace hemo::bench
