#include "rt/job.hpp"

#include <algorithm>

namespace hemo::rt {

std::chrono::milliseconds backoff_delay(int attempt) {
  std::chrono::milliseconds delay = kInitialBackoff;
  for (int k = 1; k < attempt && delay < kMaxBackoff; ++k) delay *= 2;
  return std::min(delay, kMaxBackoff);
}

std::string describe(const JobFailure& failure) {
  std::string out = "job '" + failure.job + "' ";
  out += failure.cancelled ? "was cancelled"
                           : (failure.timed_out ? "timed out" : "failed");
  out += " after " + std::to_string(failure.attempts) + " attempt";
  if (failure.attempts != 1) out += "s";
  if (!failure.message.empty()) out += ": " + failure.message;
  return out;
}

}  // namespace hemo::rt
