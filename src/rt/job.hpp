#pragma once
// Fault-tolerant job wrapper for the campaign runtime: bounded retry with
// exponential backoff, a per-job wall-clock timeout, and structured
// failure capture so one faulted job degrades a campaign report instead
// of aborting it.
//
// Timeout model: jobs run in-process and cannot be killed mid-flight, so
// the timeout is cooperative — an attempt that returns after its deadline
// is discarded and classified as timed out (and retried like any other
// failure).  This matches the runtime's jobs, which are short pure
// computations; a timeout here means "this parameter point is pathological,
// keep the campaign moving", not "reclaim a wedged thread".

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace hemo::rt {

struct RetryPolicy {
  int max_attempts = 3;
};

inline constexpr std::chrono::milliseconds kInitialBackoff{1};
inline constexpr std::chrono::milliseconds kMaxBackoff{100};

/// Delay before the retry that follows failed attempt number `attempt`
/// (1-based): kInitialBackoff * 2^(attempt-1), capped at kMaxBackoff.
std::chrono::milliseconds backoff_delay(int attempt);

struct JobOptions {
  std::string name = "job";
  std::chrono::milliseconds timeout{0};  // 0 = unlimited
  RetryPolicy retry;
  /// Cooperative cancellation: consulted before every attempt (so a
  /// multi-attempt job stops retrying the moment its requester goes
  /// away — e.g. a serve request whose deadline expired).  Returning true
  /// fails the job with JobFailure::cancelled set; an attempt already in
  /// flight is not interrupted, matching the cooperative timeout model.
  std::function<bool()> cancelled;
};

struct JobFailure {
  std::string job;
  int attempts = 0;
  bool timed_out = false;
  std::string message;
  bool cancelled = false;  // stopped by JobOptions::cancelled, not by error
};

/// "job 'name' failed after N attempts: message" (or "timed out ...").
std::string describe(const JobFailure& failure);

/// Cross-attempt checkpoint handle for resumable jobs.  A body that
/// periodically checkpoints (e.g. DistributedSolver::save_checkpoint)
/// record()s the file here; when a later attempt of the same job starts,
/// has_checkpoint() tells it whether to restore and resume instead of
/// recomputing from step zero.  The slot is plain bookkeeping shared
/// across the attempts of one run_job call — the checkpoint files
/// themselves are written and validated by the caller.
struct CheckpointSlot {
  std::string path;        // last recorded checkpoint file
  std::int64_t step = -1;  // step it was taken at; -1 = none recorded

  bool has_checkpoint() const { return step >= 0; }
  void record(std::string checkpoint_path, std::int64_t at_step) {
    path = std::move(checkpoint_path);
    step = at_step;
  }
  void clear() {
    path.clear();
    step = -1;
  }
};

template <class T>
struct JobOutcome {
  std::optional<T> value;
  std::optional<JobFailure> failure;
  int attempts = 0;
  double elapsed_s = 0.0;  // all attempts + backoff sleeps

  bool ok() const { return value.has_value(); }
};

/// Runs `body(attempt)` (attempt is 1-based) up to retry.max_attempts
/// times, sleeping backoff_delay() between attempts.  An attempt fails by
/// throwing or by exceeding options.timeout; the last failure is captured
/// in the outcome.  Exceptions never escape.
template <class T, class Body>
JobOutcome<T> run_job(const JobOptions& options, Body&& body) {
  using clock = std::chrono::steady_clock;
  const int max_attempts = options.retry.max_attempts > 0
                               ? options.retry.max_attempts
                               : 1;
  JobOutcome<T> out;
  const clock::time_point start = clock::now();
  std::string last_message;
  bool last_timed_out = false;
  bool was_cancelled = false;

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (options.cancelled && options.cancelled()) {
      was_cancelled = true;
      last_timed_out = false;
      last_message = "cancelled before attempt " + std::to_string(attempt);
      break;
    }
    out.attempts = attempt;
    const clock::time_point attempt_start = clock::now();
    try {
      T value = body(attempt);
      const auto attempt_elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              clock::now() - attempt_start);
      if (options.timeout.count() > 0 && attempt_elapsed > options.timeout) {
        last_timed_out = true;
        last_message = "attempt took " + std::to_string(attempt_elapsed.count()) +
                       " ms, timeout " + std::to_string(options.timeout.count()) +
                       " ms";
      } else {
        out.value = std::move(value);
        break;
      }
    } catch (const std::exception& e) {
      last_timed_out = false;
      last_message = e.what();
    } catch (...) {
      last_timed_out = false;
      last_message = "unknown exception";
    }
    if (attempt < max_attempts)
      std::this_thread::sleep_for(backoff_delay(attempt));
  }

  if (!out.value)
    out.failure = JobFailure{options.name, out.attempts, last_timed_out,
                             last_message, was_cancelled};
  out.elapsed_s =
      std::chrono::duration<double>(clock::now() - start).count();
  return out;
}

}  // namespace hemo::rt
