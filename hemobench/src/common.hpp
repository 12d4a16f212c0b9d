#pragma once
// Shared machinery of the benchmark program: clocks, quantiles, window
// summaries, the ordered metric set a workload reports, and the host
// fingerprint printed beside every result.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hemo::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

/// Linearly interpolated quantile q in [0, 1] of a sample (the "linear"
/// definition: position q * (n - 1) between the sorted order statistics).
/// Returns NaN for an empty sample.
double quantile(std::vector<double> values, double q);

/// One timed unit of a solver workload: `steps` solver steps that took
/// `seconds` of wall time.
struct Window {
  double seconds = 0.0;
  int steps = 0;
};

/// Per-step cost statistics over a set of windows.  Each window contributes
/// one sample, its time divided by its step count, so a window a rollback
/// or a checkpoint made longer counts once, at its own per-step cost.
struct WindowSummary {
  std::size_t windows = 0;
  std::int64_t steps = 0;
  double seconds = 0.0;  // summed window time
  double step_ms_p10 = 0.0;
  double step_ms_p50 = 0.0;
  std::vector<double> per_step_ms;  // one sample per window
};

WindowSummary summarize_windows(const std::vector<Window>& windows);

/// The metrics one run reports, in insertion order.  Setting a name twice
/// replaces its value.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void set(std::string_view name, double value, std::string_view unit);
  bool has(std::string_view name) const;
  double get(std::string_view name) const;  // NaN when absent
  void merge(const Metrics& other);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// What one workload pass returns to main().
struct RunResult {
  Metrics end_to_end;
  Metrics layers;
  std::int64_t attempted = 0;  // windows or requests
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // oracle mismatches, validity breaches

  bool correct() const { return errors.empty(); }
};

/// Sets the end-to-end metrics every workload reports from its timed
/// units: throughput (work per second), the p10 and p50 unit latency, the
/// tail latency (the workload's highest percentile with at least ten
/// samples beyond it) and setup_s (the median of the set-up repetitions).
/// main() adds peak_rss_mb.
void set_unit_metrics(RunResult* result, double throughput, double p10_ms,
                      double p50_ms, double tail_ms,
                      const std::vector<double>& setup_reps_s);

/// Peak resident set size of this process (getrusage ru_maxrss), MiB.
double peak_rss_mib();

/// Best-of-`reps` STREAM triad a[i] = b[i] + s * c[i] over three arrays of
/// `n` doubles, single-threaded, in GB/s (three arrays' bytes per pass).
double measure_triad_gbps(std::size_t n, int reps);

struct HostFingerprint {
  int nproc = 0;
  std::int64_t l2_bytes = 0;
  std::int64_t llc_bytes = 0;
  double triad_gbps = 0.0;
};

/// Core count, cache sizes and a triad over arrays past the L2, run in a
/// child process so this process's peak RSS never holds its arrays.  Call
/// it before starting any thread.  triad_gbps is NaN if the child failed.
HostFingerprint host_fingerprint();

/// Appends `value` as a JSON number with the shortest round-trip digits.
void append_json_number(std::string* out, double value);
std::string json_quote(std::string_view text);

}  // namespace hemo::bench
