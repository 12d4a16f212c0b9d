#pragma once
// Benchmark-side spans.  Spans are recorded around calls into the
// program's public functions (a solver step, a window, a server submit),
// kept in memory, and written out as JSON when the benchmark ends.  A
// disabled tracer records nothing; callers test enabled() before reading
// the clock for a span, so the untraced path pays no tracing cost.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace hemo::bench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::uint64_t group = 0;   // request id shared by one request's spans
  std::string name;
  double start_ms = 0.0;  // since the tracer's epoch
  double end_ms = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// A fresh span id, for a parent whose children finish before it does.
  std::uint64_t next_id();

  /// Records a finished span under a pre-assigned id.  Thread-safe.
  void record(std::uint64_t id, std::string_view name, std::uint64_t parent,
              std::uint64_t group, Clock::time_point start,
              Clock::time_point end);
  /// Records a finished span and returns its new id.
  std::uint64_t record(std::string_view name, std::uint64_t parent,
                       std::uint64_t group, Clock::time_point start,
                       Clock::time_point end);

  std::vector<Span> spans() const;

  /// Writes {"meta": <meta_json>, "spans": [...]} with each span's self time.
  bool write_json(const std::string& path, const std::string& meta_json) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t next_id_ = 1;  // guarded by mu_
};

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals);

/// Self time of every span, in the order given: its duration minus the part
/// of its interval covered by its direct children (overlapping children are
/// counted once; parts of a child outside the parent are ignored).
std::vector<double> self_times_ms(const std::vector<Span>& spans);

}  // namespace hemo::bench
