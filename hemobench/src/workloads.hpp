#pragma once
// The three benchmark workloads.  Each builds its inputs from the seed,
// sets up kSetupReps times (setup_s is the median), runs a fixed prefix of
// timed units whose counters are exact for a seed, keeps timing units
// until `seconds` have passed, and checks its outputs against an oracle.

#include <cstdint>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace hemo::bench {

inline constexpr int kSetupReps = 5;

struct WorkloadContext {
  std::uint64_t seed = 1;
  /// Length of the timed phase; 0 runs the fixed prefix only.
  double seconds = 0.0;
  /// Records spans and the per-layer metrics when enabled.
  Tracer* tracer = nullptr;
  /// Scratch directory inside the checkout (checkpoints, journals).
  std::string workdir;

  bool traced() const { return tracer != nullptr && tracer->enabled(); }
};

RunResult run_cyl_device(const WorkloadContext& ctx);
RunResult run_dist_resilient(const WorkloadContext& ctx);
RunResult run_serve_open(const WorkloadContext& ctx);

}  // namespace hemo::bench
