#pragma once
// Seeded inputs of the workloads and the computed byte model.  Everything
// here is a pure function of its arguments, so a seed reproduces a run's
// request stream and fault schedule exactly.

#include <cstdint>
#include <utility>
#include <vector>

#include "base/types.hpp"
#include "lbm/propagation.hpp"
#include "resilience/fault.hpp"

namespace hemo::bench {

/// Flow parameters of the solver workloads, drawn from the seed: the
/// relaxation time in [0.8, 1.0) and the inlet velocity in [0.005, 0.015).
struct FlowParams {
  double tau = 0.9;
  double inlet_velocity = 0.01;
};
FlowParams flow_params(std::uint64_t seed);

/// One request of the open-loop serve stream.
struct Request {
  double due_s = 0.0;       // send time, seconds after the stream starts
  int tenant = 0;           // index into the tenant list
  std::vector<int> series;  // indices into the series universe, distinct
};

/// Poisson arrivals at `rate_per_s` over [0, duration_s); each request is
/// sent by a uniformly drawn tenant and holds 1-3 distinct series drawn
/// Zipf(1)-skewed from [0, n_series) (series 0 the most popular).
std::vector<Request> make_request_stream(std::uint64_t seed, double rate_per_s,
                                         double duration_s, int n_series,
                                         int n_tenants);

/// Wire faults of each kind (drop, duplicate, corrupt, delay, truncate)
/// over the first kFaultHorizonSteps steps of the resilient workload.
inline constexpr std::int64_t kFaultHorizonSteps = 4096;
inline constexpr int kWireFaultsPerKind = 128;
/// In-memory kBitFlip events; below the solver's default rollback budget.
inline constexpr int kBitFlips = 3;

/// Fault schedule of the resilient workload: the wire faults above, and
/// kBitFlips flips at the middle step of windows 1, 2, 3, ... of
/// `window_steps` steps each (the solver's snapshot interval), so each
/// flip costs one rollback that replays exactly window_steps / 2 steps.
/// The seed picks the faults' pairs and steps and each flip's point,
/// direction and bit.
resilience::FaultPlan make_fault_plan(
    std::uint64_t seed, const std::vector<std::pair<Rank, Rank>>& edges,
    std::int64_t n_points, int window_steps);

/// Bytes one step moves per fluid point, computed from what the kernels
/// touch: the distributions lbm::propagation_bytes_per_point charges, plus
/// the kQ int64 adjacency entries the gather reads and the node-type byte,
/// which that model omits.  AA even steps read adjacency only at boundary
/// points, so AA is averaged over an even/odd pair.
double computed_bytes_per_point(lbm::Propagation pattern,
                                double boundary_fraction);

}  // namespace hemo::bench
