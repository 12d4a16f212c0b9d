#include "workload_plans.hpp"

#include <algorithm>
#include <cmath>

#include "base/rng.hpp"
#include "lbm/d3q19.hpp"

namespace hemo::bench {

FlowParams flow_params(std::uint64_t seed) {
  SplitMix64 rng(seed ^ 0xF10Dull);
  FlowParams p;
  p.tau = rng.uniform(0.8, 1.0);
  p.inlet_velocity = rng.uniform(0.005, 0.015);
  return p;
}

std::vector<Request> make_request_stream(std::uint64_t seed, double rate_per_s,
                                         double duration_s, int n_series,
                                         int n_tenants) {
  SplitMix64 rng(seed);
  std::vector<double> cumulative(static_cast<std::size_t>(n_series));
  double total = 0.0;
  for (int k = 0; k < n_series; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cumulative[static_cast<std::size_t>(k)] = total;
  }
  const auto zipf = [&] {
    const double u = rng.next_double() * total;
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
    return static_cast<int>(std::min<std::ptrdiff_t>(
        it - cumulative.begin(), n_series - 1));
  };

  std::vector<Request> stream;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / rate_per_s;
    if (t >= duration_s) break;
    Request r;
    r.due_s = t;
    r.tenant = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(n_tenants)));
    const int count = std::min(1 + static_cast<int>(rng.next_below(3)),
                               n_series);
    while (static_cast<int>(r.series.size()) < count) {
      const int s = zipf();
      if (std::find(r.series.begin(), r.series.end(), s) == r.series.end())
        r.series.push_back(s);
    }
    stream.push_back(std::move(r));
  }
  return stream;
}

resilience::FaultPlan make_fault_plan(
    std::uint64_t seed, const std::vector<std::pair<Rank, Rank>>& edges,
    std::int64_t n_points, int window_steps) {
  using resilience::FaultKind;
  resilience::FaultPlan plan = resilience::FaultPlan::random(
      seed, kFaultHorizonSteps, edges,
      {FaultKind::kDrop, FaultKind::kDuplicate, FaultKind::kCorrupt,
       FaultKind::kDelay, FaultKind::kTruncate},
      kWireFaultsPerKind);
  // Window w covers steps [w * window_steps, (w + 1) * window_steps).
  SplitMix64 rng(seed ^ 0x5DC0FFEEull);
  for (int k = 0; k < kBitFlips; ++k) {
    resilience::FaultEvent e;
    e.kind = FaultKind::kBitFlip;
    e.step = static_cast<std::int64_t>(k + 1) * window_steps +
             window_steps / 2;
    e.flip_point = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(n_points)));
    e.flip_q = static_cast<int>(rng.next_below(lbm::kQ));
    e.flip_bit = static_cast<int>(rng.next_below(64));
    plan.add(e);
  }
  return plan;
}

double computed_bytes_per_point(lbm::Propagation pattern,
                                double boundary_fraction) {
  const double distributions = lbm::propagation_bytes_per_point(pattern);
  const double adjacency =
      static_cast<double>(lbm::kQ) * sizeof(PointIndex);
  const double node_type = 1.0;
  if (pattern == lbm::Propagation::kPullSoA)
    return distributions + adjacency + node_type;
  // Odd steps read every adjacency entry; even steps only at boundaries.
  return distributions + 0.5 * (adjacency + boundary_fraction * adjacency) +
         node_type;
}

}  // namespace hemo::bench
