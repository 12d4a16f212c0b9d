#include "lbm/step_engine.hpp"

#include <array>
#include <utility>

#include "base/contracts.hpp"
#include "hal/launch.hpp"

namespace hemo::lbm {

StepEngine::StepEngine(Propagation pattern, const StepStorage& storage)
    : pattern_(pattern),
      f_(storage.f_a),
      spare_(storage.f_b),
      adjacency_(storage.adjacency),
      node_type_(storage.node_type),
      n_(storage.n),
      stride_(storage.stride) {
  HEMO_EXPECTS(n_ >= 0 && n_ <= stride_);
  HEMO_EXPECTS(pattern_ == Propagation::kAAInPlace || spare_ != nullptr ||
               stride_ == 0);  // pull needs its second buffer
}

KernelArgs StepEngine::args(const SolverOptions& o) const {
  KernelArgs a;
  a.f_in = f_;
  a.f_out = spare_;
  a.f = f_;
  a.adjacency = adjacency_;
  a.node_type = node_type_;
  a.n = stride_;
  a.omega = 1.0 / o.tau;
  a.force_x = o.body_force.x;
  a.force_y = o.body_force.y;
  a.force_z = o.body_force.z;
  a.inlet_velocity = o.inlet_velocity;
  a.outlet_density = o.outlet_density;
  return a;
}

void StepEngine::fill_equilibrium(const SolverOptions& o,
                                  std::optional<hal::Model> model) {
  HEMO_EXPECTS(steps_ == 0);
  std::array<double, kQ> feq{};
  for (int q = 0; q < kQ; ++q)
    feq[q] = equilibrium(q, o.initial_density, o.initial_velocity.x,
                         o.initial_velocity.y, o.initial_velocity.z);
  // At even parity an AA slot holds the population streamed in from
  // upstream; where upstream is a wall that is the point's own bounced
  // opposite direction (aa_decanonicalize of the uniform field).
  const bool aa = pattern_ == Propagation::kAAInPlace;
  double* f = f_;
  const PointIndex* adjacency = adjacency_;
  const auto stride = static_cast<std::size_t>(stride_);
  hal::launch(model, stride_, [=](std::int64_t i) {
    #pragma GCC unroll 19
    for (int q = 0; q < kQ; ++q) {
      const std::size_t at = static_cast<std::size_t>(q) * stride +
                             static_cast<std::size_t>(i);
      f[at] = aa && adjacency[at] == kSolidNeighbor ? feq[opposite(q)]
                                                    : feq[q];
    }
  });
}

void StepEngine::step(const SolverOptions& o,
                      std::optional<hal::Model> model) {
  const KernelArgs a = args(o);
  if (pattern_ == Propagation::kPullSoA) {
    hal::launch(model, n_,
                [a](std::int64_t i) { stream_collide_point(a, i); });
    std::swap(f_, spare_);
  } else if (steps_ % 2 == 0) {
    hal::launch(model, n_,
                [a](std::int64_t i) { stream_collide_point_aa_even(a, i); });
  } else {
    hal::launch(model, n_,
                [a](std::int64_t i) { stream_collide_point_aa_odd(a, i); });
  }
  ++steps_;
}

void StepEngine::recompute_range(const SolverOptions& o, std::int64_t begin,
                                 std::int64_t end, double* out) const {
  HEMO_EXPECTS(pattern_ == Propagation::kPullSoA);  // AA overwrote its input
  HEMO_EXPECTS(0 <= begin && begin <= end && end <= n_);
  KernelArgs a = args(o);
  a.f_in = spare_;
  a.f_out = out;
  for (std::int64_t i = begin; i < end; ++i) stream_collide_point(a, i);
}

void StepEngine::set_steps_done(std::int64_t steps) {
  HEMO_EXPECTS(steps >= 0);
  steps_ = steps;
}

}  // namespace hemo::lbm
