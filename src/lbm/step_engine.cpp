#include "lbm/step_engine.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <utility>

#include "base/contracts.hpp"
#include "hal/launch.hpp"

namespace hemo::lbm {
namespace {

/// Flat index of row q, column i in a q-major array of n-long rows.
std::size_t flat(int q, std::int64_t n, std::int64_t i) {
  return static_cast<std::size_t>(q) * static_cast<std::size_t>(n) +
         static_cast<std::size_t>(i);
}

/// Directions of point i whose upstream neighbour is missing, read back
/// from the slot table: a wall slot is the point's own opposite row (pull)
/// or its own straight row (AA).  The rest direction never has a wall.
std::uint32_t wall_mask(const BulkArgs& b, bool aa, std::int64_t i) {
  std::uint32_t walls = 0;
  #pragma GCC unroll 19
  for (int q = 1; q < kQ; ++q) {
    const auto own = static_cast<Slot>(flat(aa ? q : opposite(q), b.k.n, i));
    if (b.slots[flat(q, b.k.n, i)] == own) walls |= 1u << q;
  }
  return walls;
}

/// One point's neighbourhood as a two-point lattice, on which the
/// unchanged per-point reference kernels run without an int64 adjacency:
/// frame point 0 is the point itself, frame point 1 stands in for every
/// upstream neighbour.  The kernel reads the same values, walls and node
/// type as on the full lattice, so its result is bit-identical; the caller
/// copies the result back.
struct PointFrame {
  static constexpr std::int64_t kSelf = 0;
  static constexpr PointIndex kUpstream = 1;

  double f[2 * kQ] = {};
  double f_out[2 * kQ] = {};
  PointIndex adjacency[2 * kQ] = {};
  std::uint8_t node_type[2] = {};

  PointFrame(const BulkArgs& b, std::uint32_t walls, std::int64_t i) {
    for (int q = 0; q < kQ; ++q) {
      adjacency[2 * q] = walls & (1u << q) ? kSolidNeighbor : kUpstream;
      adjacency[2 * q + 1] = kSolidNeighbor;
    }
    node_type[0] = b.k.node_type[i];
    node_type[1] = static_cast<std::uint8_t>(NodeType::kBulk);
  }

  static std::size_t self(int q) { return static_cast<std::size_t>(2 * q); }
  static std::size_t upstream(int q) { return self(q) + 1; }

  /// `a` rebound onto the frame.
  KernelArgs args(const KernelArgs& a) {
    KernelArgs k = a;
    k.f_in = f;
    k.f_out = f_out;
    k.f = f;
    k.adjacency = adjacency;
    k.node_type = node_type;
    k.n = 2;
    return k;
  }
};

void pull_reference_point(const BulkArgs& b, std::int64_t i) {
  PointFrame frame(b, wall_mask(b, /*aa=*/false, i), i);
  for (int q = 0; q < kQ; ++q) {
    frame.f[PointFrame::self(q)] = b.k.f_in[flat(q, b.k.n, i)];
    frame.f[PointFrame::upstream(q)] = b.k.f_in[b.slots[flat(q, b.k.n, i)]];
  }
  stream_collide_point(frame.args(b.k), PointFrame::kSelf);
  for (int q = 0; q < kQ; ++q)
    b.k.f_out[flat(q, b.k.n, i)] = frame.f_out[PointFrame::self(q)];
}

void aa_even_reference_point(const BulkArgs& b, std::int64_t i) {
  PointFrame frame(b, wall_mask(b, /*aa=*/true, i), i);
  for (int q = 0; q < kQ; ++q)
    frame.f[PointFrame::self(q)] = b.k.f[flat(q, b.k.n, i)];
  stream_collide_point_aa_even(frame.args(b.k), PointFrame::kSelf);
  for (int q = 0; q < kQ; ++q)
    b.k.f[flat(q, b.k.n, i)] = frame.f[PointFrame::self(q)];
}

void aa_odd_reference_point(const BulkArgs& b, std::int64_t i) {
  const std::uint32_t walls = wall_mask(b, /*aa=*/true, i);
  PointFrame frame(b, walls, i);
  // Direction q is read from the upstream's opposite slot, or at a wall
  // from the point's own straight slot.  The point's other straight slots
  // belong to the neighbours this step updates, so they are not read.
  for (int q = 0; q < kQ; ++q) {
    if (walls & (1u << q))
      frame.f[PointFrame::self(q)] = b.k.f[flat(q, b.k.n, i)];
    frame.f[PointFrame::upstream(opposite(q))] =
        b.k.f[b.slots[flat(q, b.k.n, i)]];
  }
  stream_collide_point_aa_odd(frame.args(b.k), PointFrame::kSelf);
  // Result q went to the downstream's straight slot, or at a wall
  // (opposite(q) has no neighbour) to the point's own opposite slot; its
  // home on the lattice is slots[opposite(q)][i] either way.
  for (int q = 0; q < kQ; ++q) {
    const int o = opposite(q);
    b.k.f[b.slots[flat(o, b.k.n, i)]] =
        walls & (1u << o) ? frame.f[PointFrame::self(o)]
                          : frame.f[PointFrame::upstream(q)];
  }
}

}  // namespace

StepEngine::StepEngine(Propagation pattern, const StepStorage& storage,
                       BulkIsa isa)
    : pattern_(pattern),
      f_(storage.f_a),
      spare_(storage.f_b),
      node_type_(storage.node_type),
      n_(storage.n) {
  HEMO_EXPECTS(n_ >= 0 && storage.region >= 0);
  HEMO_EXPECTS(pattern_ == Propagation::kAAInPlace || spare_ != nullptr ||
               n_ == 0);  // pull needs its second buffer
  // Every flat index, q * n + i in a row or kQ * n + k in the region, must
  // fit a 32-bit Slot.
  HEMO_EXPECTS(kQ * n_ + storage.region <= std::numeric_limits<Slot>::max());
  HEMO_EXPECTS(bulk_isa_supported(isa));
  bulk_ = &bulk_kernels(isa);

  const bool aa = pattern_ == Propagation::kAAInPlace;
  const std::size_t region_start = flat(kQ, n_, 0);
  slots_.resize(region_start);
  for (int q = 0; q < kQ; ++q) {
    const int o = opposite(q);
    for (std::int64_t i = 0; i < n_; ++i) {
      const PointIndex up = storage.adjacency[flat(q, n_, i)];
      const std::size_t slot =
          up == kSolidNeighbor ? flat(aa ? q : o, n_, i)
          : up < n_ ? flat(aa ? o : q, n_, up)
                    : region_start + static_cast<std::size_t>(up - n_);
      slots_[flat(q, n_, i)] = static_cast<Slot>(slot);
    }
  }

  const std::int64_t blocks = (n_ + kStepBlock - 1) / kStepBlock;
  block_boundary_.assign(static_cast<std::size_t>(blocks) + 1, 0);
  for (std::int64_t i = 0; i < n_; ++i) {
    if (node_type_[i] == static_cast<std::uint8_t>(NodeType::kBulk)) continue;
    boundary_.push_back(i);
    ++block_boundary_[static_cast<std::size_t>(i / kStepBlock) + 1];
  }
  for (std::size_t b = 1; b < block_boundary_.size(); ++b)
    block_boundary_[b] += block_boundary_[b - 1];
}

KernelArgs StepEngine::args(const SolverOptions& o) const {
  KernelArgs a;
  a.f_in = f_;
  a.f_out = spare_;
  a.f = f_;
  a.node_type = node_type_;
  a.n = n_;
  a.omega = 1.0 / o.tau;
  a.force_x = o.body_force.x;
  a.force_y = o.body_force.y;
  a.force_z = o.body_force.z;
  a.inlet_velocity = o.inlet_velocity;
  a.outlet_density = o.outlet_density;
  return a;
}

BulkArgs StepEngine::bulk_args(const SolverOptions& o) const {
  return BulkArgs{args(o), slots_.data()};
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
  // opposite direction (aa_decanonicalize of the uniform field).  An AA
  // wall slot is the point's own straight slot.
  const bool aa = pattern_ == Propagation::kAAInPlace;
  double* f = f_;
  const Slot* slots = slots_.data();
  const auto n = static_cast<std::size_t>(n_);
  hal::launch(model, n_, [=](std::int64_t i) {
    #pragma GCC unroll 19
    for (int q = 0; q < kQ; ++q) {
      const std::size_t at = static_cast<std::size_t>(q) * n +
                             static_cast<std::size_t>(i);
      f[at] = aa && static_cast<std::size_t>(slots[at]) == at
                  ? feq[opposite(q)]
                  : feq[q];
    }
  });
}

StepEngine::BlockStep StepEngine::blocks(const SolverOptions& o) const {
  BlockStep block{.args = bulk_args(o),
                  .boundary = boundary_.data(),
                  .block_boundary = block_boundary_.data(),
                  .n = n_,
                  .count = (n_ + kStepBlock - 1) / kStepBlock};
  if (pattern_ == Propagation::kPullSoA) {
    block.bulk = bulk_->pull;
    block.boundary_point = pull_reference_point;
  } else if (steps_ % 2 == 0) {
    block.bulk = bulk_->aa_even;
    block.boundary_point = aa_even_reference_point;
  } else {
    block.bulk = bulk_->aa_odd;
    block.boundary_point = aa_odd_reference_point;
  }
  return block;
}

void StepEngine::commit() {
  if (pattern_ == Propagation::kPullSoA) std::swap(f_, spare_);
  ++steps_;
}

void StepEngine::step(const SolverOptions& o,
                      std::optional<hal::Model> model) {
  const BlockStep block = blocks(o);
  hal::launch(model, block.count, [=](std::int64_t b) {
    block.range(b * kStepBlock, std::min((b + 1) * kStepBlock, block.n));
  });
  commit();
}

void StepEngine::recompute_range(const SolverOptions& o, std::int64_t begin,
                                 std::int64_t end, double* out) const {
  HEMO_EXPECTS(pattern_ == Propagation::kPullSoA);  // AA overwrote its input
  HEMO_EXPECTS(0 <= begin && begin <= end && end <= n_);
  BulkArgs b = bulk_args(o);
  b.k.f_in = spare_;
  b.k.f_out = out;
  for (std::int64_t i = begin; i < end; ++i) pull_reference_point(b, i);
}

void StepEngine::set_steps_done(std::int64_t steps) {
  HEMO_EXPECTS(steps >= 0);
  steps_ = steps;
}

}  // namespace hemo::lbm
