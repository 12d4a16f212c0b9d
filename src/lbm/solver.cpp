#include "lbm/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/contracts.hpp"
#include "lbm/aa_layout.hpp"
#include "lbm/hemodynamics.hpp"

namespace hemo::lbm {

Solver::Solver(std::shared_ptr<const SparseLattice> lattice,
               SolverOptions options)
    : lattice_(std::move(lattice)), options_(options) {
  HEMO_EXPECTS(lattice_ != nullptr);
  HEMO_EXPECTS(options_.tau > 0.5);  // positive viscosity / linear stability
  HEMO_EXPECTS(options_.outlet_density > 0.0);
  HEMO_EXPECTS(std::abs(options_.inlet_velocity) < 1.0);

  const auto n = static_cast<std::size_t>(lattice_->size());
  buf_a_.resize(static_cast<std::size_t>(kQ) * n);
  buf_b_.resize(static_cast<std::size_t>(kQ) * n);
  const bool aa = options_.propagation == Propagation::kAAInPlace;
  engine_ = StepEngine(
      options_.propagation,
      {buf_a_.data(), aa ? nullptr : buf_b_.data(),
       lattice_->adjacency().data(),
       reinterpret_cast<const std::uint8_t*>(lattice_->node_types().data()),
       lattice_->size()});
  engine_.fill_equilibrium(options_);
}

void Solver::step() {
  engine_.step(options_);
  aa_canonical_fresh_ = false;
}

void Solver::run(int steps) {
  HEMO_EXPECTS(steps >= 0);
  for (int s = 0; s < steps; ++s) step();
}

const std::vector<double>& Solver::distributions() const {
  if (options_.propagation == Propagation::kPullSoA)
    return engine_.live() == buf_a_.data() ? buf_a_ : buf_b_;
  if (!aa_canonical_fresh_) {
    aa_canonicalize(lattice_->adjacency().data(), lattice_->size(),
                    engine_.steps_done(), buf_a_.data(), buf_b_.data());
    aa_canonical_fresh_ = true;
  }
  return buf_b_;
}

Moments Solver::moments(PointIndex i) const {
  HEMO_EXPECTS(i >= 0 && i < lattice_->size());
  return moments_at(distributions().data(), lattice_->size(), i,
                    options_.body_force);
}

double Solver::total_mass() const {
  double mass = 0.0;
  for (double v : distributions()) mass += v;
  return mass;
}

void Solver::set_inlet_velocity(double velocity) {
  HEMO_EXPECTS(std::abs(velocity) < 1.0);
  options_.inlet_velocity = velocity;
}

std::array<double, 6> Solver::stress(PointIndex i) const {
  HEMO_EXPECTS(i >= 0 && i < lattice_->size());
  // The stress lives in the non-equilibrium part of the *pre-collision*
  // distributions (collision relaxes it away — entirely so at tau = 1),
  // so re-gather the incoming populations of the next step from the
  // canonical snapshot.  The gather never writes f_out.
  KernelArgs a = engine_.args(options_);
  a.f_in = distributions().data();
  a.adjacency = lattice_->adjacency().data();
  double f[kQ];
  gather_pre_collision(a, i, f);
  return deviatoric_stress(f, 1.0 / options_.tau, options_.body_force.x,
                           options_.body_force.y, options_.body_force.z);
}

void Solver::save_checkpoint(const std::string& path) const {
  // Pull writes the live buffer's rows, AA its canonical snapshot's.
  const double* f = distributions().data();
  const auto n = static_cast<std::size_t>(lattice_->size());
  write_checkpoint(path, engine_.steps_done(), lattice_->size(),
                   [=](int q) { return f + static_cast<std::size_t>(q) * n; });
}

void Solver::restore_checkpoint(const std::string& path) {
  // All or nothing: the rows are staged in the buffer the live state is not
  // in — pull's spare, AA's canonical cache, stale from the first row on —
  // and become the state only once the whole file has passed.
  double* stage =
      engine_.live() == buf_a_.data() ? buf_b_.data() : buf_a_.data();
  aa_canonical_fresh_ = false;
  const auto n = static_cast<std::size_t>(lattice_->size());
  const std::int64_t step = read_checkpoint(
      path, lattice_->size(), [=](int q, const char* row) {
        std::memcpy(stage + static_cast<std::size_t>(q) * n, row,
                    n * sizeof(double));
      });
  if (options_.propagation == Propagation::kPullSoA) {
    engine_.commit();  // the staged buffer becomes live, as a step's output
  } else {
    aa_decanonicalize(lattice_->adjacency().data(), lattice_->size(), step,
                      buf_b_.data(), buf_a_.data());
    aa_canonical_fresh_ = true;
  }
  engine_.set_steps_done(step);
}

double Solver::max_speed() const {
  double best = 0.0;
  for (PointIndex i = 0; i < lattice_->size(); ++i) {
    const Moments m = moments(i);
    best = std::max(best,
                    std::sqrt(m.ux * m.ux + m.uy * m.uy + m.uz * m.uz));
  }
  return best;
}

}  // namespace hemo::lbm
