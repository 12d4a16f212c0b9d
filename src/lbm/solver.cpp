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
       lattice_->size(), lattice_->size()});
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
  const std::vector<double>& canonical = distributions();
  io::BlobWriter writer(path, kCheckpointMagic, kCheckpointVersion);
  const CheckpointMeta meta{engine_.steps_done(), lattice_->size(), 1, kQ};
  writer.add_record(kCheckpointMetaTag, &meta, sizeof meta);
  writer.add_record(kCheckpointStateTag, canonical.data(),
                    canonical.size() * sizeof(double));
  writer.finish();
}

void Solver::restore_checkpoint(const std::string& path) {
  io::BlobReader reader(path, kCheckpointMagic, kCheckpointVersion);
  const CheckpointMeta meta =
      read_checkpoint_meta(reader, path, lattice_->size(), /*n_ranks=*/1);
  if (reader.at_end())
    throw CheckpointError("checkpoint '" + path + "' has no state record");
  // The record is read and CRC-checked in full before any solver state
  // changes, so a failed restore leaves the solver untouched.
  const io::BlobRecord rec = reader.next();
  if (rec.tag != kCheckpointStateTag ||
      rec.bytes.size() != buf_b_.size() * sizeof(double))
    throw CheckpointError("checkpoint '" + path +
                          "': state record does not match this lattice");
  if (!reader.at_end())
    throw CheckpointError("checkpoint '" + path +
                          "': unexpected records after the state");

  engine_.set_steps_done(meta.step);
  if (options_.propagation == Propagation::kPullSoA) {
    std::memcpy(engine_.live(), rec.bytes.data(), rec.bytes.size());
    return;
  }
  std::memcpy(buf_b_.data(), rec.bytes.data(), rec.bytes.size());
  aa_decanonicalize(lattice_->adjacency().data(), lattice_->size(),
                    meta.step, buf_b_.data(), buf_a_.data());
  aa_canonical_fresh_ = true;
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
