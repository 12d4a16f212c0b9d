#pragma once
// Single-domain reference solver: drives the fused stream-collide kernel on
// the host over a SparseLattice.  This is the physics ground truth that the
// hal-dialect solvers (hemo::harvey) and the proxy app are verified against.
//
// Two propagation patterns are supported (lbm/propagation.hpp): the
// double-buffered pull-SoA scheme and the in-place AA scheme.  Both produce
// bit-identical physics; every observer (distributions(), moments, probes,
// checkpoints) reports the same canonical post-collision snapshot either
// way, so callers never see the AA array's parity-dependent layout.  The
// solver exposes no view of its live array: the SDC sentinel and the
// health guards watch harvey::DistributedSolver's state only.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hpp"
#include "lbm/checkpoint.hpp"
#include "lbm/kernels.hpp"
#include "lbm/propagation.hpp"
#include "lbm/sparse_lattice.hpp"
#include "lbm/step_engine.hpp"

namespace hemo::lbm {

/// Kinematic viscosity implied by a BGK relaxation time.
constexpr double viscosity_of_tau(double tau) { return kCs2 * (tau - 0.5); }

class Solver {
 public:
  Solver(std::shared_ptr<const SparseLattice> lattice, SolverOptions options);

  // The step engine points into this solver's own buffers.
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  void step();
  void run(int steps);

  std::int64_t step_count() const { return engine_.steps_done(); }
  PointIndex size() const { return lattice_->size(); }
  const SparseLattice& lattice() const { return *lattice_; }
  const SolverOptions& options() const { return options_; }
  Propagation propagation() const { return options_.propagation; }

  /// Post-collision distributions of the current step in the canonical
  /// q-major SoA layout, whichever propagation pattern is running (the AA
  /// array is canonicalized lazily and cached until the next step).
  const std::vector<double>& distributions() const;

  Moments moments(PointIndex i) const;
  double total_mass() const;

  /// Maximum |u| over all points; used for stability checks.
  double max_speed() const;

  /// Updates the prescribed inlet velocity for subsequent steps; drives
  /// pulsatile inflow when called per step with a waveform value.
  void set_inlet_velocity(double velocity);

  /// Deviatoric stress tensor at one point (see lbm/hemodynamics.hpp).
  std::array<double, 6> stress(PointIndex i) const;

  /// Checkpoint (lbm/checkpoint.hpp) of the step counter and the canonical
  /// distributions' rows, CRC-checked and written atomically (.tmp +
  /// rename).  A checkpoint of either pattern at either AA parity, or of a
  /// DistributedSolver at any rank count, restores here bit-exactly.  A
  /// failed restore throws CheckpointError and leaves the solver untouched.
  void save_checkpoint(const std::string& path) const;
  void restore_checkpoint(const std::string& path);

 private:
  std::shared_ptr<const SparseLattice> lattice_;
  SolverOptions options_;
  // Pull: buf_a_/buf_b_ are the double buffers the engine swaps between.
  // AA: buf_a_ is the single in-place array, buf_b_ caches the canonical
  // snapshot, which const observers fill lazily and a restore stages.
  std::vector<double> buf_a_;
  mutable std::vector<double> buf_b_;
  StepEngine engine_;
  mutable bool aa_canonical_fresh_ = false;
};

}  // namespace hemo::lbm
