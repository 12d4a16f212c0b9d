#pragma once
// StepEngine: the one stream-collide time step under all three solver
// front-ends — lbm::Solver (host vectors), harvey::DeviceSolver (device
// allocations) and every rank of harvey::DistributedSolver (host vectors
// with ghost slots).  The layering is
//
//   hal::launch      how a dialect launches a kernel        (hal/launch.hpp)
//   lbm::StepEngine  which kernel runs, on which arrays, with which args
//   front-ends       storage ownership, observers, checkpoints, comm
//
// The engine owns the decisions every front-end would otherwise repeat:
// the KernelArgs built from SolverOptions, the initial equilibrium fill
// laid out for the propagation pattern, and the choice of pull, AA-even or
// AA-odd kernel from the pattern and the step parity.  It owns no storage:
// the front-end hands it the arrays and keeps them alive as long as the
// engine.

#include <cstdint>
#include <optional>

#include "base/types.hpp"
#include "hal/model.hpp"
#include "lbm/kernels.hpp"
#include "lbm/propagation.hpp"
#include "lbm/tile_probe.hpp"

namespace hemo::lbm {

struct SolverOptions {
  double tau = 1.0;               // BGK relaxation time (omega = 1/tau)
  Vec3 body_force{};              // uniform Guo body force
  double inlet_velocity = 0.0;    // u_z at kVelocityInlet points
  double outlet_density = 1.0;    // rho at kPressureOutlet points
  double initial_density = 1.0;
  Vec3 initial_velocity{};
  Propagation propagation = Propagation::kPullSoA;
};

/// The arrays an engine steps.  Distributions are q-major SoA with row
/// stride `stride`; the first `n` points are updated, the rest (a rank's
/// ghost points) are only read.
struct StepStorage {
  double* f_a = nullptr;  // pull: the initial current buffer; AA: the array
  double* f_b = nullptr;  // pull: the second buffer; AA: unused, null
  const PointIndex* adjacency = nullptr;    // kQ * stride, q-major
  const std::uint8_t* node_type = nullptr;  // NodeType per point
  std::int64_t n = 0;
  std::int64_t stride = 0;
};

class StepEngine {
 public:
  StepEngine() = default;
  StepEngine(Propagation pattern, const StepStorage& storage);

  /// Fills every slot of the live array with the uniform equilibrium of
  /// the options' initial density and velocity, laid out for step 0.
  void fill_equilibrium(const SolverOptions& options,
                        std::optional<hal::Model> model = std::nullopt);

  /// Advances one step through `model`'s launch primitive (a host loop
  /// when empty).
  void step(const SolverOptions& options,
            std::optional<hal::Model> model = std::nullopt);

  /// Pull only: recomputes the last step over points [begin, end) into
  /// `out` (same stride), from its input, which survives in the second
  /// buffer.  The SDC sentinel's duplicate re-execution.
  void recompute_range(const SolverOptions& options, std::int64_t begin,
                       std::int64_t end, double* out) const;

  /// Kernel arguments of the next step: f_in and f the live array, f_out
  /// the second buffer (null under AA).
  KernelArgs args(const SolverOptions& options) const;

  /// The array the next step reads, in live_layout().
  double* live() const { return f_; }
  LiveLayout live_layout() const { return live_layout_of(pattern_, steps_); }

  std::int64_t steps_done() const { return steps_; }
  /// Sets the step counter after the live array was restored from a
  /// checkpoint laid out for that step's parity.
  void set_steps_done(std::int64_t steps);

 private:
  Propagation pattern_ = Propagation::kPullSoA;
  double* f_ = nullptr;
  double* spare_ = nullptr;
  const PointIndex* adjacency_ = nullptr;
  const std::uint8_t* node_type_ = nullptr;
  std::int64_t n_ = 0;
  std::int64_t stride_ = 0;
  std::int64_t steps_ = 0;
};

}  // namespace hemo::lbm
