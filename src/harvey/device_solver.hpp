#pragma once
// DeviceSolver: the production-code path.  Runs the fused stream-collide
// kernel on "device" memory through one of the programming-model dialects
// (mini-CUDA, mini-HIP, mini-SYCL, or mini-Kokkos with any backend),
// mirroring how HARVEY's CUDA kernels were ported to each model in the
// paper.  All dialects produce bit-identical physics; they differ in launch
// mechanics (hal/launch.hpp) and, on real hardware, in performance
// (modeled by hemo::sim).  Every dialect lowers onto the same
// DeviceEngine, so the arrays are plain engine allocations and the step is
// the shared lbm::StepEngine launched through the chosen model.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hal/device.hpp"
#include "hal/model.hpp"
#include "lbm/solver.hpp"
#include "lbm/sparse_lattice.hpp"
#include "lbm/step_engine.hpp"

namespace hemo::harvey {

class DeviceSolver {
 public:
  DeviceSolver(std::shared_ptr<const lbm::SparseLattice> lattice,
               lbm::SolverOptions options, hal::Model model);
  ~DeviceSolver();

  DeviceSolver(const DeviceSolver&) = delete;
  DeviceSolver& operator=(const DeviceSolver&) = delete;

  void step();
  void run(int steps);

  hal::Model model() const { return model_; }
  PointIndex size() const { return lattice_->size(); }
  std::int64_t step_count() const { return engine_.steps_done(); }
  const lbm::SparseLattice& lattice() const { return *lattice_; }

  /// Copies the current post-collision distributions back to the host
  /// (canonical q-major SoA), through the dialect's transfer mechanism.
  /// Under the AA pattern the in-place device array is canonicalized on
  /// the host, so callers see the same snapshot as the pull path.
  std::vector<double> distributions() const;

  double total_mass() const;

 private:
  struct DeviceFree {
    void operator()(void* p) const {
      hal::DeviceEngine::instance().deallocate(p);
    }
  };
  using DeviceArray = std::unique_ptr<void, DeviceFree>;

  static DeviceArray allocate(std::size_t bytes, const void* upload);

  std::shared_ptr<const lbm::SparseLattice> lattice_;
  lbm::SolverOptions options_;
  hal::Model model_;
  bool owns_kokkos_runtime_ = false;
  DeviceArray f_a_, f_b_, node_type_;
  lbm::StepEngine engine_;
};

}  // namespace hemo::harvey
