#include "harvey/device_solver.hpp"

#include "base/contracts.hpp"
#include "hal/launch.hpp"
#include "lbm/aa_layout.hpp"

namespace hemo::harvey {

DeviceSolver::DeviceArray DeviceSolver::allocate(std::size_t bytes,
                                                 const void* upload) {
  hal::DeviceEngine& device = hal::DeviceEngine::instance();
  DeviceArray array(device.allocate(bytes));
  HEMO_ENSURES(array != nullptr);
  if (upload != nullptr) device.copy_h2d(array.get(), upload, bytes);
  return array;
}

DeviceSolver::DeviceSolver(std::shared_ptr<const lbm::SparseLattice> lattice,
                           lbm::SolverOptions options, hal::Model model)
    : lattice_(std::move(lattice)), options_(options), model_(model) {
  HEMO_EXPECTS(lattice_ != nullptr);
  HEMO_EXPECTS(options_.tau > 0.5);
  owns_kokkos_runtime_ = hal::acquire_kokkos_runtime(model_);

  const std::vector<lbm::NodeType>& types = lattice_->node_types();
  const std::size_t fbytes =
      static_cast<std::size_t>(lbm::kQ) * types.size() * sizeof(double);
  const bool pull = options_.propagation == lbm::Propagation::kPullSoA;
  f_a_ = allocate(fbytes, nullptr);
  if (pull) f_b_ = allocate(fbytes, nullptr);  // AA runs in place
  node_type_ = allocate(types.size() * sizeof(lbm::NodeType), types.data());
  // The engine builds its slot table from the lattice's adjacency, so no
  // int64 adjacency is uploaded.
  engine_ = lbm::StepEngine(
      options_.propagation,
      {static_cast<double*>(f_a_.get()), static_cast<double*>(f_b_.get()),
       lattice_->adjacency().data(),
       static_cast<const std::uint8_t*>(node_type_.get()), lattice_->size()});
  engine_.fill_equilibrium(options_, model_);
}

DeviceSolver::~DeviceSolver() {
  if (owns_kokkos_runtime_) hal::kokkosx::finalize();
}

void DeviceSolver::step() { engine_.step(options_, model_); }

void DeviceSolver::run(int steps) {
  HEMO_EXPECTS(steps >= 0);
  for (int s = 0; s < steps; ++s) step();
}

std::vector<double> DeviceSolver::distributions() const {
  std::vector<double> raw(static_cast<std::size_t>(lbm::kQ) *
                          static_cast<std::size_t>(lattice_->size()));
  hal::DeviceEngine::instance().copy_d2h(raw.data(), engine_.live(),
                                         raw.size() * sizeof(double));
  if (options_.propagation != lbm::Propagation::kAAInPlace) return raw;
  std::vector<double> canonical(raw.size());
  lbm::aa_canonicalize(lattice_->adjacency().data(), lattice_->size(),
                       engine_.steps_done(), raw.data(), canonical.data());
  return canonical;
}

double DeviceSolver::total_mass() const {
  const std::vector<double> f = distributions();
  double mass = 0.0;
  for (double v : f) mass += v;
  return mass;
}

}  // namespace hemo::harvey
