#pragma once
// ClusterSimulator: prices one iteration of a workload on a simulated
// system for a given programming model, from first principles:
//
//   per-rank time = launch overhead
//                 + bytes / (BabelStream bandwidth * model efficiency
//                            * occupancy(points))
//                 + sum over halo messages (link latency + size / link bw)
//                 + host staging transfers for pack/unpack
//
// with per-rank point counts and message sizes taken from the *measured*
// decomposition (hemo::sim::Workload) and link characteristics from the
// Table 1 registry (hemo::sys).  Internode bandwidth is shared by the
// devices of a node and halved for bidirectional traffic — the effect the
// paper identifies as making communication dominant on Polaris (Fig. 7).
//
// The iteration time is the slowest rank's; MFLUPS = points / time / 1e6.

#include <vector>

#include "hal/model.hpp"
#include "perf/model.hpp"
#include "sim/profiles.hpp"
#include "sim/workload.hpp"
#include "sys/hardware.hpp"

namespace hemo::sim {

/// Which application is being priced; they differ in kernel efficiency
/// (profiles) and decomposition (workload).
enum class App { kProxy, kHarvey };

/// Runtime composition of one rank's iteration (the Fig. 7 quantities).
struct Composition {
  double streamcollide_s = 0.0;
  double comm_s = 0.0;       // network transfer + latency
  double h2d_s = 0.0;        // CPU -> GPU staging (halo unpack)
  double d2h_s = 0.0;        // GPU -> CPU staging (halo pack)

  double total_s() const {
    return streamcollide_s + comm_s + h2d_s + d2h_s;
  }
};

struct SimPoint {
  int devices = 0;
  int size_multiplier = 1;
  double total_points = 0.0;
  double iteration_s = 0.0;
  double mflups = 0.0;
  Composition worst_rank;  // composition of the slowest rank (Fig. 7)
};

class ClusterSimulator {
 public:
  ClusterSimulator(sys::SystemId system, hal::Model model, App app);

  /// Calibration constructor: uses an explicit profile instead of the
  /// registry's (used by the tuning sweep and sensitivity benches).
  ClusterSimulator(sys::SystemId system, hal::Model model, App app,
                   const BackendProfile& profile);

  /// Prices one schedule point.
  SimPoint simulate(Workload& workload, int devices, int size_multiplier) const;

  /// Prices the full piecewise schedule (capped at the system's device
  /// availability, e.g. 256 on Sunspot).
  std::vector<SimPoint> simulate_schedule(Workload& workload) const;

  /// The paper's ideal prediction for the same schedule point (Eqs. 1-4).
  perf::Prediction predict(const Workload& workload, int devices,
                           int size_multiplier) const;

  sys::SystemId system() const { return system_; }
  hal::Model model() const { return model_; }
  App app() const { return app_; }
  const BackendProfile& profile() const { return profile_; }

 private:
  sys::SystemId system_;
  hal::Model model_;
  App app_;
  sys::SystemSpec spec_;
  BackendProfile profile_;
};

/// Application efficiency (Section 8.1): each model's MFLUPS divided by
/// the best observed MFLUPS at the same device count.  `series` is one
/// vector of SimPoints per model, all over the same schedule.
std::vector<std::vector<double>> application_efficiencies(
    const std::vector<std::vector<SimPoint>>& series);

/// Architectural efficiency: measured MFLUPS / predicted MFLUPS.
double architectural_efficiency(const SimPoint& point,
                                const perf::Prediction& prediction);

}  // namespace hemo::sim
