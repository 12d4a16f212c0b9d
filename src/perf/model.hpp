#pragma once
// The paper's custom GPU performance model (Section 6), predicting the
// optimal (upper-bound) iteration time of a memory-bandwidth-bound LBM:
//
//   Eq. 1:  t_streamcollide = n_bytes / B_mem
//   Eq. 2:  t = t_streamcollide + sum_j t_comm_j
//   Eq. 3:  SA_comm ~ w * V^(2/3)        (idealized cubic subdomains)
//   Eq. 4:  w = 2 * min(log2(n_gpus), 6)
//
// B_mem is the BabelStream bandwidth of one logical device; communication
// event times come from the PingPong link model.  Architectural efficiency
// in Figs. 5-6 is measured performance divided by this prediction.

#include <cstdint>
#include <vector>

#include "lbm/propagation.hpp"
#include "sys/hardware.hpp"

namespace hemo::perf {

struct ModelParams {
  /// Bytes moved per fluid point per iteration (Eq. 1's n_bytes per
  /// point), derived from the kernels' propagation pattern: the
  /// double-buffered pull scheme reads and writes all 19 double-precision
  /// distributions (2 * 19 * 8 B), the AA in-place scheme makes a single
  /// array pass (19 * 8 B).  The default stays pull-SoA so the paper's
  /// Sec. 6 figures are reproduced unchanged; AA campaigns re-price via
  /// for_propagation().
  double bytes_per_point =
      lbm::propagation_bytes_per_point(lbm::Propagation::kPullSoA);
  /// Bytes exchanged per surface lattice point per event: the ~5
  /// distributions crossing a face, in doubles.
  double halo_bytes_per_surface_point = 5.0 * 8.0;
  /// Saturation of the face-count correction (6 faces of a cube, doubled
  /// for send+receive in Eq. 4).
  int max_log2_faces = 6;

  /// Params whose hot-loop traffic matches the given propagation pattern.
  static ModelParams for_propagation(lbm::Propagation pattern) {
    ModelParams p;
    p.bytes_per_point = lbm::propagation_bytes_per_point(pattern);
    return p;
  }
};

struct Prediction {
  double t_streamcollide_s = 0.0;
  double t_comm_s = 0.0;
  double t_total_s = 0.0;
  double mflups = 0.0;
  double surface_points = 0.0;  // SA_comm of Eq. 3
  int comm_events = 0;
};

class PerformanceModel {
 public:
  explicit PerformanceModel(const sys::SystemSpec& spec,
                            ModelParams params = {});

  /// Eq. 4: w = 2 * min(log2(n_gpus), 6).
  double face_correction(int n_gpus) const;

  /// Eq. 3: SA_comm ~ w * V^(2/3) with V the per-device fluid volume.
  double communication_surface(double points_per_device, int n_gpus) const;

  /// Full prediction (Eqs. 1-2) for n_points fluid points on n_gpus
  /// devices, assuming ideal (perfectly balanced cubic) subdomains.
  Prediction predict(double n_points, int n_gpus) const;

  const sys::SystemSpec& system() const { return spec_; }
  const ModelParams& params() const { return params_; }

 private:
  sys::SystemSpec spec_;
  ModelParams params_;
};

}  // namespace hemo::perf
