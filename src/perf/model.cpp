#include "perf/model.hpp"

#include <algorithm>
#include <cmath>

#include "base/contracts.hpp"

namespace hemo::perf {

PerformanceModel::PerformanceModel(const sys::SystemSpec& spec,
                                   ModelParams params)
    : spec_(spec), params_(params) {
  HEMO_EXPECTS(params_.bytes_per_point > 0.0);
  HEMO_EXPECTS(params_.halo_bytes_per_surface_point > 0.0);
}

double PerformanceModel::face_correction(int n_gpus) const {
  HEMO_EXPECTS(n_gpus >= 1);
  // Eq. 4: for low device counts the idealized cube does not use all six
  // face pairs for halo exchange.
  const double faces = std::min(std::log2(static_cast<double>(n_gpus)),
                                static_cast<double>(params_.max_log2_faces));
  return 2.0 * faces;
}

double PerformanceModel::communication_surface(double points_per_device,
                                               int n_gpus) const {
  HEMO_EXPECTS(points_per_device >= 0.0);
  // Eq. 3: SA ~ w * V^(2/3), the cube-face area doubled for send+receive.
  return face_correction(n_gpus) * std::pow(points_per_device, 2.0 / 3.0);
}

Prediction PerformanceModel::predict(double n_points, int n_gpus) const {
  HEMO_EXPECTS(n_points > 0.0);
  HEMO_EXPECTS(n_gpus >= 1);

  Prediction p;
  const double points_per_device = n_points / n_gpus;

  // Eq. 1: stream-collide time from the BabelStream bandwidth at the
  // working-set size actually resident on the device.
  const auto working_set = static_cast<std::int64_t>(
      points_per_device * params_.bytes_per_point);
  const double bandwidth_Bps =
      sys::babelstream_bandwidth_tbs(spec_, std::max<std::int64_t>(
                                                working_set, 1)) *
      1e12;
  p.t_streamcollide_s =
      points_per_device * params_.bytes_per_point / bandwidth_Bps;

  // Eqs. 3-4: idealized halo surface split into one event per face.
  p.surface_points = communication_surface(points_per_device, n_gpus);
  const double w = face_correction(n_gpus);
  p.comm_events = static_cast<int>(std::ceil(w));

  // Eq. 2: sum PingPong times over all events.  Faces that fit within a
  // node use the intranode link; the rest cross the interconnect.
  if (n_gpus > 1 && p.comm_events > 0) {
    const double bytes_per_event = p.surface_points / w *
                                   params_.halo_bytes_per_surface_point;
    const double intranode_faces =
        std::min(std::log2(static_cast<double>(n_gpus)),
                 std::log2(static_cast<double>(
                     std::max(spec_.devices_per_node, 1))));
    const double total_faces = w / 2.0;
    for (int j = 0; j < p.comm_events; ++j) {
      const bool internode =
          (j / 2) >= static_cast<int>(intranode_faces) &&
          total_faces > intranode_faces;
      const sys::LinkKind link = internode ? sys::LinkKind::kInternode
                                           : sys::LinkKind::kIntranode;
      p.t_comm_s += sys::pingpong_time_s(
          spec_, link, static_cast<std::int64_t>(bytes_per_event));
    }
  }

  p.t_total_s = p.t_streamcollide_s + p.t_comm_s;
  p.mflups = n_points / p.t_total_s / 1e6;
  HEMO_ENSURES(p.mflups > 0.0);
  return p;
}

}  // namespace hemo::perf
