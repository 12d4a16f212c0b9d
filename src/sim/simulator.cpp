#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "base/contracts.hpp"
#include "lbm/propagation.hpp"

namespace hemo::sim {

namespace {

/// Node of a rank under block assignment (rank r -> node r / per_node),
/// matching the one-rank-per-subdevice mapping of Section 8.1.
int node_of(Rank r, int devices_per_node) { return r / devices_per_node; }

}  // namespace

ClusterSimulator::ClusterSimulator(sys::SystemId system, hal::Model model,
                                   App app)
    : system_(system),
      model_(model),
      app_(app),
      spec_(sys::system_spec(system)),
      profile_(profile_for(system, model)) {}

ClusterSimulator::ClusterSimulator(sys::SystemId system, hal::Model model,
                                   App app, const BackendProfile& profile)
    : system_(system),
      model_(model),
      app_(app),
      spec_(sys::system_spec(system)),
      profile_(profile) {}

SimPoint ClusterSimulator::simulate(Workload& workload, int devices,
                                    int size_multiplier) const {
  HEMO_EXPECTS(devices >= 1);
  const RankStats& stats = workload.stats(devices);
  const double point_scale = workload.point_scale(size_multiplier);
  const double halo_scale = workload.halo_scale(size_multiplier);

  const double efficiency = app_ == App::kProxy
                                ? profile_.proxy_efficiency
                                : profile_.harvey_efficiency;
  // The measured campaigns all run the pull-SoA kernels (the paper's
  // configuration); AA-pattern runs are re-priced explicitly via
  // perf::ModelParams::for_propagation.
  const double bytes_per_point =
      lbm::propagation_bytes_per_point(lbm::Propagation::kPullSoA);

  // The proxy packs only the distributions that actually cross a face
  // (what the measured halo plan counts); HARVEY's production halo path
  // carries packing overhead and extra per-point state, ~1.6x the bytes.
  // This is part of what makes communication dominate HARVEY at scale
  // (Fig. 7) while the proxy stays closer to the model's bound.
  const double halo_multiplier = app_ == App::kProxy ? 1.0 : 1.6;

  // Halo exchange overlaps with interior computation.  The proxy's
  // idealized update pipeline hides most of its communication behind the
  // stream-collide kernel; HARVEY's boundary-condition dependencies limit
  // the overlap window.  Only the non-overlapped remainder is charged
  // (and reported as the Fig. 7 communication slice).
  const double overlap = app_ == App::kProxy ? 0.8 : 0.3;

  const auto n_ranks = static_cast<std::size_t>(devices);

  // Surface-saturation guard for bisection workloads: at the coarse
  // measurement resolution, high rank counts produce sliver-shaped
  // subdomains whose surface/volume ratio does not survive refinement —
  // at the target resolution the same split yields compact chunks obeying
  // the V^(2/3) law the paper's own Eq. 3 assumes.  Cap each rank's halo
  // at shape * V^(2/3), with the shape constant taken per workload from
  // its compact-chunk regime.  Slab decompositions extrapolate exactly
  // (a slab stays a slab) and are not capped.
  std::vector<double> rank_halo_values(n_ranks, 0.0);
  for (const decomp::HaloMessage& m : stats.halos) {
    const double v = static_cast<double>(m.values) * halo_scale;
    rank_halo_values[static_cast<std::size_t>(m.src)] += v;
    rank_halo_values[static_cast<std::size_t>(m.dst)] += v;
  }
  std::vector<double> halo_factor(n_ranks, 1.0);
  if (workload.kind() == DecompositionKind::kBisection) {
    for (std::size_t r = 0; r < n_ranks; ++r) {
      const double pts = static_cast<double>(stats.points[r]) * point_scale;
      const double bound =
          workload.surface_shape() * std::pow(pts, 2.0 / 3.0);
      if (rank_halo_values[r] > bound)
        halo_factor[r] = bound / rank_halo_values[r];
    }
  }

  // Index messages by participating rank once: O(messages + ranks).
  std::vector<std::vector<const decomp::HaloMessage*>> by_rank(n_ranks);
  for (const decomp::HaloMessage& m : stats.halos) {
    by_rank[static_cast<std::size_t>(m.src)].push_back(&m);
    if (m.dst != m.src) by_rank[static_cast<std::size_t>(m.dst)].push_back(&m);
  }

  // Effective per-rank internode bandwidth: the node's injection bandwidth
  // is shared across its devices and carries traffic both ways.
  const double internode_Bps_per_rank =
      sys::link_bandwidth_Bps(spec_, sys::LinkKind::kInternode) /
      (2.0 * spec_.devices_per_node) * profile_.comm_efficiency;
  const double intranode_Bps =
      sys::link_bandwidth_Bps(spec_, sys::LinkKind::kIntranode) *
      profile_.comm_efficiency;
  const double cpu_gpu_Bps =
      sys::link_bandwidth_Bps(spec_, sys::LinkKind::kCpuGpu);

  SimPoint out;
  out.devices = devices;
  out.size_multiplier = size_multiplier;
  out.total_points =
      static_cast<double>(workload.measured_points()) * point_scale;

  double worst = 0.0;
  for (std::size_t r = 0; r < n_ranks; ++r) {
    Composition comp;

    // Stream-collide: bandwidth-bound kernel at this rank's occupancy.
    const double points = static_cast<double>(stats.points[r]) * point_scale;
    const double occupancy =
        points / (points + profile_.occupancy_half_points);
    const auto working_set =
        static_cast<std::int64_t>(points * bytes_per_point);
    const double bandwidth =
        sys::babelstream_bandwidth_tbs(spec_,
                                       std::max<std::int64_t>(working_set, 1)) *
        1e12 * efficiency * occupancy;
    comp.streamcollide_s = profile_.launch_overhead_us * 1e-6 +
                           points * bytes_per_point / bandwidth;

    // Halo messages touching this rank.
    for (const decomp::HaloMessage* m : by_rank[r]) {
      const double bytes =
          static_cast<double>(m->bytes()) * halo_scale * halo_multiplier *
          std::min(halo_factor[static_cast<std::size_t>(m->src)],
                   halo_factor[static_cast<std::size_t>(m->dst)]);
      const bool internode = node_of(m->src, spec_.devices_per_node) !=
                             node_of(m->dst, spec_.devices_per_node);
      const sys::LinkKind link = internode ? sys::LinkKind::kInternode
                                           : sys::LinkKind::kIntranode;
      const double link_Bps =
          internode ? internode_Bps_per_rank : intranode_Bps;

      // Each rank pays for the messages it sends and the ones it waits to
      // receive; latency is per message.
      comp.comm_s += sys::link_latency_s(spec_, link) + bytes / link_Bps;

      // Pack/unpack staging over the CPU-GPU link; without GPU-aware MPI
      // (Summit HIP) the buffer makes an extra host bounce each way.
      const double staging_factor = profile_.host_staged_mpi ? 2.0 : 1.0;
      const double staging_s =
          sys::link_latency_s(spec_, sys::LinkKind::kCpuGpu) +
          staging_factor * bytes / cpu_gpu_Bps;
      if (m->src == static_cast<Rank>(r))
        comp.d2h_s += staging_s;
      else
        comp.h2d_s += staging_s;
    }

    comp.comm_s = std::max(0.0, comp.comm_s - overlap * comp.streamcollide_s);

    const double total = comp.total_s();
    if (total > worst) {
      worst = total;
      out.worst_rank = comp;
    }
  }

  out.iteration_s = worst;
  out.mflups = out.total_points / out.iteration_s / 1e6;
  HEMO_ENSURES(out.mflups > 0.0);
  return out;
}

std::vector<SimPoint> ClusterSimulator::simulate_schedule(
    Workload& workload) const {
  std::vector<SimPoint> series;
  for (const sys::SchedulePoint& sp :
       sys::piecewise_schedule(spec_.max_devices))
    series.push_back(simulate(workload, sp.devices, sp.size_multiplier));
  return series;
}

perf::Prediction ClusterSimulator::predict(const Workload& workload,
                                           int devices,
                                           int size_multiplier) const {
  const perf::PerformanceModel model(spec_);
  return model.predict(workload.target_points(size_multiplier), devices);
}

std::vector<std::vector<double>> application_efficiencies(
    const std::vector<std::vector<SimPoint>>& series) {
  HEMO_EXPECTS(!series.empty());
  const std::size_t n_points = series.front().size();
  for (const auto& s : series) HEMO_EXPECTS(s.size() == n_points);

  std::vector<std::vector<double>> eff(series.size(),
                                       std::vector<double>(n_points, 0.0));
  for (std::size_t k = 0; k < n_points; ++k) {
    double best = 0.0;
    for (const auto& s : series) best = std::max(best, s[k].mflups);
    HEMO_ASSERT(best > 0.0);
    for (std::size_t m = 0; m < series.size(); ++m)
      eff[m][k] = series[m][k].mflups / best;
  }
  return eff;
}

double architectural_efficiency(const SimPoint& point,
                                const perf::Prediction& prediction) {
  HEMO_EXPECTS(prediction.mflups > 0.0);
  return point.mflups / prediction.mflups;
}

}  // namespace hemo::sim
