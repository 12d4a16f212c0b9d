#pragma once
// Kernel bodies for the fused stream-collide update and its ablation
// variants.  Bodies are expressed as per-point inline functions over raw
// pointers so the same code can be launched through every programming-model
// dialect in hemo::hal (mini-CUDA, mini-HIP, mini-SYCL, mini-Kokkos), as the
// paper does with HARVEY's kernels across CUDA/HIP/SYCL/Kokkos.
//
// Storage layout is structure-of-arrays (q-major): value (q, i) lives at
// f[q * n + i].  Two propagation patterns are implemented (see
// lbm/propagation.hpp):
//
//   Pull (f_in/f_out): direction q of point i is gathered from the
//   upstream neighbor adjacency[q * n + i]; a missing neighbor
//   (kSolidNeighbor) applies halfway bounce-back.  Each step reads one
//   full array and writes a second.
//
//   AA in-place (f): a single array updated in place.  Even steps are
//   purely local — each point reads its straight slots (which hold the
//   streamed-in pre-collision populations), collides, and writes the
//   results to its opposite slots.  Odd steps gather direction q from the
//   upstream neighbor's opposite slot, collide, and scatter direction q to
//   the downstream neighbor's straight slot (or bounce it into the point's
//   own opposite slot at walls), re-establishing the even-step invariant.
//   Per odd step every slot is written by exactly one point and every slot
//   a point reads is touched by no other point, so the update is race-free
//   under any launch chunking without double buffering.
//
// Inlet/outlet points complete their unknown populations with the Zou-He
// (non-equilibrium bounce-back) construction before colliding; both
// patterns and both layouts share one boundary-completion helper so the
// variants cannot drift.

#include <cstdint>

#include "base/types.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/sparse_lattice.hpp"

namespace hemo::lbm {

/// Everything a stream-collide launch needs, as plain pointers: this struct
/// is the kernel ABI shared by all hal dialects.
struct KernelArgs {
  const double* f_in = nullptr;    // pull: post-collision values of step t-1
  double* f_out = nullptr;         // pull: post-collision values of step t
  double* f = nullptr;             // AA: the single in-place array
  const PointIndex* adjacency = nullptr;  // kQ * n, q-major, pull neighbors
  const std::uint8_t* node_type = nullptr;  // NodeType per point
  std::int64_t n = 0;              // number of fluid points
  double omega = 1.0;              // BGK relaxation rate (1/tau)
  double force_x = 0.0, force_y = 0.0, force_z = 0.0;  // body force (Guo)
  double inlet_velocity = 0.0;     // prescribed u_z at velocity inlets
  double outlet_density = 1.0;     // prescribed rho at pressure outlets
};

struct Moments {
  double rho = 0.0;
  double ux = 0.0, uy = 0.0, uz = 0.0;
};

// Every per-point direction loop carries `#pragma GCC unroll 19`.  GCC
// peels a loop completely only up to 16 iterations on its own, so without
// the pragma each D3Q19 loop stays rolled: c(q, a), opposite(q) and
// kWeights[q] become table loads, f[kQ] and out[kQ] live on the stack, and
// boundary_unknown runs per direction at run time.  Unrolling leaves the
// order of the floating-point operations unchanged.
static_assert(kQ == 19, "the unroll pragmas spell out kQ");

/// Density and (force-corrected) velocity moments of one distribution set.
inline Moments moments_of(const double f[kQ], double fx, double fy, double fz) {
  Moments m;
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q) {
    m.rho += f[q];
    m.ux += f[q] * c(q, 0);
    m.uy += f[q] * c(q, 1);
    m.uz += f[q] * c(q, 2);
  }
  // Guo forcing: macroscopic velocity includes half the force impulse.
  m.ux = (m.ux + 0.5 * fx) / m.rho;
  m.uy = (m.uy + 0.5 * fy) / m.rho;
  m.uz = (m.uz + 0.5 * fz) / m.rho;
  return m;
}

/// moments_of point i of a q-major SoA array with q-row stride `stride`.
inline Moments moments_at(const double* f, std::int64_t stride, std::int64_t i,
                          Vec3 force) {
  double fi[kQ];
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q)
    fi[q] = f[static_cast<std::size_t>(q) * static_cast<std::size_t>(stride) +
              static_cast<std::size_t>(i)];
  return moments_of(fi, force.x, force.y, force.z);
}

/// BGK relaxation with the Guo forcing term, writing post-collision values.
inline void bgk_collide(const double f[kQ], const Moments& m, double omega,
                        double fx, double fy, double fz, double out[kQ]) {
  const double prefactor = 1.0 - 0.5 * omega;
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q) {
    const double feq = equilibrium(q, m.rho, m.ux, m.uy, m.uz);
    const double cu = c(q, 0) * m.ux + c(q, 1) * m.uy + c(q, 2) * m.uz;
    const double cf = c(q, 0) * fx + c(q, 1) * fy + c(q, 2) * fz;
    const double uf = m.ux * fx + m.uy * fy + m.uz * fz;
    const double source =
        prefactor * kWeights[q] * (3.0 * (cf - uf) + 9.0 * cu * cf);
    out[q] = f[q] - omega * (f[q] - feq) + source;
  }
}

namespace detail {

/// True when direction q at a node of this type is an unknown population
/// when its upstream neighbor is missing: it points in through an open
/// inlet/outlet face rather than a wall, so bounce-back does not apply and
/// the Zou-He construction must supply it.
inline bool boundary_unknown(NodeType type, int q) {
  const bool zmin_unknown = (type == NodeType::kVelocityInlet ||
                             type == NodeType::kPressureOutletLow) &&
                            c(q, 2) > 0;
  const bool zmax_unknown = type == NodeType::kPressureOutlet && c(q, 2) < 0;
  return zmin_unknown || zmax_unknown;
}

/// Completes unknown populations with non-equilibrium bounce-back against
/// target moments (rho, u), then repairs transverse momentum exactly using
/// the +/- diagonal pair (qa carries +e_axis, qb carries -e_axis).  The
/// repair is only applied when both pair members are unknown (true on face
/// interiors; corner points keep the plain NEBB value).
inline void zou_he_complete(double f[kQ], std::uint32_t unknown, double rho,
                            double ux, double uy, double uz, int qa_x, int qb_x,
                            int qa_y, int qb_y) {
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q) {
    if (!(unknown & (1u << q))) continue;
    const int qo = opposite(q);
    f[q] = f[qo] + equilibrium(q, rho, ux, uy, uz) -
           equilibrium(qo, rho, ux, uy, uz);
  }
  const auto both_unknown = [unknown](int qa, int qb) {
    return (unknown & (1u << qa)) && (unknown & (1u << qb));
  };
  if (both_unknown(qa_x, qb_x)) {
    double mx = 0.0;
    #pragma GCC unroll 19
    for (int q = 0; q < kQ; ++q) mx += f[q] * c(q, 0);
    const double err = 0.5 * (mx - rho * ux);
    f[qa_x] -= err * c(qa_x, 0);
    f[qb_x] -= err * c(qb_x, 0);
  }
  if (both_unknown(qa_y, qb_y)) {
    double my = 0.0;
    #pragma GCC unroll 19
    for (int q = 0; q < kQ; ++q) my += f[q] * c(q, 1);
    const double err = 0.5 * (my - rho * uy);
    f[qa_y] -= err * c(qa_y, 1);
    f[qb_y] -= err * c(qb_y, 1);
  }
}

/// Zou-He boundary completion dispatched by node type.  Shared by the
/// pull-SoA, AoS-ablation and AA kernel variants — the per-face target
/// moments (density from the z-momentum balance at velocity inlets,
/// velocity from the prescribed density at pressure outlets, with the
/// normal flipped on z-min faces) are written once here so the layouts
/// cannot drift.  Node types that never produce unknown populations
/// (boundary_unknown above) complete nothing.
inline void complete_boundary(NodeType type, std::uint32_t unknown,
                              double inlet_velocity, double outlet_density,
                              double f[kQ]) {
  if (unknown == 0) return;
  if (type == NodeType::kVelocityInlet) {
    // Prescribed u = (0, 0, w); unknowns have c_z > 0.  Density follows
    // from the z-momentum balance: rho = (S_0 + 2 S_-) / (1 - w).
    double s0 = 0.0, sm = 0.0;
    #pragma GCC unroll 19
    for (int q = 0; q < kQ; ++q) {
      if (c(q, 2) == 0) s0 += f[q];
      if (c(q, 2) < 0) sm += f[q];
    }
    const double w = inlet_velocity;
    const double rho = (s0 + 2.0 * sm) / (1.0 - w);
    zou_he_complete(f, unknown, rho, 0.0, 0.0, w,
                    /*+x,+z*/ 11, /*-x,+z*/ 14,
                    /*+y,+z*/ 15, /*-y,+z*/ 18);
  } else if (type == NodeType::kPressureOutlet) {
    // Prescribed rho; unknowns have c_z < 0.  Outflow velocity follows
    // from the same balance with the opposite normal.
    double s0 = 0.0, sp = 0.0;
    #pragma GCC unroll 19
    for (int q = 0; q < kQ; ++q) {
      if (c(q, 2) == 0) s0 += f[q];
      if (c(q, 2) > 0) sp += f[q];
    }
    const double rho = outlet_density;
    const double uz = -1.0 + (s0 + 2.0 * sp) / rho;
    zou_he_complete(f, unknown, rho, 0.0, 0.0, uz,
                    /*+x,-z*/ 13, /*-x,-z*/ 12,
                    /*+y,-z*/ 17, /*-y,-z*/ 16);
  } else if (type == NodeType::kPressureOutletLow) {
    // Pressure boundary on a z-min face (outflow toward -z); unknowns have
    // c_z > 0 and the velocity follows with the normal flipped.
    double s0 = 0.0, sm = 0.0;
    #pragma GCC unroll 19
    for (int q = 0; q < kQ; ++q) {
      if (c(q, 2) == 0) s0 += f[q];
      if (c(q, 2) < 0) sm += f[q];
    }
    const double rho = outlet_density;
    const double uz = 1.0 - (s0 + 2.0 * sm) / rho;
    zou_he_complete(f, unknown, rho, 0.0, 0.0, uz,
                    /*+x,+z*/ 11, /*-x,+z*/ 14,
                    /*+y,+z*/ 15, /*-y,+z*/ 18);
  }
}

/// Gather step of the pull scheme for one point.  Returns a bitmask of the
/// directions left unknown (only possible on inlet/outlet faces); all other
/// missing neighbors take the halfway bounce-back value.
inline std::uint32_t gather(const KernelArgs& a, std::int64_t i,
                            NodeType type, double f[kQ]) {
  std::uint32_t unknown = 0;
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q) {
    const PointIndex up = a.adjacency[static_cast<std::size_t>(q) * a.n + i];
    if (up != kSolidNeighbor) {
      f[q] = a.f_in[static_cast<std::size_t>(q) * a.n + up];
      continue;
    }
    if (boundary_unknown(type, q)) {
      unknown |= 1u << q;
      f[q] = 0.0;
    } else {
      f[q] = a.f_in[static_cast<std::size_t>(opposite(q)) * a.n + i];
    }
  }
  return unknown;
}

}  // namespace detail

/// Gather + boundary completion: reconstructs the full pre-collision
/// distribution set of point i (pull streaming, bounce-back, Zou-He).
/// Used by the update kernels and by post-processing that needs the
/// pre-collision state (e.g. the deviatoric stress, whose
/// non-equilibrium content is destroyed by collision at omega = 1).
inline void gather_pre_collision(const KernelArgs& a, std::int64_t i,
                                 double f[kQ]) {
  const auto type = static_cast<NodeType>(a.node_type[i]);
  const std::uint32_t unknown = detail::gather(a, i, type, f);
  detail::complete_boundary(type, unknown, a.inlet_velocity,
                            a.outlet_density, f);
}

/// Fused pull-stream + boundary + BGK collide update for point i.
/// This is the performance-critical kernel of the whole application; the
/// paper's performance model charges it kQ reads + kQ writes of 8 bytes
/// per fluid point (Section 6, Eq. 1).
inline void stream_collide_point(const KernelArgs& a, std::int64_t i) {
  double f[kQ];
  gather_pre_collision(a, i, f);

  const Moments m = moments_of(f, a.force_x, a.force_y, a.force_z);
  double out[kQ];
  bgk_collide(f, m, a.omega, a.force_x, a.force_y, a.force_z, out);
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q)
    a.f_out[static_cast<std::size_t>(q) * a.n + i] = out[q];
}

/// Ablation variant: streaming only (gather + boundary completion), used by
/// the two-pass update in bench_ablation_fused.
inline void stream_point(const KernelArgs& a, std::int64_t i) {
  double f[kQ];
  gather_pre_collision(a, i, f);
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q)
    a.f_out[static_cast<std::size_t>(q) * a.n + i] = f[q];
}

/// Ablation variant: collision only, applied in place over f_out.
inline void collide_point(const KernelArgs& a, std::int64_t i) {
  double f[kQ];
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q)
    f[q] = a.f_out[static_cast<std::size_t>(q) * a.n + i];
  const Moments m = moments_of(f, a.force_x, a.force_y, a.force_z);
  double out[kQ];
  bgk_collide(f, m, a.omega, a.force_x, a.force_y, a.force_z, out);
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q)
    a.f_out[static_cast<std::size_t>(q) * a.n + i] = out[q];
}

/// Layout-ablation variant of the fused kernel: array-of-structures
/// storage, value (q, i) at f[i * kQ + q].
inline void stream_collide_point_aos(const KernelArgs& a, std::int64_t i) {
  const auto type = static_cast<NodeType>(a.node_type[i]);
  double f[kQ];
  std::uint32_t unknown = 0;
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q) {
    const PointIndex up = a.adjacency[static_cast<std::size_t>(q) * a.n + i];
    if (up != kSolidNeighbor) {
      f[q] = a.f_in[static_cast<std::size_t>(up) * kQ + q];
    } else if (detail::boundary_unknown(type, q)) {
      unknown |= 1u << q;
      f[q] = 0.0;
    } else {
      f[q] = a.f_in[static_cast<std::size_t>(i) * kQ + opposite(q)];
    }
  }
  detail::complete_boundary(type, unknown, a.inlet_velocity,
                            a.outlet_density, f);
  const Moments m = moments_of(f, a.force_x, a.force_y, a.force_z);
  double out[kQ];
  bgk_collide(f, m, a.omega, a.force_x, a.force_y, a.force_z, out);
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q)
    a.f_out[static_cast<std::size_t>(i) * kQ + q] = out[q];
}

/// AA pattern, even step: purely local.  Before the step, slot (q, i) of
/// the single array a.f holds the streamed-in pre-collision population
/// f_q(i) — bounce-back values included, because the previous odd step
/// (or the initial decanonicalization) deposited them there.  Unknown
/// inlet/outlet directions are the one exception: no neighbor writes
/// them, so they are rebuilt by Zou-He exactly as the pull gather does.
/// After colliding, result q is written to the point's own OPPOSITE slot,
/// which is where the next odd step's gather looks for it.
inline void stream_collide_point_aa_even(const KernelArgs& a, std::int64_t i) {
  const auto type = static_cast<NodeType>(a.node_type[i]);
  double f[kQ];
  std::uint32_t unknown = 0;
  if (type == NodeType::kBulk) {
    #pragma GCC unroll 19
    for (int q = 0; q < kQ; ++q)
      f[q] = a.f[static_cast<std::size_t>(q) * a.n + i];
  } else {
    #pragma GCC unroll 19
    for (int q = 0; q < kQ; ++q) {
      const PointIndex up = a.adjacency[static_cast<std::size_t>(q) * a.n + i];
      if (up == kSolidNeighbor && detail::boundary_unknown(type, q)) {
        unknown |= 1u << q;
        f[q] = 0.0;
      } else {
        f[q] = a.f[static_cast<std::size_t>(q) * a.n + i];
      }
    }
  }
  detail::complete_boundary(type, unknown, a.inlet_velocity,
                            a.outlet_density, f);
  const Moments m = moments_of(f, a.force_x, a.force_y, a.force_z);
  double out[kQ];
  bgk_collide(f, m, a.omega, a.force_x, a.force_y, a.force_z, out);
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q)
    a.f[static_cast<std::size_t>(opposite(q)) * a.n + i] = out[q];
}

/// AA pattern, odd step: gather, collide, scatter — all against the same
/// single array.  Direction q is gathered from the upstream neighbor's
/// opposite slot (where the even step left it); a missing upstream reads
/// the bounce-back value from the point's own straight slot.  After
/// colliding, result q is scattered to the downstream neighbor's straight
/// slot; a missing downstream bounces it into the point's own opposite
/// slot.  Every slot this point reads or writes is touched by this point
/// alone, and the full gather precedes the first scatter, so the update
/// is bit-deterministic under any parallel chunking.
inline void stream_collide_point_aa_odd(const KernelArgs& a, std::int64_t i) {
  const auto type = static_cast<NodeType>(a.node_type[i]);
  std::int64_t up[kQ];
  double f[kQ];
  std::uint32_t unknown = 0;
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q)
    up[q] = a.adjacency[static_cast<std::size_t>(q) * a.n + i];
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q) {
    const std::int64_t u = up[q];
    if (u != kSolidNeighbor) {
      f[q] = a.f[static_cast<std::size_t>(opposite(q)) * a.n + u];
    } else if (detail::boundary_unknown(type, q)) {
      unknown |= 1u << q;
      f[q] = 0.0;
    } else {
      f[q] = a.f[static_cast<std::size_t>(q) * a.n + i];
    }
  }
  detail::complete_boundary(type, unknown, a.inlet_velocity,
                            a.outlet_density, f);
  const Moments m = moments_of(f, a.force_x, a.force_y, a.force_z);
  double out[kQ];
  bgk_collide(f, m, a.omega, a.force_x, a.force_y, a.force_z, out);
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q) {
    const std::int64_t down = up[opposite(q)];
    if (down != kSolidNeighbor) {
      a.f[static_cast<std::size_t>(q) * a.n + down] = out[q];
    } else {
      a.f[static_cast<std::size_t>(opposite(q)) * a.n + i] = out[q];
    }
  }
}

}  // namespace hemo::lbm
