#pragma once
// Cylindrical channel geometry, parameterised exactly as the paper's LBM
// proxy application (Section 3.2): axial length 84*x lattice units and
// radius 8*x, where x is a user-specified scale factor.  The axis is z;
// flow is driven either by a body force with periodic ends (Poiseuille
// validation) or by Zou-He inlet/outlet caps.

#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hpp"
#include "lbm/sparse_lattice.hpp"

namespace hemo::geom {

/// Bounds on a scale factor taken from untrusted input (the tools' --scale
/// flags).  At kMinScale the smallest radius in use (5 * scale, the chaos
/// cylinder) still spans a lattice unit; kMaxScale bounds what one run
/// allocates (the 84 x 8 cylinder at 8 is about 8.6 M points, and a chaos
/// scenario keeps up to three solvers of its cylinder) and keeps length()
/// far inside int64.
inline constexpr double kMinScale = 0.2;
inline constexpr double kMaxScale = 8.0;

struct CylinderSpec {
  double scale = 1.0;              // the paper's "x" factor
  double axial_per_scale = 84.0;   // axial length = 84 * x
  double radius_per_scale = 8.0;   // radius = 8 * x

  std::int64_t length() const {
    return static_cast<std::int64_t>(axial_per_scale * scale);
  }
  double radius() const { return radius_per_scale * scale; }
};

enum class CylinderEnds {
  kPeriodic,      // periodic in z; drive with a body force
  kInletOutlet,   // Zou-He velocity inlet at z=0, pressure outlet at z=L-1
};

/// Fluid-point coordinates of the cylinder: sites with distance from the
/// axis strictly less than the radius.  Deterministic ordering (z, y, x).
std::vector<Coord> cylinder_points(const CylinderSpec& spec);

/// Analytic approximation of the fluid-point count (pi r^2 L); the exact
/// voxel count converges to this as the scale grows.
double cylinder_point_estimate(const CylinderSpec& spec);

/// Builds the sparse lattice, wiring periodicity or Zou-He caps.
std::shared_ptr<lbm::SparseLattice> make_cylinder_lattice(
    const CylinderSpec& spec, CylinderEnds ends);

}  // namespace hemo::geom
