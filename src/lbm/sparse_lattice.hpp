#pragma once
// Sparse (indirect-addressing) lattice representation, following the
// HARVEY design for complex vascular geometries: only fluid points are
// stored, each carrying a 19-entry upstream-neighbor adjacency list used
// by the pull-scheme streaming step.  Missing neighbors encode the
// bounce-back wall condition; inlet/outlet faces are marked per point.

#include <cstdint>
#include <vector>

#include "base/types.hpp"
#include "lbm/d3q19.hpp"

namespace hemo::lbm {

/// Per-point boundary classification.  Walls are *not* a node type:
/// in the sparse representation a wall is the absence of a neighbor.
enum class NodeType : std::uint8_t {
  kBulk = 0,
  kVelocityInlet = 1,     // Zou-He velocity boundary on a z-min face (+z inflow)
  kPressureOutlet = 2,    // Zou-He pressure boundary on a z-max face
  kPressureOutletLow = 3, // Zou-He pressure boundary on a z-min face (-z outflow)
};

/// Which axes wrap around periodically, and with what period.
struct Periodicity {
  bool axis[3] = {false, false, false};
  std::int32_t period[3] = {0, 0, 0};
};

class SparseLattice {
 public:
  /// Builds the lattice from an arbitrary set of fluid-point coordinates.
  /// Adjacency is computed with pull-scheme semantics: neighbor q of point
  /// i is the point at coords[i] - c_q, or kSolidNeighbor if that site is
  /// not fluid (bounce-back).
  SparseLattice(std::vector<Coord> coords, const Periodicity& periodic = {});

  PointIndex size() const { return static_cast<PointIndex>(coords_.size()); }
  const std::vector<Coord>& coords() const { return coords_; }
  const Coord& coord(PointIndex i) const { return coords_[static_cast<std::size_t>(i)]; }

  /// Upstream neighbor of point i in direction q (SoA layout: q major).
  PointIndex neighbor(int q, PointIndex i) const {
    return adjacency_[static_cast<std::size_t>(q) * coords_.size() +
                      static_cast<std::size_t>(i)];
  }
  const std::vector<PointIndex>& adjacency() const { return adjacency_; }

  NodeType node_type(PointIndex i) const {
    return types_[static_cast<std::size_t>(i)];
  }
  const std::vector<NodeType>& node_types() const { return types_; }
  void set_node_type(PointIndex i, NodeType t) {
    types_[static_cast<std::size_t>(i)] = t;
  }

  /// Index of the fluid point at coordinate c, or kSolidNeighbor.  A
  /// linear scan: the lattice keeps no coordinate hash once the adjacency
  /// is built, so this serves tests and examples probing lattices of a few
  /// thousand points, not a loop over a production lattice.
  PointIndex find(const Coord& c) const;

  /// Tight bounding box of all fluid points (hi exclusive).
  Box bounding_box() const { return box_; }

  /// Number of lattice links (i, q) whose upstream site is solid, i.e.
  /// the count of bounce-back links.  Useful for surface statistics.
  std::int64_t wall_link_count() const;

 private:
  std::vector<Coord> coords_;
  std::vector<PointIndex> adjacency_;  // kQ * size, q-major
  std::vector<NodeType> types_;
  Box box_{};
};

}  // namespace hemo::lbm
