#pragma once
// Domain decomposition interfaces.  A Partition assigns every fluid point
// of a lattice to one rank (one GPU / GCD / tile in the paper's terms).
//
// Two strategies mirror the paper (Section 10): the proxy app's simple
// slab decomposition, which is perfectly balanced for the cylinder it was
// designed for, and HARVEY's recursive load-bisection balancer for complex
// geometries.

#include <cstdint>
#include <vector>

#include "base/types.hpp"
#include "lbm/sparse_lattice.hpp"

namespace hemo::decomp {

struct Partition {
  int n_ranks = 0;
  std::vector<Rank> owner;  // rank of each point, indexed by PointIndex

  /// Number of points owned by each rank.
  std::vector<std::int64_t> rank_counts() const;

  /// Ranks that own at least one point, ascending.  A full partition is
  /// active on every rank; a post-shrink partition keeps its original
  /// rank numbering and simply leaves dead ranks empty.
  std::vector<Rank> active_ranks() const;

  /// max(count) / mean(count) over the *active* (non-empty) ranks; 1.0
  /// means perfect balance.  Averaging over active ranks keeps the metric
  /// meaningful for shrunken partitions, and is identical to the plain
  /// mean for full partitions.
  double imbalance() const;
};

/// Slab decomposition: points are ordered (z, y, x) and cut into n_ranks
/// contiguous chunks of near-equal size.  This is the proxy application's
/// scheme; for a z-aligned cylinder the cuts are flat axial slabs and the
/// balance is perfect up to +/-1 point.
Partition slab_partition(const lbm::SparseLattice& lattice, int n_ranks);

/// Recursive load bisection: the point set is split along the longest axis
/// of its bounding box at the weighted median, recursing until each leaf
/// holds one rank's points.  Handles non-power-of-two rank counts by
/// splitting ranks (and target point shares) proportionally.
Partition bisection_partition(const lbm::SparseLattice& lattice, int n_ranks);

/// Shrink-to-survivors re-decomposition: bisects the *whole* lattice over
/// the `survivors` subset of an `n_ranks_total`-rank configuration.  The
/// returned partition keeps the original rank numbering (n_ranks =
/// n_ranks_total; owner values are drawn from `survivors` only), so rank
/// identities — and with them fault plans, ledgers and provenance records
/// — stay stable across a shrink; dead ranks simply own zero points.
/// `survivors` must be non-empty, strictly ascending and within
/// [0, n_ranks_total).  Deterministic in all arguments, including
/// non-power-of-two survivor counts.
Partition bisection_partition(const lbm::SparseLattice& lattice,
                              int n_ranks_total,
                              const std::vector<Rank>& survivors);

/// One direction of a halo exchange: how many distribution values rank
/// `src` must send to rank `dst` each iteration.
struct HaloMessage {
  Rank src = 0;
  Rank dst = 0;
  std::int64_t values = 0;  // number of crossing (point, direction) links

  std::int64_t bytes() const {
    return values * static_cast<std::int64_t>(sizeof(double));
  }
};

/// The complete communication pattern implied by a partition: one message
/// per ordered rank pair with at least one crossing lattice link.
struct HaloPlan {
  std::vector<HaloMessage> messages;  // sorted by (src, dst)

  std::int64_t total_values() const;
  /// Messages sent by one rank.
  std::vector<HaloMessage> sends_of(Rank r) const;
  /// Largest per-rank total send volume, in values.
  std::int64_t max_rank_send_values(int n_ranks) const;
};

/// Builds the halo plan by walking every lattice link that crosses a rank
/// boundary (pull scheme: dst owns point i, src owns its upstream neighbor).
HaloPlan build_halo_plan(const lbm::SparseLattice& lattice,
                         const Partition& partition);

}  // namespace hemo::decomp
