#include "decomp/partition.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "base/contracts.hpp"

namespace hemo::decomp {

std::vector<std::int64_t> Partition::rank_counts() const {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(n_ranks), 0);
  for (Rank r : owner) ++counts[static_cast<std::size_t>(r)];
  return counts;
}

std::vector<Rank> Partition::active_ranks() const {
  const auto counts = rank_counts();
  std::vector<Rank> out;
  for (Rank r = 0; r < n_ranks; ++r)
    if (counts[static_cast<std::size_t>(r)] > 0) out.push_back(r);
  return out;
}

double Partition::imbalance() const {
  const auto counts = rank_counts();
  const std::int64_t max =
      *std::max_element(counts.begin(), counts.end());
  std::int64_t active = 0;
  for (const std::int64_t c : counts)
    if (c > 0) ++active;
  const double mean =
      static_cast<double>(owner.size()) / std::max<std::int64_t>(active, 1);
  return static_cast<double>(max) / mean;
}

Partition slab_partition(const lbm::SparseLattice& lattice, int n_ranks) {
  HEMO_EXPECTS(n_ranks >= 1);
  const auto n = static_cast<std::size_t>(lattice.size());
  HEMO_EXPECTS(static_cast<std::size_t>(n_ranks) <= n);

  // Order points lexicographically by (z, y, x); geometry generators emit
  // this order already, but re-derive it here so the partition does not
  // depend on generator internals.
  std::vector<PointIndex> order(n);
  std::iota(order.begin(), order.end(), PointIndex{0});
  std::sort(order.begin(), order.end(), [&](PointIndex a, PointIndex b) {
    const Coord& ca = lattice.coord(a);
    const Coord& cb = lattice.coord(b);
    if (ca.z != cb.z) return ca.z < cb.z;
    if (ca.y != cb.y) return ca.y < cb.y;
    return ca.x < cb.x;
  });

  Partition p;
  p.n_ranks = n_ranks;
  p.owner.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    // Chunk boundaries at floor(k * n_ranks / n) distribute the remainder
    // evenly: every rank gets floor(n/n_ranks) or ceil(n/n_ranks) points.
    const auto r = static_cast<Rank>((k * static_cast<std::size_t>(n_ranks)) / n);
    p.owner[static_cast<std::size_t>(order[k])] = r;
  }
  return p;
}

namespace {

/// Recursively assigns ranks [rank_lo, rank_lo + n_ranks) to the points in
/// index range [lo, hi) of `order`, splitting at the coordinate median of
/// the longest bounding-box axis.
void bisect(const lbm::SparseLattice& lattice, std::vector<PointIndex>& order,
            std::size_t lo, std::size_t hi, Rank rank_lo, int n_ranks,
            std::vector<Rank>& owner) {
  if (n_ranks == 1) {
    for (std::size_t k = lo; k < hi; ++k)
      owner[static_cast<std::size_t>(order[k])] = rank_lo;
    return;
  }

  // Bounding box of this subset.
  Box box{Coord{INT32_MAX, INT32_MAX, INT32_MAX},
          Coord{INT32_MIN, INT32_MIN, INT32_MIN}};
  for (std::size_t k = lo; k < hi; ++k) {
    const Coord& c = lattice.coord(order[k]);
    box.lo.x = std::min(box.lo.x, c.x);
    box.lo.y = std::min(box.lo.y, c.y);
    box.lo.z = std::min(box.lo.z, c.z);
    box.hi.x = std::max(box.hi.x, c.x + 1);
    box.hi.y = std::max(box.hi.y, c.y + 1);
    box.hi.z = std::max(box.hi.z, c.z + 1);
  }
  const int axis = box.longest_axis();
  const auto coord_of = [&](PointIndex i) {
    const Coord& c = lattice.coord(i);
    return axis == 0 ? c.x : axis == 1 ? c.y : c.z;
  };

  const int ranks_a = n_ranks / 2;
  const int ranks_b = n_ranks - ranks_a;
  // Weighted split: point share proportional to rank share, so odd rank
  // counts still balance.
  const std::size_t split =
      lo + ((hi - lo) * static_cast<std::size_t>(ranks_a)) /
               static_cast<std::size_t>(n_ranks);

  std::nth_element(order.begin() + static_cast<std::ptrdiff_t>(lo),
                   order.begin() + static_cast<std::ptrdiff_t>(split),
                   order.begin() + static_cast<std::ptrdiff_t>(hi),
                   [&](PointIndex a, PointIndex b) {
                     const auto ca = coord_of(a);
                     const auto cb = coord_of(b);
                     if (ca != cb) return ca < cb;
                     return a < b;  // deterministic tiebreak
                   });

  bisect(lattice, order, lo, split, rank_lo, ranks_a, owner);
  bisect(lattice, order, split, hi, rank_lo + ranks_a, ranks_b, owner);
}

}  // namespace

Partition bisection_partition(const lbm::SparseLattice& lattice, int n_ranks) {
  HEMO_EXPECTS(n_ranks >= 1);
  const auto n = static_cast<std::size_t>(lattice.size());
  HEMO_EXPECTS(static_cast<std::size_t>(n_ranks) <= n);

  std::vector<PointIndex> order(n);
  std::iota(order.begin(), order.end(), PointIndex{0});

  Partition p;
  p.n_ranks = n_ranks;
  p.owner.assign(n, 0);
  bisect(lattice, order, 0, n, 0, n_ranks, p.owner);
  return p;
}

Partition bisection_partition(const lbm::SparseLattice& lattice,
                              int n_ranks_total,
                              const std::vector<Rank>& survivors) {
  HEMO_EXPECTS(n_ranks_total >= 1);
  HEMO_EXPECTS(!survivors.empty());
  HEMO_EXPECTS(survivors.size() <= static_cast<std::size_t>(n_ranks_total));
  for (std::size_t k = 0; k < survivors.size(); ++k) {
    HEMO_EXPECTS(survivors[k] >= 0 && survivors[k] < n_ranks_total);
    HEMO_EXPECTS(k == 0 || survivors[k - 1] < survivors[k]);
  }

  // Bisect into survivors.size() dense parts, then relabel part k with the
  // k-th survivor's original rank id.  Identical point geometry to a plain
  // bisection over the survivor count, so determinism and balance carry
  // over unchanged.
  Partition dense = bisection_partition(
      lattice, static_cast<int>(survivors.size()));
  Partition p;
  p.n_ranks = n_ranks_total;
  p.owner.resize(dense.owner.size());
  for (std::size_t i = 0; i < dense.owner.size(); ++i)
    p.owner[i] = survivors[static_cast<std::size_t>(dense.owner[i])];
  return p;
}

std::int64_t HaloPlan::total_values() const {
  std::int64_t total = 0;
  for (const HaloMessage& m : messages) total += m.values;
  return total;
}

std::vector<HaloMessage> HaloPlan::sends_of(Rank r) const {
  std::vector<HaloMessage> out;
  for (const HaloMessage& m : messages)
    if (m.src == r) out.push_back(m);
  return out;
}

std::int64_t HaloPlan::max_rank_send_values(int n_ranks) const {
  std::vector<std::int64_t> totals(static_cast<std::size_t>(n_ranks), 0);
  for (const HaloMessage& m : messages)
    totals[static_cast<std::size_t>(m.src)] += m.values;
  return totals.empty() ? 0
                        : *std::max_element(totals.begin(), totals.end());
}

HaloPlan build_halo_plan(const lbm::SparseLattice& lattice,
                         const Partition& partition) {
  HEMO_EXPECTS(partition.owner.size() ==
               static_cast<std::size_t>(lattice.size()));

  std::map<std::pair<Rank, Rank>, std::int64_t> volume;
  for (PointIndex i = 0; i < lattice.size(); ++i) {
    const Rank dst = partition.owner[static_cast<std::size_t>(i)];
    for (int q = 1; q < lbm::kQ; ++q) {
      const PointIndex up = lattice.neighbor(q, i);
      if (up == kSolidNeighbor) continue;
      const Rank src = partition.owner[static_cast<std::size_t>(up)];
      if (src != dst) ++volume[{src, dst}];
    }
  }

  HaloPlan plan;
  plan.messages.reserve(volume.size());
  for (const auto& [pair, values] : volume)
    plan.messages.push_back(HaloMessage{pair.first, pair.second, values});
  return plan;
}

}  // namespace hemo::decomp
