#include "lbm/sparse_lattice.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "base/contracts.hpp"

namespace hemo::lbm {

SparseLattice::SparseLattice(std::vector<Coord> coords,
                             const Periodicity& periodic)
    : coords_(std::move(coords)) {
  HEMO_EXPECTS(!coords_.empty());
  const std::size_t n = coords_.size();

  // The coordinate hash lives only as long as the adjacency build needs it.
  std::unordered_map<Coord, PointIndex, CoordHash> index;
  index.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    auto [it, inserted] = index.emplace(coords_[i], static_cast<PointIndex>(i));
    HEMO_EXPECTS(inserted);  // duplicate fluid point would corrupt streaming
    (void)it;
  }

  Coord lo{std::numeric_limits<std::int32_t>::max(),
           std::numeric_limits<std::int32_t>::max(),
           std::numeric_limits<std::int32_t>::max()};
  Coord hi{std::numeric_limits<std::int32_t>::min(),
           std::numeric_limits<std::int32_t>::min(),
           std::numeric_limits<std::int32_t>::min()};
  for (const Coord& c : coords_) {
    lo.x = std::min(lo.x, c.x);
    lo.y = std::min(lo.y, c.y);
    lo.z = std::min(lo.z, c.z);
    hi.x = std::max(hi.x, c.x);
    hi.y = std::max(hi.y, c.y);
    hi.z = std::max(hi.z, c.z);
  }
  box_ = Box{lo, Coord{hi.x + 1, hi.y + 1, hi.z + 1}};

  auto wrap = [&](Coord c) {
    for (int a = 0; a < 3; ++a) {
      if (!periodic.axis[a]) continue;
      const std::int32_t period = periodic.period[a];
      HEMO_EXPECTS(period > 0);
      std::int32_t* v = (a == 0) ? &c.x : (a == 1) ? &c.y : &c.z;
      *v = ((*v % period) + period) % period;
    }
    return c;
  };

  adjacency_.assign(static_cast<std::size_t>(kQ) * n, kSolidNeighbor);
  for (std::size_t i = 0; i < n; ++i) {
    for (int q = 0; q < kQ; ++q) {
      // Pull scheme: direction q of point i streams from the site at
      // coords[i] - c_q.
      const Coord up = wrap(coords_[i] - velocity(q));
      auto it = index.find(up);
      if (it != index.end())
        adjacency_[static_cast<std::size_t>(q) * n + i] = it->second;
    }
  }

  types_.assign(n, NodeType::kBulk);
}

PointIndex SparseLattice::find(const Coord& c) const {
  const auto it = std::find(coords_.begin(), coords_.end(), c);
  return it == coords_.end() ? kSolidNeighbor
                             : static_cast<PointIndex>(it - coords_.begin());
}

std::int64_t SparseLattice::wall_link_count() const {
  std::int64_t count = 0;
  for (PointIndex a : adjacency_)
    if (a == kSolidNeighbor) ++count;
  return count;
}

}  // namespace hemo::lbm
