#pragma once
// DistributedSolverPeer: the tests' view of a DistributedSolver's private
// state.  It reaches the audits the last step launches made, a separate
// audit of the committed state as the guards would read it, the step
// plan's tiles with their border flags, each rank's local numbering and
// ghost region, and the halo exchanges' entries and landing offsets.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "harvey/distributed_solver.hpp"
#include "resilience/sentinel.hpp"

namespace hemo::harvey {

struct DistributedSolverPeer {
  struct Tile {
    Rank rank;
    std::int64_t begin;
    std::int64_t end;
    bool border;
    friend bool operator==(const Tile&, const Tile&) = default;
  };
  static std::vector<Tile> plan_tiles(const DistributedSolver& solver) {
    std::vector<Tile> out;
    for (const DistributedSolver::TileSpan& t : solver.plan_.tiles)
      out.push_back(Tile{t.rank, t.begin, t.end, t.border});
    return out;
  }
  static const std::vector<std::size_t>& border_tiles(
      const DistributedSolver& solver) {
    return solver.plan_.border_tiles;
  }

  static const std::vector<resilience::TileAudit>& step_audits(
      const DistributedSolver& solver) {
    return solver.step_audits_;
  }
  static std::vector<resilience::TileAudit> separate_audit(
      const DistributedSolver& solver) {
    const Vec3 force = solver.options_.body_force;
    std::vector<resilience::TileAudit> out;
    for (const DistributedSolver::TileSpan& t : solver.plan_.tiles) {
      const DistributedSolver::RankState& rs =
          solver.ranks_[static_cast<std::size_t>(t.rank)];
      out.push_back(resilience::audit_tile(rs.current(), rs.owned, t.begin,
                                           t.end, force.x, force.y, force.z));
    }
    return out;
  }

  /// Rank r's points in its local order: owned_global(solver, r)[li] is the
  /// global index of local slot li.
  static const std::vector<PointIndex>& owned_global(
      const DistributedSolver& solver, Rank r) {
    return solver.ranks_[static_cast<std::size_t>(r)].owned_global;
  }
  /// Rank r's first border slot: its border points are the local slots
  /// [first_border, owned).
  static std::int64_t first_border(const DistributedSolver& solver, Rank r) {
    return solver.ranks_[static_cast<std::size_t>(r)].first_border;
  }

  /// Rank r's ghost region: values [region_begin, region_end) of its
  /// arrays, after its kQ rows.
  static std::int64_t region_begin(const DistributedSolver& solver, Rank r) {
    return static_cast<std::int64_t>(
        solver.ranks_[static_cast<std::size_t>(r)].row_values());
  }
  static std::int64_t region_end(const DistributedSolver& solver, Rank r) {
    return static_cast<std::int64_t>(
        solver.ranks_[static_cast<std::size_t>(r)].f_a.size());
  }
  /// Rank r's array that the last step read: after a step, the region
  /// holds that step's received payloads.
  static const double* step_input(const DistributedSolver& solver, Rank r) {
    const DistributedSolver::RankState& rs =
        solver.ranks_[static_cast<std::size_t>(r)];
    return rs.current() == rs.f_a.data() ? rs.f_b.data() : rs.f_a.data();
  }

  /// One halo exchange as global points: entry k sends direction q[k] of
  /// global point source[k] from rank src to value landing + k of rank
  /// dst's arrays.
  struct Exchange {
    Rank src;
    Rank dst;
    std::vector<int> q;
    std::vector<PointIndex> source;
    std::int64_t landing;
  };
  /// The solver's exchanges, in the order it sends them.
  static std::vector<Exchange> exchanges(const DistributedSolver& solver) {
    std::vector<Exchange> out;
    for (const DistributedSolver::Exchange& e : solver.exchanges_) {
      const std::vector<PointIndex>& owned = owned_global(solver, e.src);
      Exchange x{e.src, e.dst, e.q, {}, e.landing};
      for (const std::int64_t li : e.src_local)
        x.source.push_back(owned[static_cast<std::size_t>(li)]);
      out.push_back(std::move(x));
    }
    return out;
  }
  /// Moves exchange x's payload to land at `landing`: a seeded fault for
  /// validate().
  static void set_landing(DistributedSolver& solver, std::size_t x,
                          std::int64_t landing) {
    solver.exchanges_[x].landing = landing;
  }
};

}  // namespace hemo::harvey
