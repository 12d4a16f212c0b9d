#include "resilience/sentinel.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/contracts.hpp"
#include "lbm/kernels.hpp"

namespace hemo::resilience {

Sentinel::Sentinel(SentinelPolicy policy) : policy_(policy) {
  HEMO_EXPECTS(policy_.tile_points >= 1);
  HEMO_EXPECTS(policy_.check_interval >= 1);
  HEMO_EXPECTS(policy_.reexec_sample >= 0);
  HEMO_EXPECTS(policy_.quarantine_threshold >= 1);
}

void Sentinel::reset(int n_ranks) {
  HEMO_EXPECTS(n_ranks >= 0);
  tables_.assign(static_cast<std::size_t>(n_ranks), RankTable{});
}

void Sentinel::record(Rank r, const RankView& view, std::int64_t step) {
  HEMO_EXPECTS(r >= 0 && static_cast<std::size_t>(r) < tables_.size());
  RankTable& table = tables_[static_cast<std::size_t>(r)];
  table.digests = lbm::digest_tiles(view.f, view.stride, view.owned,
                                    policy_.tile_points, view.layout);
  table.step = step;
  table.owned = view.owned;
  table.layout = view.layout;
}

bool Sentinel::has_record(Rank r) const {
  return r >= 0 && static_cast<std::size_t>(r) < tables_.size() &&
         tables_[static_cast<std::size_t>(r)].step >= 0;
}

std::int64_t Sentinel::recorded_step(Rank r) const {
  return has_record(r) ? tables_[static_cast<std::size_t>(r)].step : -1;
}

void Sentinel::verify(Rank r, const RankView& view,
                      std::vector<Mismatch>* mismatches, std::int64_t* checks,
                      std::int64_t* false_positives) const {
  if (!has_record(r)) return;
  const RankTable& table = tables_[static_cast<std::size_t>(r)];
  // A record describing different coverage or a different layout cannot be
  // compared against the current state; treat it as absent rather than as
  // a wall of mismatches.  (The solver re-records after every transition
  // that changes either, so this only guards against misuse.)
  if (table.owned != view.owned || table.layout != view.layout) return;
  const std::int64_t tiles = tiles_of(view.owned);
  HEMO_EXPECTS(static_cast<std::int64_t>(table.digests.size()) == tiles);
  for (std::int64_t t = 0; t < tiles; ++t) {
    const std::int64_t begin = t * policy_.tile_points;
    const std::int64_t end = std::min(begin + policy_.tile_points, view.owned);
    const lbm::TileDigest now =
        lbm::tile_digest(view.f, view.stride, begin, end, view.layout);
    if (checks != nullptr) ++*checks;
    if (now == table.digests[static_cast<std::size_t>(t)]) continue;
    // Confirm before accusing the state: a second, independent pass over
    // the same slots.  Agreement between the two fresh digests means the
    // state really changed under us; disagreement means the first pass
    // itself misread — a checker fault, retracted and counted but never
    // escalated into a rollback.
    const lbm::TileDigest again =
        lbm::tile_digest(view.f, view.stride, begin, end, view.layout);
    if (again != now) {
      if (false_positives != nullptr) ++*false_positives;
      continue;
    }
    if (mismatches != nullptr)
      mismatches->push_back(Mismatch{r, t, table.step});
  }
}

std::vector<analysis::Diagnostic> scan_live_health(
    const double* f, std::int64_t stride, std::int64_t points,
    lbm::LiveLayout layout, const HealthPolicy& health, double force_x,
    double force_y, double force_z, std::int64_t step,
    const std::string& where) {
  std::vector<analysis::Diagnostic> out;
  if (!health.scan_nonfinite && !health.check_velocity) return out;

  std::int64_t bad = 0;
  std::int64_t first_bad = -1;
  double max_speed2 = 0.0;
  for (std::int64_t i = 0; i < points; ++i) {
    double fi[lbm::kQ];
    bool finite = true;
    #pragma GCC unroll 19
    for (int q = 0; q < lbm::kQ; ++q) {
      const std::size_t row =
          static_cast<std::size_t>(lbm::live_slot_q(layout, q)) *
          static_cast<std::size_t>(stride);
      fi[q] = f[row + static_cast<std::size_t>(i)];
      if (!std::isfinite(fi[q])) finite = false;
    }
    if (!finite) {
      ++bad;
      if (first_bad < 0) first_bad = i;
      continue;  // moments of a non-finite set are meaningless
    }
    if (health.check_velocity) {
      const lbm::Moments m = lbm::moments_of(fi, force_x, force_y, force_z);
      const double s2 = m.ux * m.ux + m.uy * m.uy + m.uz * m.uz;
      max_speed2 = std::max(max_speed2, s2);
    }
  }
  if (health.scan_nonfinite && bad > 0) {
    std::ostringstream msg;
    msg << "step " << step << ": " << bad
        << " point(s) with non-finite distributions (first local index "
        << first_bad << ")";
    out.push_back(analysis::Diagnostic{
        "RS001", analysis::Severity::kError, where, 0, msg.str(),
        "roll back to the last checkpoint"});
  }
  if (health.check_velocity &&
      max_speed2 > health.max_velocity * health.max_velocity) {
    std::ostringstream msg;
    msg << "step " << step << ": velocity magnitude " << std::sqrt(max_speed2)
        << " exceeds ceiling " << health.max_velocity
        << " (lattice Mach limit; state is blowing up)";
    out.push_back(analysis::Diagnostic{
        "RS003", analysis::Severity::kError, where, 0, msg.str(),
        "roll back to the last checkpoint"});
  }
  return out;
}

}  // namespace hemo::resilience
