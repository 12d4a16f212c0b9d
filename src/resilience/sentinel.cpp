#include "resilience/sentinel.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>

#include "base/contracts.hpp"
#include "lbm/kernels.hpp"

namespace hemo::resilience {

std::vector<std::size_t> verify_digests(
    std::span<const lbm::TileDigest> recorded,
    std::span<const lbm::TileDigest> now,
    const std::function<lbm::TileDigest(std::size_t)>& redigest,
    std::int64_t* checks, std::int64_t* false_positives) {
  HEMO_EXPECTS(recorded.size() == now.size());
  std::vector<std::size_t> confirmed;
  *checks += static_cast<std::int64_t>(now.size());
  for (std::size_t k = 0; k < now.size(); ++k) {
    if (now[k] == recorded[k]) continue;
    // Confirm before accusing the state: a second, independent pass over
    // the same slots.  Agreement with the record means the first pass
    // itself misread — a checker fault, retracted and counted but never
    // escalated into a rollback; any other digest means the state really
    // changed under us.
    if (redigest(k) == recorded[k]) {
      ++*false_positives;
      continue;
    }
    confirmed.push_back(k);
  }
  return confirmed;
}

namespace {

/// The q-row of every direction of an SoA array.
struct Rows {
  const double* rows[lbm::kQ];

  Rows(const double* f, std::int64_t stride) {
    for (int q = 0; q < lbm::kQ; ++q)
      rows[q] = f + static_cast<std::size_t>(q) *
                        static_cast<std::size_t>(stride);
  }
};

/// |u|^2 of one point from lbm::moments_of, as in the guards it feeds.  A
/// NaN |u|^2 (rho = 0, or Inf / Inf) becomes +Inf: such a point is over
/// every ceiling, where std::max would silently drop it.
[[gnu::always_inline]] inline double speed2_of(const double f[lbm::kQ],
                                               double force_x, double force_y,
                                               double force_z) {
  const lbm::Moments m = lbm::moments_of(f, force_x, force_y, force_z);
  const double s2 = m.ux * m.ux + m.uy * m.uy + m.uz * m.uz;
  return s2 == s2 ? s2 : std::numeric_limits<double>::infinity();
}

/// |u|^2 of point i of `live`: max_speed2's per-point body, a separate
/// function for the reason given in lbm/bulk_kernels.cpp.
[[gnu::always_inline]] inline double speed2_at(const Rows& live,
                                               std::int64_t i, double force_x,
                                               double force_y, double force_z) {
  double fi[lbm::kQ];
  #pragma GCC unroll 19
  for (int q = 0; q < lbm::kQ; ++q) fi[q] = live.rows[q][i];
  return speed2_of(fi, force_x, force_y, force_z);
}

/// Health partials of points [begin, end) into `a`, testing every slot:
/// the path of a tile whose mass is not finite.
void scan_points(const double* f, std::int64_t stride, std::int64_t begin,
                 std::int64_t end, double force_x, double force_y,
                 double force_z, TileAudit* a) {
  const Rows live(f, stride);
  std::int64_t bad = 0;
  std::int64_t first_bad = -1;
  double largest = 0.0;
  for (std::int64_t i = begin; i < end; ++i) {
    double fi[lbm::kQ];
    bool finite = true;
    #pragma GCC unroll 19
    for (int q = 0; q < lbm::kQ; ++q) {
      fi[q] = live.rows[q][i];
      if (!std::isfinite(fi[q])) finite = false;
    }
    if (!finite) {
      ++bad;
      if (first_bad < 0) first_bad = i;
      continue;  // moments of a non-finite set are meaningless
    }
    largest = std::max(largest, speed2_of(fi, force_x, force_y, force_z));
  }
  a->nonfinite = bad;
  a->first_nonfinite = first_bad;
  a->max_speed2 = largest;
}

}  // namespace

// Vectorized across points.  The library is built with -ffp-contract=off,
// so each lane runs moments_of's operations in order, and max is exact and
// order-free once no NaN is left, so the loop returns the plain per-point
// loop's bits.
[[gnu::flatten]] double max_speed2(const double* f, std::int64_t stride,
                                   std::int64_t begin, std::int64_t end,
                                   double force_x, double force_y,
                                   double force_z) {
  const Rows live(f, stride);
  double largest = 0.0;
  #pragma omp simd reduction(max : largest)
  for (std::int64_t i = begin; i < end; ++i)
    largest =
        std::max(largest, speed2_at(live, i, force_x, force_y, force_z));
  return largest;
}

TileAudit audit_tile(const double* f, std::int64_t stride, std::int64_t begin,
                     std::int64_t end, double force_x, double force_y,
                     double force_z) {
  TileAudit a;
  a.digest = lbm::tile_digest(f, stride, begin, end);
  if (!std::isfinite(a.digest.mass))
    scan_points(f, stride, begin, end, force_x, force_y, force_z, &a);
  else
    a.max_speed2 = max_speed2(f, stride, begin, end, force_x, force_y, force_z);
  return a;
}

std::vector<analysis::Diagnostic> health_diagnostics(
    std::span<const TileAudit> audits, std::int64_t step,
    const std::string& where) {
  std::int64_t bad = 0;
  std::int64_t first_bad = -1;
  double max_speed2 = 0.0;  // max is exact, so the fold is order-free
  for (const TileAudit& a : audits) {
    bad += a.nonfinite;
    if (first_bad < 0) first_bad = a.first_nonfinite;
    max_speed2 = std::max(max_speed2, a.max_speed2);
  }
  std::vector<analysis::Diagnostic> out;
  if (bad > 0) {
    std::ostringstream msg;
    msg << "step " << step << ": " << bad
        << " point(s) with non-finite distributions (first local index "
        << first_bad << ")";
    out.push_back(analysis::Diagnostic{
        "RS001", analysis::Severity::kError, where, 0, msg.str(),
        "roll back to the last checkpoint"});
  }
  if (max_speed2 > kMaxVelocity * kMaxVelocity) {
    std::ostringstream msg;
    msg << "step " << step << ": velocity magnitude " << std::sqrt(max_speed2)
        << " exceeds ceiling " << kMaxVelocity
        << " (lattice Mach limit; state is blowing up)";
    out.push_back(analysis::Diagnostic{
        "RS003", analysis::Severity::kError, where, 0, msg.str(),
        "roll back to the last checkpoint"});
  }
  return out;
}

}  // namespace hemo::resilience
