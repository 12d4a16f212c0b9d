#pragma once
// SDC sentinel: the digest comparison and the per-tile numerical-health
// audit, the detection machinery behind guard RS006 (see SentinelPolicy in
// resilience/policy.hpp for the escalation story).
//
// The protocol is record-then-verify: the owner records every tile's
// digest at the end of a step, after the state passed the health guards,
// and verifies them at the start of the next step, before any of the
// state leaves the rank or is kept as a snapshot.  In-memory corruption
// striking between the two — the only window in which the owner is not
// actively rewriting the slots — flips the digest of exactly one tile,
// which localizes the damage to {rank, tile, step} without any reference
// state.  A mismatch is re-digested once before it is reported: if the
// second pass agrees with the record after all, the *checker* glitched,
// not the state, and the detection is retracted as a false positive
// instead of triggering a rollback.
//
// The tiles are the distributed solver's step plan, which alone knows
// where a tile begins and ends: the solver keeps the record in plan order
// and computes the digests it records and verifies against (the digest
// half of audit_tile, and lbm::tile_digest), so a digest pass it already
// made is never repeated.  verify_digests() only compares, and calls back
// for a mismatching tile's confirming re-digest.  Record and verify read
// the same array with no step between them, so the digests read its rows
// in storage order: the verdicts do not depend on which direction a row
// holds.
//
// The same tile pass feeds the numerical-health guards, which are always
// on: audit_tile() produces a tile's digest and its RS001/RS003 partials
// together, so one audit serves the guards, the mass check and the
// sentinel record.  The distributed solver makes that audit inside its
// step launches: the work-item that computes a tile audits it right
// after, while the tile is still in cache, and the solver records the
// digests once the guards have passed.  The verify digests ride in a step
// launch too: on a verifying step the first launch digests each tile's
// input and then steps the tile if no point of it reads a ghost slot; the
// verdict comes before the halo exchange, and the tiles that read ghosts
// are stepped after it.
//
// The digests cover a rank's owned points only.  Ghost slots are
// legitimately rewritten by every halo exchange (and are CRC-framed on
// the wire already), so including them would turn every exchange into a
// false detection.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "lbm/tile_probe.hpp"
#include "resilience/policy.hpp"

namespace hemo::resilience {

/// Compares `now`, the digests of a step's input, against `recorded`, the
/// digests recorded after the step that produced it, one entry per tile in
/// the same order.  A mismatching tile k is confirmed by `redigest(k)`, a
/// second digest of the same slots, before it is reported: it is retracted
/// as a checker glitch only when that second digest equals the record.
/// `checks` advances by the number of tiles compared and `false_positives`
/// by the number of retracted mismatches.  Returns the indices of the
/// confirmed mismatches, ascending.
std::vector<std::size_t> verify_digests(
    std::span<const lbm::TileDigest> recorded,
    std::span<const lbm::TileDigest> now,
    const std::function<lbm::TileDigest(std::size_t)>& redigest,
    std::int64_t* checks, std::int64_t* false_positives);

/// One tile's share of a state audit: its sentinel digest plus the
/// partials the RS001/RS003 guards fold across tiles.
struct TileAudit {
  lbm::TileDigest digest;
  std::int64_t nonfinite = 0;         // points with a non-finite slot
  std::int64_t first_nonfinite = -1;  // first such point (array index)
  double max_speed2 = 0.0;            // largest |u|^2 over finite points
};

/// Audits points [begin, end) of a canonical SoA array: the digest is
/// exactly lbm::tile_digest's, and the RS001/RS003 partials are computed
/// over the same (now cached) tile.  The digest's mass sums every slot, and
/// NaN and +-Inf survive any sum, so a finite tile mass proves every slot
/// finite: the per-slot test is skipped and max_speed2() scans the tile.  A
/// non-finite mass (a bad slot, or finite values that overflowed) falls
/// back to testing each point.  |u|^2 comes from lbm::moments_of per point,
/// as in the guards it feeds; a finite point whose |u|^2 is NaN (rho = 0)
/// counts as +Inf, over the ceiling.
TileAudit audit_tile(const double* f, std::int64_t stride, std::int64_t begin,
                     std::int64_t end, double force_x, double force_y,
                     double force_z);

/// The RS003 partial of points [begin, end) of a canonical SoA array: the
/// largest |u|^2 from lbm::moments_of, a NaN |u|^2 counted as +Inf.  The
/// loop runs across points in SIMD lanes; each point performs moments_of's
/// operations in order, so it returns the bits of the plain per-point loop,
/// on any input.  audit_tile uses it on tiles proven finite.
double max_speed2(const double* f, std::int64_t stride, std::int64_t begin,
                  std::int64_t end, double force_x, double force_y,
                  double force_z);

/// Folds the audits of one array's tiles (in tile order) into its RS001
/// and RS003 (ceiling kMaxVelocity) diagnostics.  `where` labels the
/// diagnostics ("rank 3", "solver"); `step` stamps the messages.
std::vector<analysis::Diagnostic> health_diagnostics(
    std::span<const TileAudit> audits, std::int64_t step,
    const std::string& where);

}  // namespace hemo::resilience
