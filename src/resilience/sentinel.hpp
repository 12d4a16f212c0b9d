#pragma once
// SDC sentinel: rolling tile-digest tables over live distribution arrays
// plus the per-tile numerical-health audit, the detection machinery behind
// guard RS006 (see SentinelPolicy in resilience/policy.hpp for the
// escalation story).
//
// The protocol is record-then-verify: the owner records every tile's
// digest at the end of a step, after the state passed the health guards,
// and verifies them at the start of the next step, before any of the
// state leaves the rank or is kept as a snapshot.  In-memory corruption
// striking between the two — the only window in which the owner is not
// actively rewriting the slots — flips the digest of exactly one tile,
// which localizes the damage to {rank, tile, step} without any reference
// state.  A mismatch is
// re-digested once before it is reported: if the second pass agrees with
// the record after all, the *checker* glitched, not the state, and the
// detection is retracted as a false positive instead of triggering a
// rollback.
//
// The Sentinel keeps the digest tables and compares; the caller computes
// the digests it records and verifies against (lbm::tile_digest, or the
// digest half of audit_tile), so a digest pass the caller already made is
// never repeated.  Only a mismatching tile is digested again here, to
// confirm it.  Record and verify read the same array with no step between
// them, so the digests read its rows in storage order: the verdicts do not
// depend on which direction a row holds.
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

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "base/types.hpp"
#include "lbm/tile_probe.hpp"
#include "resilience/policy.hpp"

namespace hemo::resilience {

class Sentinel {
 public:
  explicit Sentinel(SentinelPolicy policy);

  const SentinelPolicy& policy() const { return policy_; }

  /// One rank's live distribution array, as the digest loops see it.
  struct RankView {
    const double* f = nullptr;   // live SoA array
    std::int64_t stride = 0;     // q-row stride (owned + ghost slots)
    std::int64_t owned = 0;      // points digested: indices [0, owned)
  };

  /// A tile whose digest no longer matches its record (confirmed by the
  /// second digest pass).
  struct Mismatch {
    Rank rank = -1;
    std::int64_t tile = -1;
    std::int64_t recorded_step = -1;
  };

  /// Drops every digest table and resizes for `n_ranks` ranks.  Called
  /// whenever the recorded digests can no longer describe the live state:
  /// enabling resilience, rollback, shrink re-decomposition, checkpoint
  /// restore.
  void reset(int n_ranks);

  /// Records one rank's tile digests, computed by the caller over `view`'s
  /// tiles (`digests[t]` the lbm::tile_digest of tile t — the distributed
  /// solver takes them from its step launch's audits).
  void record(Rank r, const RankView& view,
              std::vector<lbm::TileDigest> digests, std::int64_t step);

  bool has_record(Rank r) const;
  std::int64_t recorded_step(Rank r) const;

  /// Verifies one rank's recorded digests against `now`, the digests the
  /// caller computed over `view`'s tiles.  A mismatching tile is confirmed
  /// by a second, serial digest of `view` before it is reported: confirmed
  /// mismatches are appended to `mismatches`; `checks` advances by the
  /// number of tiles compared and `false_positives` by the number of
  /// retracted (non-reproducing) mismatches.  A rank with no record, or
  /// with a record of other coverage, verifies vacuously.
  void verify(Rank r, const RankView& view,
              std::span<const lbm::TileDigest> now,
              std::vector<Mismatch>* mismatches, std::int64_t* checks,
              std::int64_t* false_positives) const;

  /// Tiles covering one rank's owned points.
  std::int64_t tiles_of(std::int64_t owned) const {
    return lbm::tile_count(owned, policy_.tile_points);
  }

 private:
  struct RankTable {
    std::vector<lbm::TileDigest> digests;
    std::int64_t step = -1;       // when the digests were recorded
    std::int64_t owned = 0;       // coverage the digests describe
  };

  /// Rank r's record when it can be compared against `view`, else null.
  const RankTable* comparable_table(Rank r, const RankView& view) const;

  SentinelPolicy policy_;
  std::vector<RankTable> tables_;
};

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
