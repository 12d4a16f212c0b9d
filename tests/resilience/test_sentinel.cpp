// SDC sentinel unit tests: tile digests must be bit-sensitive in every
// live layout, the record-then-verify protocol must localize a flipped
// bit to the exact tile (and only ever digest owned points), and the
// layout-aware health scan must catch corrupted live AA slots at both
// step parities — the coverage the canonical-snapshot guards cannot give.

#include "resilience/sentinel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "geom/cylinder.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/solver.hpp"
#include "lbm/tile_probe.hpp"
#include "resilience/policy.hpp"

namespace lbm = hemo::lbm;
namespace geom = hemo::geom;
namespace resilience = hemo::resilience;
using hemo::Rank;
using lbm::LiveLayout;
using resilience::Sentinel;

namespace {

constexpr LiveLayout kAllLayouts[] = {LiveLayout::kCanonical,
                                      LiveLayout::kAAEvenParity,
                                      LiveLayout::kAAOddParity};

/// Deterministic synthetic SoA state: kQ rows of `stride` doubles, every
/// slot distinct and O(equilibrium) in magnitude.
std::vector<double> synthetic_state(std::int64_t stride) {
  std::vector<double> f(static_cast<std::size_t>(lbm::kQ) *
                        static_cast<std::size_t>(stride));
  for (int q = 0; q < lbm::kQ; ++q)
    for (std::int64_t i = 0; i < stride; ++i)
      f[static_cast<std::size_t>(q) * static_cast<std::size_t>(stride) +
        static_cast<std::size_t>(i)] =
          0.05 + 0.003 * q + 1.0e-7 * static_cast<double>(i);
  return f;
}

void flip_bit(double* slot, int bit) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, slot, sizeof bits);
  bits ^= (1ull << bit);
  std::memcpy(slot, &bits, sizeof bits);
}

std::shared_ptr<lbm::SparseLattice> aa_cylinder() {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 12.0;
  return geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
}

lbm::SolverOptions aa_options() {
  lbm::SolverOptions o;
  o.tau = 0.9;
  o.inlet_velocity = 0.01;
  o.outlet_density = 1.0;
  o.propagation = lbm::Propagation::kAAInPlace;
  return o;
}

bool has_rule(const std::vector<hemo::analysis::Diagnostic>& diags,
              const std::string& rule) {
  for (const auto& d : diags)
    if (d.rule_id == rule) return true;
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tile probe: counting, bit sensitivity, layout algebra.

TEST(TileProbe, TileCountEdges) {
  EXPECT_EQ(lbm::tile_count(0, 256), 0);
  EXPECT_EQ(lbm::tile_count(1, 256), 1);
  EXPECT_EQ(lbm::tile_count(256, 256), 1);
  EXPECT_EQ(lbm::tile_count(257, 256), 2);
  EXPECT_EQ(lbm::tile_count(1000, 100), 10);
  // Degenerate grain: no tiles rather than a division fault.
  EXPECT_EQ(lbm::tile_count(5, 0), 0);
}

TEST(TileProbe, DigestDetectsEverySingleBitFlip) {
  constexpr std::int64_t kPoints = 37;  // odd: exercises the scalar tail
  std::vector<double> f = synthetic_state(kPoints);
  for (const LiveLayout layout : kAllLayouts) {
    const lbm::TileDigest baseline =
        lbm::tile_digest(f.data(), kPoints, 0, kPoints, layout);
    for (const int q : {0, 1, 9, lbm::kQ - 1}) {
      for (const std::int64_t i : {std::int64_t{0}, kPoints - 1}) {
        double* slot =
            f.data() + static_cast<std::size_t>(q) * kPoints + i;
        for (int bit = 0; bit < 64; ++bit) {
          flip_bit(slot, bit);
          EXPECT_NE(lbm::tile_digest(f.data(), kPoints, 0, kPoints, layout),
                    baseline)
              << "missed flip of bit " << bit << " at (q=" << q
              << ", i=" << i << ")";
          flip_bit(slot, bit);  // restore
        }
      }
    }
    EXPECT_EQ(lbm::tile_digest(f.data(), kPoints, 0, kPoints, layout),
              baseline);
  }
}

TEST(TileProbe, OddParityDigestReadsOppositeRows) {
  constexpr std::int64_t kPoints = 64;
  const std::vector<double> raw = synthetic_state(kPoints);
  // permuted row q := raw row opposite(q), i.e. what the even AA kernel
  // left behind: the post-collision f_q landed in the opposite slot.
  std::vector<double> permuted(raw.size());
  for (int q = 0; q < lbm::kQ; ++q)
    std::memcpy(permuted.data() + static_cast<std::size_t>(q) * kPoints,
                raw.data() +
                    static_cast<std::size_t>(lbm::opposite(q)) * kPoints,
                sizeof(double) * kPoints);
  EXPECT_EQ(lbm::tile_digest(raw.data(), kPoints, 0, kPoints,
                             LiveLayout::kAAOddParity),
            lbm::tile_digest(permuted.data(), kPoints, 0, kPoints,
                             LiveLayout::kCanonical));
  // Even parity is the identity mapping: same digest as canonical.
  EXPECT_EQ(lbm::tile_digest(raw.data(), kPoints, 0, kPoints,
                             LiveLayout::kAAEvenParity),
            lbm::tile_digest(raw.data(), kPoints, 0, kPoints,
                             LiveLayout::kCanonical));
}

TEST(TileProbe, DigestTablesLocalizeFlipsToOneTile) {
  constexpr std::int64_t kPoints = 1000;
  constexpr std::int64_t kTilePoints = 256;  // 4 tiles, last one short
  std::vector<double> f = synthetic_state(kPoints);
  const std::vector<lbm::TileDigest> before = lbm::digest_tiles(
      f.data(), kPoints, kPoints, kTilePoints, LiveLayout::kCanonical);
  ASSERT_EQ(before.size(), 4u);

  // Flips on both sides of a tile boundary land in different tiles.
  for (const auto& [point, tile] :
       std::vector<std::pair<std::int64_t, std::size_t>>{
           {255, 0}, {256, 1}, {700, 2}, {999, 3}}) {
    flip_bit(f.data() + 5 * kPoints + point, 13);
    const std::vector<lbm::TileDigest> after = lbm::digest_tiles(
        f.data(), kPoints, kPoints, kTilePoints, LiveLayout::kCanonical);
    for (std::size_t t = 0; t < after.size(); ++t) {
      if (t == tile)
        EXPECT_NE(after[t], before[t]) << "point " << point;
      else
        EXPECT_EQ(after[t], before[t]) << "point " << point;
    }
    flip_bit(f.data() + 5 * kPoints + point, 13);  // restore
  }
}

// ---------------------------------------------------------------------------
// Sentinel: record-then-verify protocol.

namespace {

resilience::SentinelPolicy tile100_policy() {
  resilience::SentinelPolicy p;
  p.enabled = true;
  p.tile_points = 100;
  return p;
}

Sentinel::RankView view_of(const std::vector<double>& f,
                           std::int64_t stride, std::int64_t owned,
                           LiveLayout layout) {
  return {f.data(), stride, owned, layout};
}

/// `view`'s tile digests, as the solvers compute them.
std::vector<lbm::TileDigest> digests(const Sentinel& sentinel,
                                     const Sentinel::RankView& view) {
  return lbm::digest_tiles(view.f, view.stride, view.owned,
                           sentinel.policy().tile_points, view.layout);
}

void record(Sentinel& sentinel, Rank r, const Sentinel::RankView& view,
            std::int64_t step) {
  sentinel.record(r, view, digests(sentinel, view), step);
}

void verify(const Sentinel& sentinel, Rank r, const Sentinel::RankView& view,
            std::vector<Sentinel::Mismatch>* mismatches, std::int64_t* checks,
            std::int64_t* false_positives) {
  sentinel.verify(r, view, digests(sentinel, view), mismatches, checks,
                  false_positives);
}

}  // namespace

TEST(Sentinel, RecordThenVerifyIsQuietOnCleanState) {
  constexpr std::int64_t kStride = 1050;  // 1000 owned + 50 ghost slots
  constexpr std::int64_t kOwned = 1000;
  std::vector<double> f = synthetic_state(kStride);

  Sentinel sentinel(tile100_policy());
  sentinel.reset(3);
  EXPECT_EQ(sentinel.tiles_of(kOwned), 10);
  EXPECT_FALSE(sentinel.has_record(2));

  record(sentinel, 2, view_of(f, kStride, kOwned, LiveLayout::kCanonical), 5);
  EXPECT_TRUE(sentinel.has_record(2));
  EXPECT_FALSE(sentinel.has_record(0));
  EXPECT_EQ(sentinel.recorded_step(2), 5);

  // Ghost slots are legitimately rewritten by every exchange: a flip
  // there must be invisible to the digests.
  flip_bit(f.data() + 3 * kStride + 1010, 21);

  std::vector<Sentinel::Mismatch> mismatches;
  std::int64_t checks = 0, false_positives = 0;
  verify(sentinel, 2, view_of(f, kStride, kOwned, LiveLayout::kCanonical),
         &mismatches, &checks, &false_positives);
  EXPECT_TRUE(mismatches.empty());
  EXPECT_EQ(checks, 10);
  EXPECT_EQ(false_positives, 0);
}

TEST(Sentinel, VerifyLocalizesEachCorruptTile) {
  constexpr std::int64_t kOwned = 1000;
  std::vector<double> f = synthetic_state(kOwned);
  Sentinel sentinel(tile100_policy());
  sentinel.reset(4);
  record(sentinel, 1, view_of(f, kOwned, kOwned, LiveLayout::kAAEvenParity),
         7);

  flip_bit(f.data() + 7 * kOwned + 537, 3);   // tile 5
  flip_bit(f.data() + 0 * kOwned + 123, 60);  // tile 1

  std::vector<Sentinel::Mismatch> mismatches;
  std::int64_t checks = 0, false_positives = 0;
  verify(sentinel, 1, view_of(f, kOwned, kOwned, LiveLayout::kAAEvenParity),
         &mismatches, &checks, &false_positives);
  ASSERT_EQ(mismatches.size(), 2u);
  EXPECT_EQ(mismatches[0].rank, 1);
  EXPECT_EQ(mismatches[0].tile, 1);
  EXPECT_EQ(mismatches[0].recorded_step, 7);
  EXPECT_EQ(mismatches[1].rank, 1);
  EXPECT_EQ(mismatches[1].tile, 5);
  EXPECT_EQ(mismatches[1].recorded_step, 7);
  // The corruption reproduces on the confirming re-digest: a real
  // detection, not a retracted checker glitch.
  EXPECT_EQ(false_positives, 0);
}

TEST(Sentinel, VerifyIsVacuousWithoutAMatchingRecord) {
  constexpr std::int64_t kOwned = 400;
  std::vector<double> f = synthetic_state(kOwned);
  Sentinel sentinel(tile100_policy());
  sentinel.reset(2);

  std::vector<Sentinel::Mismatch> mismatches;
  std::int64_t checks = 0, false_positives = 0;

  // No record at all.
  verify(sentinel, 0, view_of(f, kOwned, kOwned, LiveLayout::kCanonical),
         &mismatches, &checks, &false_positives);
  EXPECT_EQ(checks, 0);

  record(sentinel, 0, view_of(f, kOwned, kOwned, LiveLayout::kCanonical), 2);

  // Coverage changed (shrink redistributed points): the record cannot
  // describe this state any more.
  verify(sentinel, 0, view_of(f, kOwned, 300, LiveLayout::kCanonical),
         &mismatches, &checks, &false_positives);
  EXPECT_EQ(checks, 0);

  // Layout changed (AA parity advanced past the record).
  verify(sentinel, 0, view_of(f, kOwned, kOwned, LiveLayout::kAAOddParity),
         &mismatches, &checks, &false_positives);
  EXPECT_EQ(checks, 0);

  // reset() drops every table.
  sentinel.reset(2);
  EXPECT_FALSE(sentinel.has_record(0));
  verify(sentinel, 0, view_of(f, kOwned, kOwned, LiveLayout::kCanonical),
         &mismatches, &checks, &false_positives);
  EXPECT_EQ(checks, 0);
  EXPECT_TRUE(mismatches.empty());
  EXPECT_EQ(false_positives, 0);
}

// ---------------------------------------------------------------------------
// Layout-aware live health scan over a real AA solver, both parities.

TEST(LiveHealthScan, CleanAAStateScansQuietAtBothParities) {
  auto lattice = aa_cylinder();
  lbm::Solver solver(lattice, aa_options());

  solver.run(2);  // even parity
  ASSERT_EQ(solver.live_layout(), LiveLayout::kAAEvenParity);
  EXPECT_TRUE(resilience::scan_live_health(
                  solver.live_state(), lattice->size(), lattice->size(),
                  solver.live_layout(), 0.0, 0.0, 0.0, 2, "solver")
                  .empty());

  solver.run(1);  // odd parity
  ASSERT_EQ(solver.live_layout(), LiveLayout::kAAOddParity);
  EXPECT_TRUE(resilience::scan_live_health(
                  solver.live_state(), lattice->size(), lattice->size(),
                  solver.live_layout(), 0.0, 0.0, 0.0, 3, "solver")
                  .empty());
}

TEST(LiveHealthScan, NonFiniteLiveSlotRaisesRS001AtBothParities) {
  for (const int steps : {2, 3}) {  // even and odd parity
    auto lattice = aa_cylinder();
    lbm::Solver solver(lattice, aa_options());
    solver.run(steps);

    // Saturate the exponent of one live slot: set every zero exponent
    // bit, turning the value into Inf/NaN in place.
    const hemo::PointIndex i = lattice->size() / 2;
    const int q = 5;
    const double* row =
        solver.live_state() +
        static_cast<std::size_t>(lbm::live_slot_q(solver.live_layout(), q)) *
            static_cast<std::size_t>(lattice->size());
    std::uint64_t bits = 0;
    std::memcpy(&bits, row + i, sizeof bits);
    for (int bit = 52; bit < 63; ++bit)
      if (((bits >> bit) & 1ull) == 0) solver.corrupt_live_bit(i, q, bit);

    const auto diags = resilience::scan_live_health(
        solver.live_state(), lattice->size(), lattice->size(),
        solver.live_layout(), 0.0, 0.0, 0.0, steps, "solver");
    EXPECT_TRUE(has_rule(diags, "RS001")) << "parity of step " << steps;
  }
}

TEST(LiveHealthScan, HugeFiniteLiveSlotRaisesRS003) {
  auto lattice = aa_cylinder();
  lbm::Solver solver(lattice, aa_options());
  solver.run(2);

  // Flip the top exponent bit of a moving-direction slot: the value
  // stays finite (exponent < 0x7FF) but becomes ~2^1000, so the point's
  // velocity magnitude blows through the compressibility ceiling while
  // the non-finite scan stays silent.
  const hemo::PointIndex i = lattice->size() / 3;
  const int q = 1;
  const double* row =
      solver.live_state() +
      static_cast<std::size_t>(lbm::live_slot_q(solver.live_layout(), q)) *
          static_cast<std::size_t>(lattice->size());
  const double value = row[i];
  ASSERT_GT(value, 0.0);
  ASSERT_LT(value, 1.0);  // exponent < 0x3FF, so bit 62 is currently 0
  solver.corrupt_live_bit(i, q, 62);
  ASSERT_TRUE(std::isfinite(row[i]));

  const auto diags = resilience::scan_live_health(
      solver.live_state(), lattice->size(), lattice->size(),
      solver.live_layout(), 0.0, 0.0, 0.0, 2, "solver");
  EXPECT_TRUE(has_rule(diags, "RS003"));
  EXPECT_FALSE(has_rule(diags, "RS001"));
}

TEST(LiveHealthScan, SolverTileDigestsLocalizeAndRoundTripCorruption) {
  auto lattice = aa_cylinder();
  lbm::Solver solver(lattice, aa_options());
  solver.run(3);  // odd parity: the permuted slot mapping is in effect

  constexpr std::int64_t kTilePoints = 64;
  const std::vector<lbm::TileDigest> before =
      solver.tile_digests(kTilePoints);

  const hemo::PointIndex i = lattice->size() / 2;
  solver.corrupt_live_bit(i, 9, 17);
  const std::vector<lbm::TileDigest> after = solver.tile_digests(kTilePoints);
  ASSERT_EQ(after.size(), before.size());
  const std::size_t hit = static_cast<std::size_t>(i / kTilePoints);
  for (std::size_t t = 0; t < after.size(); ++t) {
    if (t == hit)
      EXPECT_NE(after[t], before[t]);
    else
      EXPECT_EQ(after[t], before[t]);
  }

  // Flipping the same bit again restores the exact state.
  solver.corrupt_live_bit(i, 9, 17);
  EXPECT_EQ(solver.tile_digests(kTilePoints), before);
}
