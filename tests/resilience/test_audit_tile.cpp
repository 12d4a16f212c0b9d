// State audit equivalence: resilience::audit_tile must reproduce the
// sentinel digest bit for bit and the point-wise RS001/RS003 partials
// exactly, on clean tiles and on every kind of non-finite or overflowing
// tile — its finiteness shortcut may skip work, never change an answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "lbm/d3q19.hpp"
#include "lbm/kernels.hpp"
#include "lbm/tile_probe.hpp"
#include "resilience/policy.hpp"
#include "resilience/sentinel.hpp"

namespace lbm = hemo::lbm;
namespace resilience = hemo::resilience;
using resilience::TileAudit;

namespace {

constexpr std::int64_t kStride = 700;  // points per q-row
constexpr std::int64_t kTile = 256;    // tiles: 256, 256 and a short 188
constexpr double kForce[3] = {1.0e-6, -2.0e-6, 5.0e-7};

/// Deterministic near-equilibrium SoA state with a little flow in it.
std::vector<double> synthetic_state() {
  std::vector<double> f(static_cast<std::size_t>(lbm::kQ) * kStride);
  for (int q = 0; q < lbm::kQ; ++q)
    for (std::int64_t i = 0; i < kStride; ++i)
      f[static_cast<std::size_t>(q) * kStride + static_cast<std::size_t>(i)] =
          lbm::kWeights[q] * (1.0 + 0.01 * lbm::c(q, 0)) +
          1.0e-6 * static_cast<double>((i * 7 + q * 13) % 101);
  return f;
}

/// Sets direction q of point i.
void set_slot(std::vector<double>* f, std::int64_t i, int q, double value) {
  (*f)[static_cast<std::size_t>(q) * kStride + static_cast<std::size_t>(i)] =
      value;
}

/// The partials as a plain point-wise scan computes them: an isfinite test
/// per slot, moments_of per finite point.
TileAudit pointwise(const std::vector<double>& f, std::int64_t begin,
                    std::int64_t end) {
  TileAudit ref;
  for (std::int64_t i = begin; i < end; ++i) {
    double fi[lbm::kQ];
    bool finite = true;
    for (int q = 0; q < lbm::kQ; ++q) {
      fi[q] = f[static_cast<std::size_t>(q) * kStride +
                static_cast<std::size_t>(i)];
      finite = finite && std::isfinite(fi[q]);
    }
    if (!finite) {
      ++ref.nonfinite;
      if (ref.first_nonfinite < 0) ref.first_nonfinite = i;
      continue;
    }
    const lbm::Moments m = lbm::moments_of(fi, kForce[0], kForce[1], kForce[2]);
    ref.max_speed2 =
        std::max(ref.max_speed2, m.ux * m.ux + m.uy * m.uy + m.uz * m.uz);
  }
  return ref;
}

std::vector<TileAudit> audit_all(const std::vector<double>& f) {
  std::vector<TileAudit> out;
  for (std::int64_t begin = 0; begin < kStride; begin += kTile)
    out.push_back(resilience::audit_tile(
        f.data(), kStride, begin, std::min(begin + kTile, kStride), kForce[0],
        kForce[1], kForce[2]));
  return out;
}

/// Bitwise digest equality: TileDigest's operator== compares the sums as
/// doubles, and a NaN sum never equals itself.
bool same_bits(const lbm::TileDigest& a, const lbm::TileDigest& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Every tile's audit against tile_digest and the point-wise reference.
void expect_matches_reference(const std::vector<double>& f,
                              const std::string& label) {
  const std::vector<TileAudit> audits = audit_all(f);
  ASSERT_EQ(audits.size(), 3u) << label;
  for (std::size_t t = 0; t < audits.size(); ++t) {
    const std::int64_t begin = static_cast<std::int64_t>(t) * kTile;
    const std::int64_t end = std::min(begin + kTile, kStride);
    const TileAudit ref = pointwise(f, begin, end);
    const TileAudit& a = audits[t];
    EXPECT_TRUE(
        same_bits(a.digest, lbm::tile_digest(f.data(), kStride, begin, end)))
        << label << ", tile " << t;
    EXPECT_EQ(a.nonfinite, ref.nonfinite) << label << ", tile " << t;
    EXPECT_EQ(a.first_nonfinite, ref.first_nonfinite)
        << label << ", tile " << t;
    EXPECT_EQ(a.max_speed2, ref.max_speed2) << label << ", tile " << t;
  }
}

bool has_rule(const std::vector<hemo::analysis::Diagnostic>& diags,
              const std::string& rule) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const auto& d) { return d.rule_id == rule; });
}

struct TileCase {
  const char* name;
  void (*corrupt)(std::vector<double>*);
};

constexpr double kInf = std::numeric_limits<double>::infinity();

const TileCase kCases[] = {
    {"clean", [](std::vector<double>*) {}},
    {"one NaN",
     [](std::vector<double>* f) {
       set_slot(f, 17, 3, std::numeric_limits<double>::quiet_NaN());
     }},
    {"+Inf", [](std::vector<double>* f) { set_slot(f, 300, 0, kInf); }},
    {"+Inf and -Inf in one tile",
     [](std::vector<double>* f) {
       set_slot(f, 530, 1, kInf);
       set_slot(f, 520, 2, -kInf);
     }},
    {"finite overflow",
     [](std::vector<double>* f) {
       set_slot(f, 260, 1, 1e308);
       set_slot(f, 270, 1, 1e308);
     }},
    {"short last tile",
     [](std::vector<double>* f) {
       set_slot(f, kStride - 1, 18, std::numeric_limits<double>::quiet_NaN());
       set_slot(f, kStride - 5, 4, 0.5);  // fast but finite
     }},
};

}  // namespace

TEST(AuditTile, DigestIsBitEqualToTileDigest) {
  const std::vector<double> f = synthetic_state();
  for (const auto& [begin, end] :
       {std::pair<std::int64_t, std::int64_t>{0, kStride},
        {0, 1},
        {3, 258},
        {kStride - 3, kStride}}) {
    const TileAudit a = resilience::audit_tile(f.data(), kStride, begin, end,
                                               kForce[0], kForce[1], kForce[2]);
    EXPECT_TRUE(
        same_bits(a.digest, lbm::tile_digest(f.data(), kStride, begin, end)))
        << "[" << begin << ", " << end << ")";
  }
}

TEST(AuditTile, PartialsMatchPointwiseReferenceOnEveryTileKind) {
  for (const TileCase& c : kCases) {
    std::vector<double> f = synthetic_state();
    c.corrupt(&f);
    expect_matches_reference(f, c.name);
  }
}

TEST(AuditTile, CleanTilesHaveFiniteMassAndRaiseNothing) {
  const std::vector<double> f = synthetic_state();
  const std::vector<TileAudit> audits = audit_all(f);
  for (const TileAudit& a : audits) {
    EXPECT_TRUE(std::isfinite(a.digest.mass));
    EXPECT_EQ(a.nonfinite, 0);
    EXPECT_GT(a.max_speed2, 0.0);
  }
  EXPECT_TRUE(resilience::health_diagnostics(audits, 1, "t").empty());
}

TEST(AuditTile, FoldNamesTheFirstNonFinitePointAcrossTiles) {
  std::vector<double> f = synthetic_state();
  set_slot(&f, 300, 0, kInf);
  set_slot(&f, 301, 7, std::numeric_limits<double>::quiet_NaN());
  set_slot(&f, 650, 2, -kInf);
  const auto diags = resilience::health_diagnostics(audit_all(f), 9, "rank 2");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule_id, "RS001");
  EXPECT_EQ(diags[0].file, "rank 2");
  EXPECT_EQ(diags[0].message,
            "step 9: 3 point(s) with non-finite distributions (first local "
            "index 300)");
}

TEST(AuditTile, FiniteOverflowRaisesRS003NotRS001) {
  std::vector<double> f = synthetic_state();
  set_slot(&f, 260, 1, 1e308);
  set_slot(&f, 270, 1, 1e308);
  const std::vector<TileAudit> audits = audit_all(f);
  EXPECT_FALSE(std::isfinite(audits[1].digest.mass));  // the sum overflowed
  EXPECT_EQ(audits[1].nonfinite, 0);                   // every slot finite
  const auto diags = resilience::health_diagnostics(audits, 4, "solver");
  EXPECT_TRUE(has_rule(diags, "RS003"));
  EXPECT_FALSE(has_rule(diags, "RS001"));
}

// ---------------------------------------------------------------------------
// The vectorized RS003 scan against the plain per-point loop, and the
// vacuum point that the plain std::max fold used to drop.

namespace {

/// |u|^2 as the guards define it, point by point: moments_of, then a NaN
/// |u|^2 counted as +Inf.
double scalar_max_speed2(const std::vector<double>& f, std::int64_t begin,
                         std::int64_t end) {
  double largest = 0.0;
  for (std::int64_t i = begin; i < end; ++i) {
    double fi[lbm::kQ];
    for (int q = 0; q < lbm::kQ; ++q)
      fi[q] = f[static_cast<std::size_t>(q) * kStride +
                static_cast<std::size_t>(i)];
    const lbm::Moments m = lbm::moments_of(fi, kForce[0], kForce[1], kForce[2]);
    const double s2 = m.ux * m.ux + m.uy * m.uy + m.uz * m.uz;
    largest = std::max(largest, std::isnan(s2) ? kInf : s2);
  }
  return largest;
}

/// Zeroes every slot of point i: rho = 0, so |u|^2 = 0 / 0.
void make_vacuum(std::vector<double>* f, std::int64_t i) {
  for (int q = 0; q < lbm::kQ; ++q) set_slot(f, i, q, 0.0);
}

}  // namespace

// Every tile length 1-300 at misaligned begins, on a state with a fast
// point, an Inf slot and a vacuum point in it.
TEST(AuditTile, VelocityScanMatchesScalarLoop) {
  std::vector<double> f = synthetic_state();
  set_slot(&f, 150, 4, 0.5);   // fast but finite
  set_slot(&f, 290, 2, kInf);  // non-finite slot
  make_vacuum(&f, 340);        // rho = 0
  for (const std::int64_t begin : {0, 1, 3, 5, 7, 13, 255, 333}) {
    for (std::int64_t len = 1; len <= 300 && begin + len <= kStride; ++len) {
      const double simd =
          resilience::max_speed2(f.data(), kStride, begin, begin + len,
                                 kForce[0], kForce[1], kForce[2]);
      const double scalar = scalar_max_speed2(f, begin, begin + len);
      std::uint64_t a = 0, b = 0;
      std::memcpy(&a, &simd, sizeof a);
      std::memcpy(&b, &scalar, sizeof b);
      ASSERT_EQ(a, b) << "[" << begin << ", " << begin + len << "): " << simd
                      << " vs " << scalar;
    }
  }
}

// A finite point with rho = 0 has |u|^2 = 0 / 0 = NaN, which std::max
// drops: the point passed RS001-RS003.  It must count as over the ceiling,
// on the finite-tile (vectorized) path and on the per-slot path alike.
TEST(AuditTile, VacuumPointTripsRS003) {
  std::vector<double> f = synthetic_state();
  make_vacuum(&f, 100);
  std::vector<TileAudit> audits = audit_all(f);
  EXPECT_TRUE(std::isfinite(audits[0].digest.mass));
  EXPECT_EQ(audits[0].nonfinite, 0);
  EXPECT_EQ(audits[0].max_speed2, kInf);
  auto diags = resilience::health_diagnostics(audits, 3, "rank 0");
  EXPECT_TRUE(has_rule(diags, "RS003"));
  EXPECT_FALSE(has_rule(diags, "RS001"));

  // The same point in a tile that also holds a NaN slot.
  set_slot(&f, 120, 6, std::numeric_limits<double>::quiet_NaN());
  audits = audit_all(f);
  EXPECT_EQ(audits[0].nonfinite, 1);
  EXPECT_EQ(audits[0].max_speed2, kInf);
  diags = resilience::health_diagnostics(audits, 3, "rank 0");
  EXPECT_TRUE(has_rule(diags, "RS001"));
  EXPECT_TRUE(has_rule(diags, "RS003"));
}
