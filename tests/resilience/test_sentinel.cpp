// SDC sentinel unit tests: tile digests must be bit-sensitive and keep
// their exact bits, and the record-then-verify protocol must localize a
// flipped bit to the exact tile (and only ever digest owned points).

#include "resilience/sentinel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <utility>
#include <vector>

#include "lbm/d3q19.hpp"
#include "lbm/tile_probe.hpp"

namespace lbm = hemo::lbm;
namespace resilience = hemo::resilience;

namespace {

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

/// Digests of every tile covering points [0, points), the last one short.
std::vector<lbm::TileDigest> digest_tiles(const double* f,
                                          std::int64_t stride,
                                          std::int64_t points,
                                          std::int64_t tile_points) {
  std::vector<lbm::TileDigest> out;
  for (std::int64_t begin = 0; begin < points; begin += tile_points)
    out.push_back(lbm::tile_digest(f, stride, begin,
                                   std::min(begin + tile_points, points)));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tile probe: bit sensitivity, exact bits.

TEST(TileProbe, DigestDetectsEverySingleBitFlip) {
  constexpr std::int64_t kPoints = 37;  // odd: exercises the scalar tail
  std::vector<double> f = synthetic_state(kPoints);
  const lbm::TileDigest baseline =
      lbm::tile_digest(f.data(), kPoints, 0, kPoints);
  for (const int q : {0, 1, 9, lbm::kQ - 1}) {
    for (const std::int64_t i : {std::int64_t{0}, kPoints - 1}) {
      double* slot = f.data() + static_cast<std::size_t>(q) * kPoints + i;
      for (int bit = 0; bit < 64; ++bit) {
        flip_bit(slot, bit);
        EXPECT_NE(lbm::tile_digest(f.data(), kPoints, 0, kPoints), baseline)
            << "missed flip of bit " << bit << " at (q=" << q << ", i=" << i
            << ")";
        flip_bit(slot, bit);  // restore
      }
    }
  }
  EXPECT_EQ(lbm::tile_digest(f.data(), kPoints, 0, kPoints), baseline);
}

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// One tile's digest and RS003 partial as raw words: hash, mass,
/// momentum x/y/z and max_speed2.
struct AuditWords {
  std::uint64_t w[6];
  friend bool operator==(const AuditWords&, const AuditWords&) = default;
};

std::ostream& operator<<(std::ostream& os, const AuditWords& a) {
  os << std::hex;
  for (const std::uint64_t w : a.w) os << " 0x" << w << "ull";
  return os << std::dec;
}

}  // namespace

// The exact words tile_digest and audit_tile produce on the synthetic
// state: a change to either loop (lane split, row order, sum order, the
// velocity scan) that moves a single bit of a recorded digest or of a
// guard partial fails here, not only in an end-to-end run.
TEST(TileProbe, DigestAndAuditBitsMatchGolden) {
  constexpr std::int64_t kStride = 600;
  constexpr double kForce[3] = {1.0e-6, -2.0e-6, 5.0e-7};
  const std::vector<double> f = synthetic_state(kStride);
  struct Case {
    const char* name;
    std::int64_t begin, end;
    AuditWords golden;
  };
  const Case cases[] = {
      {"full tile", 0, 256,
       {{0xd29be667ebd34b42ull, 0x40776970b49e01dfull, 0xc00eb851eb851ed0ull,
         0xc0026e978d4fdf28ull, 0xbfe89374bc6a7ee0ull,
         0x3f234a424d276a9bull}}},
      {"short tile", 512, 600,
       {{0x4ade469beec9f62eull, 0x40601ac7b7ba1611ull, 0xbff51eb851eb8528ull,
         0xbfe95810624dd2d0ull, 0xbfd0e56041893720ull,
         0x3f2343b2c333866eull}}},
      {"odd-length tile", 3, 40,
       {{0x67d1147e690514ecull, 0x404b10f4fbbfff5full, 0xbfe1c28f5c28f5c4ull,
         0xbfd54fdf3b645a18ull, 0xbfbc6a7ef9db2300ull,
         0x3f234a387358ebcaull}}},
  };
  for (const Case& c : cases) {
    const lbm::TileDigest d =
        lbm::tile_digest(f.data(), kStride, c.begin, c.end);
    const resilience::TileAudit a = resilience::audit_tile(
        f.data(), kStride, c.begin, c.end, kForce[0], kForce[1], kForce[2]);
    EXPECT_EQ(std::memcmp(&a.digest, &d, sizeof d), 0) << c.name;
    EXPECT_EQ(a.nonfinite, 0) << c.name;
    EXPECT_EQ(a.first_nonfinite, -1) << c.name;
    const AuditWords words{{d.hash, bits_of(d.mass), bits_of(d.momentum_x),
                            bits_of(d.momentum_y), bits_of(d.momentum_z),
                            bits_of(a.max_speed2)}};
    EXPECT_EQ(words, c.golden) << c.name;
  }
}

TEST(TileProbe, DigestTablesLocalizeFlipsToOneTile) {
  constexpr std::int64_t kPoints = 1000;
  constexpr std::int64_t kTilePoints = 256;  // 4 tiles, last one short
  std::vector<double> f = synthetic_state(kPoints);
  const std::vector<lbm::TileDigest> before =
      digest_tiles(f.data(), kPoints, kPoints, kTilePoints);
  ASSERT_EQ(before.size(), 4u);

  // Flips on both sides of a tile boundary land in different tiles.
  for (const auto& [point, tile] :
       std::vector<std::pair<std::int64_t, std::size_t>>{
           {255, 0}, {256, 1}, {700, 2}, {999, 3}}) {
    flip_bit(f.data() + 5 * kPoints + point, 13);
    const std::vector<lbm::TileDigest> after =
        digest_tiles(f.data(), kPoints, kPoints, kTilePoints);
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

constexpr std::int64_t kTile100 = 100;

/// A confirming re-digest of tile k of [0, owned) of `f`, as the solver
/// makes it; counts its calls in `*calls`.
std::function<lbm::TileDigest(std::size_t)> redigest_of(
    const std::vector<double>& f, std::int64_t stride, std::int64_t owned,
    int* calls) {
  return [&f, stride, owned, calls](std::size_t k) {
    ++*calls;
    const std::int64_t begin = static_cast<std::int64_t>(k) * kTile100;
    return lbm::tile_digest(f.data(), stride, begin,
                            std::min(begin + kTile100, owned));
  };
}

}  // namespace

TEST(Sentinel, RecordThenVerifyIsQuietOnCleanState) {
  constexpr std::int64_t kStride = 1050;  // 1000 owned + 50 ghost slots
  constexpr std::int64_t kOwned = 1000;
  std::vector<double> f = synthetic_state(kStride);
  const std::vector<lbm::TileDigest> recorded =
      digest_tiles(f.data(), kStride, kOwned, kTile100);
  ASSERT_EQ(recorded.size(), 10u);

  // Ghost slots are legitimately rewritten by every exchange: a flip
  // there must be invisible to the digests.
  flip_bit(f.data() + 3 * kStride + 1010, 21);

  int redigests = 0;
  std::int64_t checks = 0, false_positives = 0;
  const std::vector<std::size_t> found = resilience::verify_digests(
      recorded, digest_tiles(f.data(), kStride, kOwned, kTile100),
      redigest_of(f, kStride, kOwned, &redigests), &checks, &false_positives);
  EXPECT_TRUE(found.empty());
  EXPECT_EQ(checks, 10);
  EXPECT_EQ(false_positives, 0);
  EXPECT_EQ(redigests, 0);  // only a mismatch is digested again
}

TEST(Sentinel, VerifyLocalizesEachCorruptTile) {
  constexpr std::int64_t kOwned = 1000;
  std::vector<double> f = synthetic_state(kOwned);
  const std::vector<lbm::TileDigest> recorded =
      digest_tiles(f.data(), kOwned, kOwned, kTile100);

  flip_bit(f.data() + 7 * kOwned + 537, 3);   // tile 5
  flip_bit(f.data() + 0 * kOwned + 123, 60);  // tile 1

  int redigests = 0;
  std::int64_t checks = 0, false_positives = 0;
  const std::vector<std::size_t> found = resilience::verify_digests(
      recorded, digest_tiles(f.data(), kOwned, kOwned, kTile100),
      redigest_of(f, kOwned, kOwned, &redigests), &checks, &false_positives);
  EXPECT_EQ(found, (std::vector<std::size_t>{1, 5}));
  EXPECT_EQ(checks, 10);
  EXPECT_EQ(redigests, 2);
  // The corruption reproduces on the confirming re-digest: a real
  // detection, not a retracted checker glitch.
  EXPECT_EQ(false_positives, 0);
}

TEST(Sentinel, VerifyRetractsOnlyARedigestThatMatchesTheRecord) {
  // Three mismatching tiles, each confirmed by a different re-digest: one
  // that equals the record (the first pass misread: retracted), one that
  // equals the first digest, and one that equals neither.  The last two
  // both say the state no longer matches the record, so both are
  // confirmed.
  constexpr std::int64_t kPoints = 400;
  const std::vector<double> f = synthetic_state(kPoints);
  const std::vector<lbm::TileDigest> recorded =
      digest_tiles(f.data(), kPoints, kPoints, kTile100);
  std::vector<lbm::TileDigest> now = recorded;
  for (const std::size_t k : std::initializer_list<std::size_t>{0, 2, 3})
    now[k].hash ^= 1;
  const auto redigest = [&](std::size_t k) {
    lbm::TileDigest again = recorded[k];
    if (k == 2) again = now[k];
    if (k == 3) again.hash ^= 2;  // a third value
    return again;
  };

  std::int64_t checks = 0, false_positives = 0;
  const std::vector<std::size_t> found = resilience::verify_digests(
      recorded, now, redigest, &checks, &false_positives);
  EXPECT_EQ(found, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(checks, 4);
  EXPECT_EQ(false_positives, 1);
}
