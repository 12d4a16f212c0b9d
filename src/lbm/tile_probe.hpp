#pragma once
// Tile-granular probes over live distribution arrays, the measurement
// layer of the SDC sentinel (resilience/sentinel.hpp).  A tile is a
// block of consecutive point indices; its digest folds every distribution
// slot of those points into a cheap FNV-1a hash of the raw bit patterns
// plus the physical invariants (tile mass and momentum) the hash alone
// cannot interpret.  Two digests of the same state are bitwise equal, so
// a single flipped bit anywhere in a tile's slots changes the digest with
// certainty — unlike a floating-point norm, which can lose a low-mantissa
// flip to rounding.
//
// The probes read the LIVE array, the exact storage the next step reads,
// row q as direction q.  That is the canonical post-collision layout of
// the pull-SoA double buffer, the only array the sentinel watches (the
// distributed solver runs pull only).  Detection does not depend on it:
// the sentinel compares a record and a verify of the same array with no
// step between them, so any fixed row order gives the same verdicts.
//
// The sentinel's verify digests a tile's input from memory, in the
// work-item that then steps the tile if it is interior, so the digest is
// the pass that brings the tile into cache: it prefetches as it goes.

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "lbm/d3q19.hpp"

namespace hemo::lbm {

/// Rolling invariants of one tile: an FNV-1a hash over the exact bit
/// patterns of every slot, plus mass and momentum sums.  Equality is
/// bitwise — the sums are byproducts of the same deterministic loop, so
/// they match exactly whenever the state does.
struct TileDigest {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  double mass = 0.0;
  double momentum_x = 0.0;
  double momentum_y = 0.0;
  double momentum_z = 0.0;

  friend bool operator==(const TileDigest& a, const TileDigest& b) {
    return a.hash == b.hash && a.mass == b.mass &&
           a.momentum_x == b.momentum_x && a.momentum_y == b.momentum_y &&
           a.momentum_z == b.momentum_z;
  }
  friend bool operator!=(const TileDigest& a, const TileDigest& b) {
    return !(a == b);
  }
};

/// Digest of points [begin, end) of a live SoA array with q-row stride
/// `stride` (the distributed solver's count of a rank's owned points).
inline TileDigest tile_digest(const double* f, std::int64_t stride,
                              std::int64_t begin, std::int64_t end) {
  constexpr std::uint64_t kFnvPrime = 1099511628211ull;
  // The digest runs every step over every owned slot, so it has to cost a
  // small fraction of the kernel it guards.  Two structural choices keep
  // it there:
  //   - word-wise FNV-1a (one xor+multiply per slot, not the canonical
  //     byte loop) across FOUR interleaved lanes, because a single hash
  //     chain is serialized on multiply latency;
  //   - one row sum per direction, scaled by the direction's lattice
  //     velocity afterwards, instead of per-point momentum FMAs.
  // The rows of a tile lie a whole q-row stride apart, so the hardware
  // prefetcher starts each row cold; while it hashes row q the loop
  // prefetches row q + 1 of the same points.
  // Each per-lane round h' = (h ^ bits) * prime is a bijection in `bits`
  // (the prime is odd), and the lane combine below is a bijection in each
  // lane, so a single flipped bit anywhere still changes the digest with
  // certainty.  Lane assignment and combine order are fixed, keeping the
  // digest a pure function of (state, [begin, end)).
  TileDigest d;
  std::uint64_t h0 = d.hash, h1 = d.hash, h2 = d.hash, h3 = d.hash;
  for (int q = 0; q < kQ; ++q) {
    const double* row =
        f + static_cast<std::size_t>(q) * static_cast<std::size_t>(stride);
    // The last row prefetches itself: no branch in the loop.
    const double* next =
        row + (q + 1 < kQ ? static_cast<std::size_t>(stride) : 0);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::int64_t i = begin;
    for (; i + 4 <= end; i += 4) {
      __builtin_prefetch(next + i);
      std::uint64_t b0, b1, b2, b3;
      std::memcpy(&b0, row + i, sizeof b0);
      std::memcpy(&b1, row + i + 1, sizeof b1);
      std::memcpy(&b2, row + i + 2, sizeof b2);
      std::memcpy(&b3, row + i + 3, sizeof b3);
      h0 = (h0 ^ b0) * kFnvPrime;
      h1 = (h1 ^ b1) * kFnvPrime;
      h2 = (h2 ^ b2) * kFnvPrime;
      h3 = (h3 ^ b3) * kFnvPrime;
      s0 += row[i];
      s1 += row[i + 1];
      s2 += row[i + 2];
      s3 += row[i + 3];
    }
    for (; i < end; ++i) {
      std::uint64_t b = 0;
      std::memcpy(&b, row + i, sizeof b);
      h0 = (h0 ^ b) * kFnvPrime;
      s0 += row[i];
    }
    const double row_sum = (s0 + s1) + (s2 + s3);
    d.mass += row_sum;
    d.momentum_x += c(q, 0) * row_sum;
    d.momentum_y += c(q, 1) * row_sum;
    d.momentum_z += c(q, 2) * row_sum;
  }
  d.hash = ((((h0 * kFnvPrime) ^ h1) * kFnvPrime ^ h2) * kFnvPrime ^ h3) *
           kFnvPrime;
  return d;
}

/// Prefetches points [begin, end) of every q-row of a live SoA array with
/// q-row stride `stride`, one 64-byte line per request.  A tile's rows are
/// kQ streams a stride apart, more than the hardware prefetcher follows at
/// once; a step that gathers from a tile not yet in cache reads it sooner
/// this way.
inline void prefetch_tile(const double* f, std::int64_t stride,
                          std::int64_t begin, std::int64_t end) {
  for (int q = 0; q < kQ; ++q) {
    const double* row =
        f + static_cast<std::size_t>(q) * static_cast<std::size_t>(stride);
    for (std::int64_t i = begin; i < end; i += 8) __builtin_prefetch(row + i);
  }
}

}  // namespace hemo::lbm
