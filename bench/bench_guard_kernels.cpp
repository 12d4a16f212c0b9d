// Google-benchmark microbenchmark of the guard kernel of a resilient
// DistributedSolver step, the work that rides on the stream-collide:
//
//   BM_AuditTile  one 256-point tile audit, in cache: the sentinel digest
//                 alone, the digest plus a per-point scalar velocity scan,
//                 and the digest plus resilience::max_speed2, the scan
//                 vectorized across points that audit_tile runs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lbm/d3q19.hpp"
#include "lbm/kernels.hpp"
#include "lbm/tile_probe.hpp"
#include "resilience/policy.hpp"
#include "resilience/sentinel.hpp"

namespace {

using namespace hemo;

constexpr std::int64_t kTile = 256;

/// One tile of a near-equilibrium state with a little flow in it.
std::vector<double> tile_state() {
  std::vector<double> f(static_cast<std::size_t>(lbm::kQ) * kTile);
  for (int q = 0; q < lbm::kQ; ++q)
    for (std::int64_t i = 0; i < kTile; ++i)
      f[static_cast<std::size_t>(q) * kTile + static_cast<std::size_t>(i)] =
          lbm::kWeights[q] * (1.0 + 0.01 * lbm::c(q, 2)) +
          1.0e-6 * static_cast<double>((i * 7 + q * 13) % 101);
  return f;
}

/// The velocity scan one point at a time, kept scalar.
[[gnu::noinline, gnu::optimize("no-tree-vectorize")]] double scalar_scan(
    const double* f) {
  double largest = 0.0;
  for (std::int64_t i = 0; i < kTile; ++i) {
    double fi[lbm::kQ];
    for (int q = 0; q < lbm::kQ; ++q)
      fi[q] = f[static_cast<std::size_t>(q) * kTile +
                static_cast<std::size_t>(i)];
    const lbm::Moments m = lbm::moments_of(fi, 0.0, 0.0, 0.0);
    largest = std::max(largest, m.ux * m.ux + m.uy * m.uy + m.uz * m.uz);
  }
  return largest;
}

enum AuditVariant { kDigest, kScalarScan, kSimdScan };

void BM_AuditTile(benchmark::State& state) {
  const auto variant = static_cast<AuditVariant>(state.range(0));
  const char* labels[] = {"digest only", "digest + scalar scan",
                          "digest + SIMD scan"};
  state.SetLabel(labels[variant]);
  const std::vector<double> f = tile_state();
  std::int64_t end = kTile;  // opaque, as a solver's tile bounds are
  benchmark::DoNotOptimize(end);
  for (auto _ : state) {
    const lbm::TileDigest d = lbm::tile_digest(f.data(), kTile, 0, end);
    benchmark::DoNotOptimize(d);
    if (variant == kScalarScan) {
      benchmark::DoNotOptimize(scalar_scan(f.data()));
    } else if (variant == kSimdScan) {
      benchmark::DoNotOptimize(
          resilience::max_speed2(f.data(), kTile, 0, end, 0.0, 0.0, 0.0));
    }
  }
  state.SetItemsProcessed(state.iterations() * kTile);
}
BENCHMARK(BM_AuditTile)->DenseRange(kDigest, kSimdScan);

}  // namespace

BENCHMARK_MAIN();
