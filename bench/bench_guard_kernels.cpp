// Google-benchmark microbenchmark of the guard kernel of a resilient
// DistributedSolver step, the work that rides on the stream-collide:
//
//   BM_AuditTile    one 256-point tile audit, in cache: the sentinel
//                   digest alone, the digest plus a per-point scalar
//                   velocity scan, and the digest plus
//                   resilience::max_speed2, the scan vectorized across
//                   points that audit_tile runs.
//   BM_VerifyState  the sentinel's verify read from memory: lbm::tile_digest
//                   over every 256-point tile of an aorta-sized 8-rank
//                   state, reported in bytes digested per second.
//   BM_Crc32        io::crc32 over a halo-sized payload (23,001 doubles,
//                   184 kB) in cache, the CRC frame a resilient exchange
//                   computes at send and at receive, in bytes per second.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "io/blob.hpp"
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

// The dist-resilient state: the synthetic aorta's 198,465 points over 8
// ranks, each rank's q-rows a stride of its owned points apart (about
// 30 MB); the ghost region after the rows is never digested.
constexpr std::int64_t kAortaPoints = 198465;
constexpr int kRanks = 8;
/// States cycled through, so each digest pass finds its state out of the
/// host's shared last-level cache (300 MiB on the reference host).
constexpr int kStates = 12;

void BM_VerifyState(benchmark::State& state) {
  const std::int64_t owned = kAortaPoints / kRanks;
  const std::size_t values = static_cast<std::size_t>(lbm::kQ) *
                             static_cast<std::size_t>(owned);
  // kStates x kRanks rank arrays, each filled like the in-cache tile.
  const std::vector<double> tile = tile_state();
  std::vector<std::vector<double>> ranks(
      static_cast<std::size_t>(kStates * kRanks), std::vector<double>(values));
  for (std::vector<double>& f : ranks)
    for (std::size_t k = 0; k < values; ++k) f[k] = tile[k % tile.size()];

  std::size_t at = 0;
  for (auto _ : state) {
    for (int r = 0; r < kRanks; ++r) {
      const double* f = ranks[at + static_cast<std::size_t>(r)].data();
      for (std::int64_t begin = 0; begin < owned; begin += kTile) {
        const lbm::TileDigest d = lbm::tile_digest(
            f, owned, begin, std::min(begin + kTile, owned));
        benchmark::DoNotOptimize(d);
      }
    }
    at = (at + kRanks) % ranks.size();
  }
  state.SetBytesProcessed(state.iterations() * kRanks * lbm::kQ * owned *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_VerifyState)->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state) {
  std::vector<double> payload(23001);
  for (std::size_t k = 0; k < payload.size(); ++k)
    payload[k] = lbm::kWeights[k % lbm::kQ] * (1.0 + 1.0e-3 * (k % 97));
  const std::size_t bytes = payload.size() * sizeof(double);
  for (auto _ : state) {
    const std::uint32_t crc = io::crc32(payload.data(), bytes);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
