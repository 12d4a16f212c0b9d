// Golden-state suite: pins the bits of the shared stream-collide kernel
// across commits.  The bit-equality suites compare two execution paths
// built from the same kernel source, so an edit that changes the kernel's
// arithmetic moves both sides and still passes them; these digests were
// recorded once and only change when the physics is meant to change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "geom/cylinder.hpp"
#include "lbm/solver.hpp"

namespace lbm = hemo::lbm;
namespace geom = hemo::geom;

namespace {

constexpr int kSteps = 40;

// Recorded before the direction loops were unrolled; the unrolled kernels
// reproduce them bit for bit.  Pull and AA share a digest: distributions()
// is the canonical state, bit-identical across patterns.
constexpr std::uint64_t kInletOutletDigest = 0x3e675062359f6d06ull;
constexpr std::uint64_t kPeriodicDigest = 0x8457d1d25424fbf5ull;

/// 64-bit FNV-1a over the bytes of the canonical distributions.
std::uint64_t fnv1a(const std::vector<double>& f) {
  std::uint64_t h = 14695981039346656037ull;
  for (const double v : f) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t digest_after_steps(geom::CylinderEnds ends,
                                 const lbm::SolverOptions& options) {
  geom::CylinderSpec spec;
  spec.scale = 0.5;
  lbm::Solver solver(geom::make_cylinder_lattice(spec, ends), options);
  solver.run(kSteps);
  return fnv1a(solver.distributions());
}

lbm::SolverOptions inlet_outlet_options(lbm::Propagation pattern) {
  lbm::SolverOptions o;
  o.tau = 0.8;
  o.inlet_velocity = 0.015;
  o.outlet_density = 1.0;
  o.propagation = pattern;
  return o;
}

}  // namespace

TEST(GoldenState, InletOutletCylinderPull) {
  EXPECT_EQ(digest_after_steps(geom::CylinderEnds::kInletOutlet,
                               inlet_outlet_options(lbm::Propagation::kPullSoA)),
            kInletOutletDigest);
}

TEST(GoldenState, InletOutletCylinderAA) {
  EXPECT_EQ(
      digest_after_steps(geom::CylinderEnds::kInletOutlet,
                         inlet_outlet_options(lbm::Propagation::kAAInPlace)),
      kInletOutletDigest);
}

TEST(GoldenState, PeriodicCylinderWithBodyForce) {
  lbm::SolverOptions o;
  o.tau = 0.9;
  o.body_force = {0.0, 0.0, 2e-6};
  EXPECT_EQ(digest_after_steps(geom::CylinderEnds::kPeriodic, o),
            kPeriodicDigest);
}
