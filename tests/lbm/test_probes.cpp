// Flow-probe, dimensionless-number and checkpoint tests.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "geom/cylinder.hpp"
#include "lbm/probes.hpp"
#include "lbm/propagation.hpp"
#include "resilience/policy.hpp"

namespace lbm = hemo::lbm;
namespace geom = hemo::geom;

namespace {

std::shared_ptr<lbm::SparseLattice> channel() {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 5.0;
  spec.axial_per_scale = 24.0;
  return geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
}

lbm::SolverOptions driven_options() {
  lbm::SolverOptions o;
  o.tau = 0.9;
  o.inlet_velocity = 0.012;
  o.outlet_density = 1.0;
  return o;
}

}  // namespace

TEST(Probes, MassFluxIsConservedAlongTheChannelAtSteadyState) {
  lbm::Solver solver(channel(), driven_options());
  solver.run(4000);
  const double upstream = lbm::slice_mass_flux(solver, 4);
  const double mid = lbm::slice_mass_flux(solver, 12);
  const double downstream = lbm::slice_mass_flux(solver, 20);
  ASSERT_GT(upstream, 0.0);
  EXPECT_NEAR(mid / upstream, 1.0, 0.02);
  EXPECT_NEAR(downstream / upstream, 1.0, 0.02);
}

TEST(Probes, PressureDropsDownstream) {
  lbm::Solver solver(channel(), driven_options());
  solver.run(3000);
  // Driving a viscous channel needs a positive pressure gradient.
  EXPECT_GT(lbm::pressure_drop(solver, 3, 20), 0.0);
  // And it is monotone along the channel.
  EXPECT_GT(lbm::slice_mean_density(solver, 3),
            lbm::slice_mean_density(solver, 12));
  EXPECT_GT(lbm::slice_mean_density(solver, 12),
            lbm::slice_mean_density(solver, 20));
}

TEST(Probes, ProbingAnEmptySliceAborts) {
  lbm::Solver solver(channel(), driven_options());
  EXPECT_DEATH((void)lbm::slice_mass_flux(solver, 999), "Precondition");
}

// Body-force-driven periodic cylinder: the closed system whose invariants
// calibrate the resilience mass-drift guard (RS002).  Collisions and
// bounce-back conserve mass exactly up to rounding, so total mass must
// stay within the guard's own accumulated-rounding tolerance; the body
// force injects exactly one impulse per bulk point per step into the axial
// momentum, and none transversally.
TEST(Probes, MassAndMomentumConservationUnderBodyForce) {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 5.0;
  spec.axial_per_scale = 16.0;
  auto lattice =
      geom::make_cylinder_lattice(spec, geom::CylinderEnds::kPeriodic);

  lbm::SolverOptions o;
  o.tau = 0.8;
  o.body_force = {0.0, 0.0, 1e-6};
  lbm::Solver solver(lattice, o);
  const auto n = static_cast<double>(solver.size());

  const double m0 = solver.total_mass();
  const hemo::Vec3 p0 = lbm::total_momentum(solver);
  // At rest the only momentum is the Guo half-force correction.
  EXPECT_NEAR(p0.z, 0.5 * n * o.body_force.z, 1e-12 * n);

  solver.step();
  const hemo::Vec3 p1 = lbm::total_momentum(solver);
  // One step adds close to one impulse per point; bounce-back at the wall
  // absorbs a little of it from the boundary layer.
  EXPECT_NEAR((p1.z - p0.z) / (n * o.body_force.z), 1.0, 0.25);

  const int steps = 200;
  solver.run(steps - 1);
  const double drift = std::abs(solver.total_mass() - m0);
  const double tol = hemo::resilience::conserved_mass_tolerance(
      lbm::kQ * solver.size(), steps);
  EXPECT_LE(drift, tol) << "drift " << drift << " vs tolerance " << tol;

  const hemo::Vec3 p = lbm::total_momentum(solver);
  EXPECT_GT(p.z, p1.z);                    // the force keeps driving
  EXPECT_NEAR(p.x, 0.0, 1e-9 * n);         // no transverse forcing
  EXPECT_NEAR(p.y, 0.0, 1e-9 * n);
}

TEST(Dimensionless, ReynoldsNumberDefinition) {
  EXPECT_DOUBLE_EQ(lbm::reynolds_number(0.01, 100.0, 0.1), 10.0);
}

TEST(Dimensionless, WomersleyScalesWithRadiusAndRate) {
  const double nu = lbm::viscosity_of_tau(1.0);
  const double a1 = lbm::womersley_number(10.0, 1000.0, nu);
  EXPECT_DOUBLE_EQ(lbm::womersley_number(20.0, 1000.0, nu), 2.0 * a1);
  // Quadrupling the period halves alpha.
  EXPECT_NEAR(lbm::womersley_number(10.0, 4000.0, nu), a1 / 2.0, 1e-12);
}

TEST(Checkpoint, RestartContinuesBitwiseIdentically) {
  const std::string path =
      std::string(::testing::TempDir()) + "hemoflow_ckpt.bin";

  lbm::Solver original(channel(), driven_options());
  original.run(37);
  original.save_checkpoint(path);
  original.run(25);

  lbm::Solver restarted(channel(), driven_options());
  restarted.restore_checkpoint(path);
  EXPECT_EQ(restarted.step_count(), 37);
  restarted.run(25);

  const auto& fa = original.distributions();
  const auto& fb = restarted.distributions();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t k = 0; k < fa.size(); ++k) ASSERT_EQ(fa[k], fb[k]);
  std::remove(path.c_str());
}

TEST(Checkpoint, MismatchedLatticeIsRejected) {
  const std::string path =
      std::string(::testing::TempDir()) + "hemoflow_ckpt_mismatch.bin";
  lbm::Solver solver(channel(), driven_options());
  solver.save_checkpoint(path);

  geom::CylinderSpec other;
  other.scale = 0.5;
  auto small = geom::make_cylinder_lattice(other,
                                           geom::CylinderEnds::kInletOutlet);
  lbm::Solver wrong(small, driven_options());
  EXPECT_THROW(wrong.restore_checkpoint(path), lbm::CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptFileIsRejected) {
  const std::string path =
      std::string(::testing::TempDir()) + "hemoflow_ckpt_bad.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  lbm::Solver solver(channel(), driven_options());
  EXPECT_THROW(solver.restore_checkpoint(path), lbm::CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, FlippedPayloadByteIsRejected) {
  const std::string path =
      std::string(::testing::TempDir()) + "hemoflow_ckpt_flipped.bin";
  for (const lbm::Propagation pattern :
       {lbm::Propagation::kPullSoA, lbm::Propagation::kAAInPlace}) {
    lbm::SolverOptions options = driven_options();
    options.propagation = pattern;
    lbm::Solver solver(channel(), options);
    solver.run(5);
    solver.save_checkpoint(path);
    solver.run(2);

    // One flipped bit in the middle of the distribution payload: the file
    // stays structurally valid, so only a checksum can tell.
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 1024u);
    bytes[bytes.size() / 2] ^= 0x10;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    // The rows before the flipped one were staged before the CRC tripped;
    // under AA they landed in the canonical cache, which must not show.
    const double mass_before = solver.total_mass();
    const std::vector<double> before = solver.distributions();
    EXPECT_THROW(solver.restore_checkpoint(path), lbm::CheckpointError)
        << lbm::propagation_name(pattern);
    EXPECT_EQ(solver.step_count(), 7);
    EXPECT_EQ(solver.total_mass(), mass_before);
    EXPECT_EQ(solver.distributions(), before)
        << lbm::propagation_name(pattern);
  }
  std::remove(path.c_str());
}
