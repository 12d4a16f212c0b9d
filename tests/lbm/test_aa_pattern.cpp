// Cross-pattern equivalence suite: the AA in-place propagation must be
// bit-identical to the pull-SoA reference at every step count (both
// parities), on every example geometry and boundary mix, through every
// observer, and across checkpoint save/restore — including restores that
// land on an odd AA step and restores across patterns.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "geom/aorta.hpp"
#include "geom/cylinder.hpp"
#include "lbm/aa_layout.hpp"
#include "lbm/checkpoint.hpp"
#include "lbm/propagation.hpp"
#include "lbm/solver.hpp"

namespace lbm = hemo::lbm;
namespace geom = hemo::geom;

namespace {

std::shared_ptr<lbm::SparseLattice> cylinder(geom::CylinderEnds ends) {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 12.0;
  return geom::make_cylinder_lattice(spec, ends);
}

std::shared_ptr<lbm::SparseLattice> small_aorta() {
  geom::AortaSpec spec;
  spec.spacing_mm = 2.6;  // a few thousand points: fast but multi-outlet
  return geom::make_aorta_lattice(spec);
}

lbm::SolverOptions driven_options(lbm::Propagation pattern) {
  lbm::SolverOptions o;
  o.tau = 0.8;
  o.inlet_velocity = 0.015;
  o.outlet_density = 1.0;
  o.body_force = {0.0, 0.0, 1e-6};
  o.propagation = pattern;
  return o;
}

void expect_bitwise_equal(const lbm::Solver& a, const lbm::Solver& b) {
  const auto& fa = a.distributions();
  const auto& fb = b.distributions();
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t k = 0; k < fa.size(); ++k)
    ASSERT_EQ(fa[k], fb[k]) << "slot " << k << " after " << a.step_count()
                            << " steps";
}

void expect_lockstep_equal(std::shared_ptr<lbm::SparseLattice> lattice,
                           lbm::SolverOptions pull_options, int steps) {
  lbm::SolverOptions aa_options = pull_options;
  pull_options.propagation = lbm::Propagation::kPullSoA;
  aa_options.propagation = lbm::Propagation::kAAInPlace;
  lbm::Solver pull(lattice, pull_options);
  lbm::Solver aa(lattice, aa_options);
  expect_bitwise_equal(pull, aa);  // step 0: identical initial snapshot
  for (int s = 1; s <= steps; ++s) {
    pull.step();
    aa.step();
    expect_bitwise_equal(pull, aa);  // every parity along the way
  }
}

}  // namespace

TEST(AAPattern, MatchesPullBitwiseAtEveryParityOnInletOutletCylinder) {
  expect_lockstep_equal(cylinder(geom::CylinderEnds::kInletOutlet),
                        driven_options(lbm::Propagation::kPullSoA), 9);
}

TEST(AAPattern, MatchesPullBitwiseOnPeriodicCylinderWithBodyForce) {
  lbm::SolverOptions o;
  o.tau = 0.9;
  o.body_force = {0.0, 0.0, 2e-6};
  expect_lockstep_equal(cylinder(geom::CylinderEnds::kPeriodic), o, 8);
}

TEST(AAPattern, MatchesPullBitwiseOnAortaGeometry) {
  expect_lockstep_equal(small_aorta(),
                        driven_options(lbm::Propagation::kPullSoA), 7);
}

TEST(AAPattern, ObserversAgreeAfterOddStepCount) {
  auto lattice = cylinder(geom::CylinderEnds::kInletOutlet);
  lbm::Solver pull(lattice, driven_options(lbm::Propagation::kPullSoA));
  lbm::Solver aa(lattice, driven_options(lbm::Propagation::kAAInPlace));
  pull.run(7);
  aa.run(7);
  EXPECT_EQ(pull.total_mass(), aa.total_mass());
  EXPECT_EQ(pull.max_speed(), aa.max_speed());
  for (hemo::PointIndex i : {hemo::PointIndex{0}, lattice->size() / 2,
                             lattice->size() - 1}) {
    const lbm::Moments mp = pull.moments(i);
    const lbm::Moments ma = aa.moments(i);
    EXPECT_EQ(mp.rho, ma.rho);
    EXPECT_EQ(mp.uz, ma.uz);
    const auto sp = pull.stress(i);
    const auto sa = aa.stress(i);
    for (int k = 0; k < 6; ++k) EXPECT_EQ(sp[k], sa[k]);
  }
}

TEST(AAPattern, CanonicalizeRoundTripsAtBothParities) {
  auto lattice = cylinder(geom::CylinderEnds::kInletOutlet);
  const auto* adjacency = lattice->adjacency().data();
  const std::int64_t n = lattice->size();
  lbm::Solver aa(lattice, driven_options(lbm::Propagation::kAAInPlace));
  for (int steps : {4, 7}) {  // even and odd parity
    lbm::Solver fresh(lattice, driven_options(lbm::Propagation::kAAInPlace));
    fresh.run(steps);
    const auto& canonical = fresh.distributions();
    std::vector<double> as_aa(canonical.size());
    std::vector<double> back(canonical.size());
    lbm::aa_decanonicalize(adjacency, n, steps, canonical.data(),
                           as_aa.data());
    lbm::aa_canonicalize(adjacency, n, steps, as_aa.data(), back.data());
    for (std::size_t k = 0; k < canonical.size(); ++k)
      ASSERT_EQ(back[k], canonical[k]);
  }
}

TEST(AAPattern, CheckpointOnOddStepRestoresBitwiseIntoBothPatterns) {
  const std::string path =
      std::string(::testing::TempDir()) + "hemoflow_aa_ckpt.bin";
  auto lattice = cylinder(geom::CylinderEnds::kInletOutlet);

  lbm::Solver original(lattice, driven_options(lbm::Propagation::kAAInPlace));
  original.run(7);  // odd AA step: the in-place array is mid-cycle
  original.save_checkpoint(path);
  original.run(6);

  // Checkpoints store the canonical snapshot, so the same file restores
  // into either propagation pattern and both continue bit-identically.
  for (lbm::Propagation pattern :
       {lbm::Propagation::kAAInPlace, lbm::Propagation::kPullSoA}) {
    lbm::Solver restarted(lattice, driven_options(pattern));
    restarted.restore_checkpoint(path);
    EXPECT_EQ(restarted.step_count(), 7);
    restarted.run(6);
    expect_bitwise_equal(original, restarted);
  }
  std::remove(path.c_str());
}

TEST(AAPattern, PullCheckpointRestoresIntoAASolver) {
  const std::string path =
      std::string(::testing::TempDir()) + "hemoflow_pull_to_aa.bin";
  auto lattice = small_aorta();
  lbm::Solver pull(lattice, driven_options(lbm::Propagation::kPullSoA));
  pull.run(5);
  pull.save_checkpoint(path);
  pull.run(4);

  lbm::Solver aa(lattice, driven_options(lbm::Propagation::kAAInPlace));
  aa.restore_checkpoint(path);
  aa.run(4);
  expect_bitwise_equal(pull, aa);
  std::remove(path.c_str());
}

TEST(Checkpoint, SaveLeavesNoTempFileBehind) {
  const std::string path =
      std::string(::testing::TempDir()) + "hemoflow_atomic_ckpt.bin";
  lbm::Solver solver(cylinder(geom::CylinderEnds::kInletOutlet),
                     driven_options(lbm::Propagation::kPullSoA));
  solver.save_checkpoint(path);
  std::ifstream live(path, std::ios::binary);
  EXPECT_TRUE(live.good());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedPayloadThrowsTypedError) {
  const std::string path =
      std::string(::testing::TempDir()) + "hemoflow_truncated_ckpt.bin";
  for (const lbm::Propagation pattern :
       {lbm::Propagation::kPullSoA, lbm::Propagation::kAAInPlace}) {
    lbm::Solver solver(cylinder(geom::CylinderEnds::kInletOutlet),
                       driven_options(pattern));
    solver.run(3);
    solver.save_checkpoint(path);
    solver.run(2);  // the rows staged before the failure must not show

    // Chop off the last kilobyte of the payload.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 1024u);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 1024));
    out.close();

    const double mass_before = solver.total_mass();
    const std::vector<double> before = solver.distributions();
    EXPECT_THROW(solver.restore_checkpoint(path), lbm::CheckpointError);
    // A failed restore must leave the solver untouched.
    EXPECT_EQ(solver.total_mass(), mass_before);
    EXPECT_EQ(solver.step_count(), 5);
    EXPECT_EQ(solver.distributions(), before)
        << lbm::propagation_name(pattern);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RefusesOtherVersions) {
  // Every version has its own layout, so the reader refuses an older file
  // as firmly as a newer one, and names the version it found.
  const std::string path =
      std::string(::testing::TempDir()) + "hemoflow_version_ckpt.bin";
  lbm::Solver solver(cylinder(geom::CylinderEnds::kInletOutlet),
                     driven_options(lbm::Propagation::kPullSoA));
  solver.run(2);
  for (const std::uint32_t version :
       {lbm::kCheckpointVersion - 1, lbm::kCheckpointVersion + 1}) {
    solver.save_checkpoint(path);
    {
      // The header is the u64 magic, then the u32 version.
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.is_open());
      f.seekp(sizeof lbm::kCheckpointMagic);
      f.write(reinterpret_cast<const char*>(&version), sizeof version);
    }
    try {
      solver.restore_checkpoint(path);
      ADD_FAILURE() << "version " << version << " was restored";
    } catch (const lbm::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(solver.step_count(), 2);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, TrailingGarbageThrowsTypedError) {
  const std::string path =
      std::string(::testing::TempDir()) + "hemoflow_trailing_ckpt.bin";
  lbm::Solver solver(cylinder(geom::CylinderEnds::kInletOutlet),
                     driven_options(lbm::Propagation::kPullSoA));
  solver.save_checkpoint(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "junk appended after the payload";
  }
  EXPECT_THROW(solver.restore_checkpoint(path), lbm::CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedHeaderThrowsTypedError) {
  const std::string path =
      std::string(::testing::TempDir()) + "hemoflow_short_header.bin";
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t magic = 0x48454D4F464C4F57ull;
    out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
    // File ends before the point-count field.
  }
  lbm::Solver solver(cylinder(geom::CylinderEnds::kInletOutlet),
                     driven_options(lbm::Propagation::kPullSoA));
  EXPECT_THROW(solver.restore_checkpoint(path), lbm::CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrowsTypedError) {
  lbm::Solver solver(cylinder(geom::CylinderEnds::kInletOutlet),
                     driven_options(lbm::Propagation::kPullSoA));
  EXPECT_THROW(solver.restore_checkpoint("no_such_checkpoint_file.bin"),
               lbm::CheckpointError);
}
