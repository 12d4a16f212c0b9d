// Decomposition tests: exact covers, balance bounds for both strategies,
// halo-plan symmetry and volume properties — the quantities the paper's
// performance model consumes.

#include <gtest/gtest.h>

#include <numeric>

#include "decomp/partition.hpp"
#include "geom/aorta.hpp"
#include "geom/cylinder.hpp"

namespace decomp = hemo::decomp;
namespace geom = hemo::geom;
namespace lbm = hemo::lbm;

namespace {

std::shared_ptr<lbm::SparseLattice> test_cylinder() {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 6.0;
  spec.axial_per_scale = 48.0;
  return geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
}

std::shared_ptr<lbm::SparseLattice> test_aorta() {
  geom::AortaSpec spec;
  spec.spacing_mm = 2.2;
  return geom::make_aorta_lattice(spec);
}

}  // namespace

class PartitionRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionRankSweep, SlabIsAnExactCover) {
  auto lattice = test_cylinder();
  const int ranks = GetParam();
  const decomp::Partition p = decomp::slab_partition(*lattice, ranks);
  ASSERT_EQ(p.owner.size(), static_cast<std::size_t>(lattice->size()));
  const auto counts = p.rank_counts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}),
            lattice->size());
  for (std::int64_t c : counts) EXPECT_GT(c, 0);
}

TEST_P(PartitionRankSweep, SlabBalanceIsPerfectUpToOnePoint) {
  auto lattice = test_cylinder();
  const decomp::Partition p = decomp::slab_partition(*lattice, GetParam());
  const auto counts = p.rank_counts();
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LE(*hi - *lo, 1);
}

TEST_P(PartitionRankSweep, BisectionIsAnExactCover) {
  auto lattice = test_aorta();
  const decomp::Partition p =
      decomp::bisection_partition(*lattice, GetParam());
  const auto counts = p.rank_counts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}),
            lattice->size());
  for (std::int64_t c : counts) EXPECT_GT(c, 0);
}

TEST_P(PartitionRankSweep, BisectionBalanceIsTightOnTheAorta) {
  auto lattice = test_aorta();
  const decomp::Partition p =
      decomp::bisection_partition(*lattice, GetParam());
  // The median split balances counts exactly at each level; the only
  // imbalance comes from integer division across levels.
  EXPECT_LT(p.imbalance(), 1.05);
}

TEST_P(PartitionRankSweep, HaloPlanIsPairwiseSymmetric) {
  auto lattice = test_aorta();
  const decomp::Partition p =
      decomp::bisection_partition(*lattice, GetParam());
  const decomp::HaloPlan plan = decomp::build_halo_plan(*lattice, p);
  // The D3Q19 velocity set is symmetric: every crossing link (i <- j in
  // direction q) pairs with (j <- i in direction opposite(q)), so the
  // value count from a to b equals the count from b to a.
  for (const decomp::HaloMessage& m : plan.messages) {
    bool found = false;
    for (const decomp::HaloMessage& r : plan.messages) {
      if (r.src == m.dst && r.dst == m.src) {
        EXPECT_EQ(r.values, m.values)
            << "asymmetric halo " << m.src << "<->" << m.dst;
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, PartitionRankSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 25, 32));

TEST(Partition, SingleRankHasNoHalos) {
  auto lattice = test_cylinder();
  const decomp::Partition p = decomp::slab_partition(*lattice, 1);
  const decomp::HaloPlan plan = decomp::build_halo_plan(*lattice, p);
  EXPECT_TRUE(plan.messages.empty());
  EXPECT_EQ(plan.total_values(), 0);
}

TEST(Partition, SlabOnCylinderCutsAcrossZOnly) {
  // Each rank's slab must span a contiguous z range with no interleaving.
  auto lattice = test_cylinder();
  const decomp::Partition p = decomp::slab_partition(*lattice, 8);
  std::vector<std::int32_t> z_min(8, INT32_MAX), z_max(8, INT32_MIN);
  for (hemo::PointIndex i = 0; i < lattice->size(); ++i) {
    const hemo::Rank r = p.owner[static_cast<std::size_t>(i)];
    z_min[static_cast<std::size_t>(r)] =
        std::min(z_min[static_cast<std::size_t>(r)], lattice->coord(i).z);
    z_max[static_cast<std::size_t>(r)] =
        std::max(z_max[static_cast<std::size_t>(r)], lattice->coord(i).z);
  }
  for (int r = 0; r + 1 < 8; ++r)
    EXPECT_LE(z_max[static_cast<std::size_t>(r)],
              z_min[static_cast<std::size_t>(r + 1)] + 1);
}

TEST(Partition, SlabHaloTouchesOnlyAdjacentRanks) {
  auto lattice = test_cylinder();
  const decomp::Partition p = decomp::slab_partition(*lattice, 8);
  const decomp::HaloPlan plan = decomp::build_halo_plan(*lattice, p);
  for (const decomp::HaloMessage& m : plan.messages)
    EXPECT_LE(std::abs(m.src - m.dst), 1)
        << "slab decomposition must only exchange with neighbors";
}

TEST(Partition, MoreRanksMeansMoreTotalHaloVolume) {
  auto lattice = test_aorta();
  std::int64_t prev = 0;
  for (int ranks : {2, 4, 8, 16}) {
    const decomp::Partition p = decomp::bisection_partition(*lattice, ranks);
    const decomp::HaloPlan plan = decomp::build_halo_plan(*lattice, p);
    EXPECT_GT(plan.total_values(), prev) << ranks << " ranks";
    prev = plan.total_values();
  }
}

TEST(Partition, BisectionSurfaceScalesLikeVolumeTwoThirds) {
  // Per-rank halo volume should scale ~ (points per rank)^(2/3), the
  // relation the paper's Eq. 3 assumes.  Compare 8 vs 64 ranks on the
  // cylinder: per-rank volume drops 8x, per-rank surface should drop
  // roughly 4x (within generous tolerance for the elongated geometry).
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 10.0;
  spec.axial_per_scale = 60.0;
  auto lattice =
      geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);

  auto max_surface = [&](int ranks) {
    const decomp::Partition p = decomp::bisection_partition(*lattice, ranks);
    const decomp::HaloPlan plan = decomp::build_halo_plan(*lattice, p);
    return static_cast<double>(plan.max_rank_send_values(ranks));
  };
  const double s8 = max_surface(8);
  const double s64 = max_surface(64);
  EXPECT_GT(s8, 0.0);
  const double drop = s8 / s64;
  EXPECT_GT(drop, 1.5);
  EXPECT_LT(drop, 8.0);
}

TEST(Partition, DeterministicAcrossCalls) {
  auto lattice = test_aorta();
  const decomp::Partition a = decomp::bisection_partition(*lattice, 16);
  const decomp::Partition b = decomp::bisection_partition(*lattice, 16);
  EXPECT_EQ(a.owner, b.owner);
}

