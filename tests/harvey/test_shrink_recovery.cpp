// Elastic shrink-recovery: a permanently killed rank is escalated from
// "transient" to "dead" by the deadline failure detector, the domain is
// re-bisected over the survivors, the last checkpointed state is
// redistributed, and the run finishes bit-identical to an unfaulted run —
// at any kill step (first, mid-run, last), for multiple sequential kills,
// and deterministically across reruns.  A shrink below min_survivors is a
// structured SolverFault, not a hang.  The global -> local lookups (moments
// of a point, the target of a bit flip) follow the rebuilt decomposition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "decomp/partition.hpp"
#include "geom/cylinder.hpp"
#include "harvey/distributed_solver.hpp"
#include "lbm/kernels.hpp"
#include "resilience/fault.hpp"
#include "resilience/faulty_network.hpp"
#include "resilience/policy.hpp"

namespace analysis = hemo::analysis;
namespace decomp = hemo::decomp;
namespace geom = hemo::geom;
namespace lbm = hemo::lbm;
namespace resilience = hemo::resilience;
using hemo::Rank;
using hemo::harvey::DistributedSolver;

namespace {

constexpr int kRanks = 8;
constexpr int kSteps = 24;

std::shared_ptr<lbm::SparseLattice> small_cylinder() {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 16.0;
  return geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
}

lbm::SolverOptions flow_options() {
  lbm::SolverOptions o;
  o.tau = 0.9;
  o.inlet_velocity = 0.01;
  o.outlet_density = 1.0;
  return o;
}

resilience::Options shrink_options(int min_survivors = 1) {
  resilience::Options o;
  o.shrink.enabled = true;
  o.shrink.min_survivors = min_survivors;
  return o;
}

struct KilledRun {
  std::vector<double> state;
  double mass = 0.0;
  resilience::RunStats stats;
  int survivors = 0;
  std::vector<char> alive;
  std::vector<analysis::Diagnostic> validate;
};

/// One full run with the given kill schedule {(rank, step), ...}.
KilledRun killed_run(const std::vector<std::pair<Rank, std::int64_t>>& kills,
                     int ranks = kRanks, int steps = kSteps,
                     int min_survivors = 1) {
  auto lattice = small_cylinder();
  DistributedSolver solver(
      lattice, decomp::bisection_partition(*lattice, ranks), flow_options());
  resilience::FaultPlan plan;
  for (const auto& [rank, step] : kills) plan.kill_rank(rank, step);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(ranks, plan));
  solver.enable_resilience(shrink_options(min_survivors));
  solver.run(steps);

  KilledRun out;
  out.state = solver.global_distributions();
  out.mass = solver.total_mass();
  out.stats = solver.resilience_stats();
  out.survivors = solver.survivor_count();
  for (Rank r = 0; r < ranks; ++r) out.alive.push_back(solver.rank_alive(r));
  out.validate = solver.validate();
  return out;
}

std::vector<double> clean_run(int ranks = kRanks, int steps = kSteps) {
  auto lattice = small_cylinder();
  DistributedSolver solver(
      lattice, decomp::bisection_partition(*lattice, ranks), flow_options());
  solver.run(steps);
  return solver.global_distributions();
}

double clean_mass(int ranks = kRanks, int steps = kSteps) {
  auto lattice = small_cylinder();
  DistributedSolver solver(
      lattice, decomp::bisection_partition(*lattice, ranks), flow_options());
  solver.run(steps);
  return solver.total_mass();
}

int count_rule(const std::vector<analysis::Diagnostic>& ds,
               const char* rule) {
  int n = 0;
  for (const analysis::Diagnostic& d : ds) n += (d.rule_id == rule);
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// The acceptance property: kill any rank at any step; the run recovers on
// the survivors and ends bit-identical to the unfaulted run.

class KillStepSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(KillStepSweep, KilledRankIsShrunkAroundBitIdentically) {
  const std::vector<double> reference = clean_run();
  const KilledRun run = killed_run({{5, GetParam()}});

  EXPECT_EQ(run.stats.rank_deaths, 1);
  EXPECT_EQ(run.stats.shrinks, 1);
  ASSERT_EQ(run.stats.dead_ranks, std::vector<Rank>{5});
  EXPECT_GE(run.stats.last_recovery_step, 0);
  EXPECT_LE(run.stats.last_recovery_step, GetParam());
  EXPECT_EQ(run.survivors, kRanks - 1);
  EXPECT_EQ(run.alive[5], 0);

  // Distributions are the bit-identity witness; total mass is a float
  // reduction whose summation order legitimately changes with the
  // decomposition, so it is compared within the RS002-style tolerance.
  ASSERT_EQ(run.state.size(), reference.size());
  EXPECT_EQ(run.state, reference) << "kill step " << GetParam();
  EXPECT_NEAR(run.mass, clean_mass(), 1e-9 * std::abs(clean_mass()));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, KillStepSweep,
                         ::testing::Values<std::int64_t>(0, 10, kSteps - 1));

TEST(ShrinkRecovery, RecoveryIsDeterministicAcrossReruns) {
  const KilledRun a = killed_run({{3, 7}});
  const KilledRun b = killed_run({{3, 7}});
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.mass, b.mass);  // same decomposition -> same summation order
  EXPECT_EQ(a.stats.last_recovery_step, b.stats.last_recovery_step);
  EXPECT_EQ(a.stats.rollbacks, b.stats.rollbacks);
}

TEST(ShrinkRecovery, TwoSequentialDeathsShrinkTwice) {
  const std::vector<double> reference = clean_run();
  const KilledRun run = killed_run({{2, 6}, {6, 16}});

  EXPECT_EQ(run.stats.rank_deaths, 2);
  EXPECT_EQ(run.stats.shrinks, 2);
  ASSERT_EQ(run.stats.dead_ranks, (std::vector<Rank>{2, 6}));
  EXPECT_EQ(run.survivors, kRanks - 2);
  EXPECT_EQ(run.alive[2], 0);
  EXPECT_EQ(run.alive[6], 0);
  EXPECT_EQ(run.state, reference);
}

TEST(ShrinkRecovery, ShrinkRecordsAnRS005Diagnostic) {
  const KilledRun run = killed_run({{5, 10}});
  EXPECT_GE(count_rule(run.stats.diagnostics, "RS005"), 1);
  bool names_rank = false;
  for (const analysis::Diagnostic& d : run.stats.diagnostics)
    if (d.rule_id == "RS005" &&
        d.message.find("rank 5") != std::string::npos)
      names_rank = true;
  EXPECT_TRUE(names_rank) << "RS005 should name the dead rank";
}

TEST(ShrinkRecovery, PostShrinkStateValidatesWithoutErrors) {
  // In-vivo LC011 negative: after the shrink rebuilt the exchanges, the
  // live halo plan must not route traffic through the dead rank.  The
  // starved-rank LC007 *warning* is expected — the dead rank owns zero
  // points by design — but no error-severity diagnostic may remain.
  const KilledRun run = killed_run({{5, 10}});
  EXPECT_EQ(analysis::count_at(run.validate, analysis::Severity::kError), 0);
  EXPECT_EQ(count_rule(run.validate, "LC011"), 0);
}

TEST(ShrinkRecovery, RefusesToShrinkBelowMinSurvivors) {
  auto lattice = small_cylinder();
  DistributedSolver solver(
      lattice, decomp::bisection_partition(*lattice, 4), flow_options());
  resilience::FaultPlan plan;
  plan.kill_rank(1, 8);
  solver.set_network(std::make_unique<resilience::FaultyNetwork>(4, plan));
  solver.enable_resilience(shrink_options(/*min_survivors=*/4));
  EXPECT_THROW(solver.run(16), resilience::SolverFault);
}

TEST(ShrinkRecovery, ShrinkDisabledFallsBackToStructuredFault) {
  auto lattice = small_cylinder();
  DistributedSolver solver(
      lattice, decomp::bisection_partition(*lattice, 4), flow_options());
  resilience::FaultPlan plan;
  plan.kill_rank(2, 5);
  solver.set_network(std::make_unique<resilience::FaultyNetwork>(4, plan));
  solver.enable_resilience(resilience::Options{});  // shrink.enabled = false
  EXPECT_THROW(solver.run(16), resilience::SolverFault);
}

TEST(ShrinkRecovery, SurvivorCountIsFullWithoutDeaths) {
  auto lattice = small_cylinder();
  DistributedSolver solver(
      lattice, decomp::bisection_partition(*lattice, kRanks), flow_options());
  solver.enable_resilience(shrink_options());
  solver.run(4);
  EXPECT_EQ(solver.survivor_count(), kRanks);
  for (Rank r = 0; r < kRanks; ++r) EXPECT_TRUE(solver.rank_alive(r));
}

TEST(ShrinkRecovery, LookupsFollowTheRebuiltDecomposition) {
  // A shrink rebuilds every global -> local table.  After it, the moments
  // of each point and a bit flip's target must resolve through the new
  // decomposition, not the one the dead rank took part in.
  constexpr int kSlabRanks = 4;
  constexpr Rank kDead = 2;
  auto lattice = small_cylinder();
  const decomp::Partition slabs = decomp::slab_partition(*lattice, kSlabRanks);
  DistributedSolver solver(lattice, slabs, flow_options());
  resilience::FaultPlan kill;
  kill.kill_rank(kDead, 5);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kSlabRanks, kill));
  resilience::FaultPlan flips;
  solver.set_fault_injection(&flips);
  resilience::Options options = shrink_options();
  options.sentinel.enabled = true;
  options.sentinel.tile_points = 64;
  solver.enable_resilience(options);
  while (solver.resilience_stats().shrinks == 0 &&
         solver.step_count() < kSteps)
    solver.run(1);
  ASSERT_EQ(solver.resilience_stats().shrinks, 1);

  const std::vector<double> f = solver.global_distributions();
  for (hemo::PointIndex g = 0; g < lattice->size(); ++g) {
    const lbm::Moments got = solver.global_moments(g);
    const lbm::Moments want = lbm::moments_at(f.data(), lattice->size(), g,
                                              flow_options().body_force);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "point " << g;
  }

  // The last point of the dead rank's slab now lives on a survivor.
  hemo::PointIndex point = 0;
  for (hemo::PointIndex g = 0; g < lattice->size(); ++g)
    if (slabs.owner[static_cast<std::size_t>(g)] == kDead) point = g;
  const Rank owner = solver.partition().owner[static_cast<std::size_t>(point)];
  ASSERT_NE(owner, kDead);
  resilience::FaultEvent flip;
  flip.kind = resilience::FaultKind::kBitFlip;
  flip.step = solver.step_count() + 1;
  flip.flip_point = point;
  flip.flip_q = 5;
  flip.flip_bit = 44;
  flips.add(flip);
  solver.run(kSteps - static_cast<int>(solver.step_count()));

  const resilience::FaultEvent& fired = flips.events().front();
  EXPECT_TRUE(fired.fired);
  EXPECT_EQ(fired.fired_rank, owner);
  const resilience::RunStats& stats = solver.resilience_stats();
  ASSERT_EQ(stats.sdc_detections.size(), 1u);
  EXPECT_EQ(stats.sdc_detections.front().rank, owner);
  EXPECT_EQ(stats.sdc_detections.front().tile, fired.fired_tile);
  EXPECT_EQ(stats.sdc_false_positive, 0);
  EXPECT_EQ(solver.global_distributions(), clean_run(kSlabRanks));
}
