// Resilience tests for the distributed solver: chaos runs under every
// fault kind must end bit-identical to an uninjected run, on-disk
// checkpoint round-trips must be bit-identical across rank counts, the
// health guards must catch corruption that slips past the CRC frames, and
// exhausted recovery budgets must surface as a structured SolverFault.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "decomp/partition.hpp"
#include "geom/cylinder.hpp"
#include "hal/device.hpp"
#include "hal/model.hpp"
#include "harvey/distributed_solver.hpp"
#include "io/blob.hpp"
#include "lbm/checkpoint.hpp"
#include "lbm/propagation.hpp"
#include "lbm/solver.hpp"
#include "resilience/fault.hpp"
#include "resilience/faulty_network.hpp"
#include "resilience/policy.hpp"
#include "solver_peer.hpp"

namespace decomp = hemo::decomp;
namespace geom = hemo::geom;
namespace lbm = hemo::lbm;
namespace resilience = hemo::resilience;
using hemo::harvey::DistributedSolver;

namespace {

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

std::vector<double> clean_run(int ranks, int steps) {
  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, ranks),
                           flow_options());
  solver.run(steps);
  return solver.global_distributions();
}

/// One kBitFlip event: bit `bit` of direction q of global point `point`,
/// flipped at the start of step `step`.
resilience::FaultEvent bit_flip(hemo::PointIndex point, int q, int bit,
                                std::int64_t step) {
  resilience::FaultEvent e;
  e.kind = resilience::FaultKind::kBitFlip;
  e.step = step;
  e.flip_point = point;
  e.flip_q = q;
  e.flip_bit = bit;
  return e;
}

/// kBitFlip events at `step` that set every zero exponent bit of direction
/// q of global point `point`, read from the clean state at that step:
/// together they turn the live slot into Inf/NaN in place.
std::vector<resilience::FaultEvent> saturate_exponent(
    const std::vector<double>& clean_state, hemo::PointIndex n,
    hemo::PointIndex point, int q, std::int64_t step) {
  std::uint64_t bits = 0;
  std::memcpy(&bits,
              &clean_state[static_cast<std::size_t>(q) *
                               static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(point)],
              sizeof bits);
  std::vector<resilience::FaultEvent> flips;
  for (int bit = 52; bit < 63; ++bit)
    if (((bits >> bit) & 1ull) == 0)
      flips.push_back(bit_flip(point, q, bit, step));
  return flips;
}

bool has_rule(const std::vector<hemo::analysis::Diagnostic>& diags,
              const std::string& rule) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const auto& d) { return d.rule_id == rule; });
}

/// Removes `path` when the test scope ends, pass or fail.
struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Chaos recovery: the acceptance property.  Every fault kind, injected into
// a 4-rank cylinder, is recovered and the final state is bit-identical.

class ChaosKindSweep
    : public ::testing::TestWithParam<resilience::FaultKind> {};

TEST_P(ChaosKindSweep, SingleKindRecoversBitIdentically) {
  constexpr int kRanks = 4;
  constexpr int kSteps = 16;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  const resilience::FaultPlan plan = resilience::FaultPlan::random(
      /*seed=*/91, kSteps, solver.exchange_pairs(), {GetParam()},
      /*events_per_kind=*/2);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
  solver.enable_resilience(resilience::Options{});

  solver.run(kSteps);

  const auto* net =
      dynamic_cast<const resilience::FaultyNetwork*>(&solver.network());
  ASSERT_NE(net, nullptr);
  EXPECT_GT(net->plan().fired_count(), 0)
      << "seed 91 never triggered a " << resilience::fault_kind_name(GetParam())
      << " event; pick a different seed";

  const std::vector<double> state = solver.global_distributions();
  ASSERT_EQ(state.size(), reference.size());
  for (std::size_t k = 0; k < state.size(); ++k)
    ASSERT_EQ(state[k], reference[k])
        << resilience::fault_kind_name(GetParam()) << " diverged at index "
        << k;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ChaosKindSweep,
    ::testing::ValuesIn(std::begin(resilience::kAllFaultKinds),
                        std::end(resilience::kAllFaultKinds)),
    [](const ::testing::TestParamInfo<resilience::FaultKind>& info) {
      return std::string(resilience::fault_kind_name(info.param));
    });

TEST(ResilientSolver, AllKindsTogetherRecoverBitIdentically) {
  constexpr int kRanks = 4;
  constexpr int kSteps = 20;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  const resilience::FaultPlan plan = resilience::FaultPlan::random(
      /*seed=*/7, kSteps, solver.exchange_pairs(),
      {std::begin(resilience::kAllFaultKinds),
       std::end(resilience::kAllFaultKinds)},
      /*events_per_kind=*/1);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
  solver.enable_resilience(resilience::Options{});

  solver.run(kSteps);

  const resilience::RunStats& stats = solver.resilience_stats();
  EXPECT_GT(stats.faults_detected(), 0);
  EXPECT_EQ(solver.global_distributions(), reference);
  EXPECT_EQ(solver.step_count(), kSteps);
}

TEST(ResilientSolver, RollbackPathRecoversWhenRetransmitBudgetIsZero) {
  constexpr int kRanks = 4;
  constexpr int kSteps = 12;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::FaultPlan plan;
  resilience::FaultEvent e;
  e.kind = resilience::FaultKind::kDrop;
  e.step = 5;
  e.src = 0;
  e.dst = 1;
  plan.add(e);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
  resilience::Options opts;
  opts.recovery.max_retransmits = 0;  // only rollback can save this run
  solver.enable_resilience(opts);

  solver.run(kSteps);

  EXPECT_GE(solver.resilience_stats().rollbacks, 1);
  EXPECT_EQ(solver.global_distributions(), reference);
}

TEST(ResilientSolver, ExhaustedBudgetsRaiseStructuredFault) {
  constexpr int kRanks = 4;
  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::FaultPlan plan;
  resilience::FaultEvent e;
  e.kind = resilience::FaultKind::kStall;
  e.step = 3;
  e.src = 0;
  e.stall_polls = 1000;  // outlasts any retransmission budget
  plan.add(e);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
  resilience::Options opts;
  opts.recovery.max_rollbacks = 0;
  solver.enable_resilience(opts);

  try {
    solver.run(10);
    FAIL() << "expected SolverFault";
  } catch (const resilience::SolverFault& fault) {
    EXPECT_NE(std::string(fault.what()).find("step 3"), std::string::npos);
  }
}

TEST(ResilientSolver, NonFiniteLiveSlotTripsRS001AndRollsBack) {
  // A live slot made truly non-finite on its rank (every zero exponent bit
  // set) is consumed by the next kernel step; the post-step audit must
  // name it (RS001), roll back, and replay to the clean bits.
  constexpr int kRanks = 4;
  constexpr int kSteps = 10;
  constexpr int kFlipStep = 5;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  resilience::FaultPlan plan;
  for (const resilience::FaultEvent& e :
       saturate_exponent(clean_run(kRanks, kFlipStep), lattice->size(),
                         lattice->size() / 2, /*q=*/0, kFlipStep))
    plan.add(e);
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  solver.set_fault_injection(&plan);
  solver.enable_resilience(resilience::Options{});

  solver.run(kSteps);

  const resilience::RunStats& stats = solver.resilience_stats();
  EXPECT_TRUE(has_rule(stats.diagnostics, "RS001"));
  EXPECT_FALSE(has_rule(stats.diagnostics, "RS002"));  // RS001 names it
  EXPECT_GE(stats.rollbacks, 1);
  EXPECT_EQ(solver.global_distributions(), reference);
}

TEST(ResilientSolver, MassGuardFormFollowsTheLattice) {
  // Setting the top mantissa bit of one rest population raises it by about
  // 1/8: a mass change far above the closed-system rounding tolerance, but
  // far below the open-system 5% per-step jump, and too slow for RS003.
  // So the flip trips RS002 exactly when the lattice has no inlet or
  // outlet point, and the rollback then replays to the clean bits.
  constexpr int kRanks = 4;
  constexpr int kSteps = 8;
  constexpr int kFlipStep = 4;
  for (const geom::CylinderEnds ends :
       {geom::CylinderEnds::kPeriodic, geom::CylinderEnds::kInletOutlet}) {
    const bool closed = ends == geom::CylinderEnds::kPeriodic;
    geom::CylinderSpec spec;
    spec.radius_per_scale = 4.0;
    spec.axial_per_scale = 16.0;
    auto lattice = geom::make_cylinder_lattice(spec, ends);
    const decomp::Partition partition =
        decomp::slab_partition(*lattice, kRanks);
    lbm::SolverOptions options = flow_options();
    if (closed) {
      options.inlet_velocity = 0.0;
      options.body_force = {0.0, 0.0, 1e-6};
    }
    DistributedSolver clean(lattice, partition, options);
    clean.run(kSteps);

    resilience::FaultPlan plan;
    plan.add(bit_flip(lattice->size() / 2, /*q=*/0, /*bit=*/51, kFlipStep));
    DistributedSolver solver(lattice, partition, options);
    solver.set_fault_injection(&plan);
    solver.enable_resilience(resilience::Options{});
    solver.run(kSteps);

    const resilience::RunStats& stats = solver.resilience_stats();
    EXPECT_EQ(plan.fired_count(), 1);
    EXPECT_EQ(has_rule(stats.diagnostics, "RS002"), closed);
    EXPECT_FALSE(has_rule(stats.diagnostics, "RS001"));
    EXPECT_FALSE(has_rule(stats.diagnostics, "RS003"));
    EXPECT_EQ(stats.rollbacks, closed ? 1 : 0);
    EXPECT_EQ(solver.global_distributions() == clean.global_distributions(),
              closed);
  }
}

TEST(ResilientSolver, OverflowingFiniteMassTripsRS002) {
  // Setting the top exponent bit of the rest population of eight bulk
  // points in one tile lifts each from ~1/3 to ~6e307.  Every slot stays
  // finite through the next step, whose collision only spreads each
  // point's mass over its populations at a vanishing velocity, but the
  // tile's mass overflows to +Inf.  RS001 has no non-finite slot to name
  // and RS003 sees no fast point, so the mass guard must report the
  // non-finite mass, roll back and replay to the clean bits.
  constexpr int kRanks = 4;
  constexpr int kSteps = 8;
  constexpr int kFlipStep = 4;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  const decomp::Partition partition = decomp::slab_partition(*lattice, kRanks);
  DistributedSolver solver(lattice, partition, flow_options());
  resilience::FaultPlan plan;
  int lifted = 0;
  for (const hemo::PointIndex p :
       hemo::harvey::DistributedSolverPeer::owned_global(solver, 1)) {
    if (lattice->node_type(p) != lbm::NodeType::kBulk) continue;
    plan.add(bit_flip(p, /*q=*/0, /*bit=*/62, kFlipStep));
    if (++lifted == 8) break;
  }
  solver.set_fault_injection(&plan);
  solver.enable_resilience(resilience::Options{});

  solver.run(kSteps);

  for (const resilience::FaultEvent& e : plan.events()) {
    EXPECT_EQ(e.fired_rank, 1);
    EXPECT_EQ(e.fired_tile, 0);  // one tile holds every lifted point
  }
  const resilience::RunStats& stats = solver.resilience_stats();
  const auto rs002 = std::find_if(
      stats.diagnostics.begin(), stats.diagnostics.end(),
      [](const auto& d) { return d.rule_id == "RS002"; });
  ASSERT_NE(rs002, stats.diagnostics.end());
  EXPECT_NE(rs002->message.find("global mass is non-finite"),
            std::string::npos)
      << rs002->message;
  EXPECT_FALSE(has_rule(stats.diagnostics, "RS001"));
  EXPECT_FALSE(has_rule(stats.diagnostics, "RS003"));
  EXPECT_GE(stats.health_errors, 1);
  EXPECT_GE(stats.rollbacks, 1);
  EXPECT_EQ(solver.global_distributions(), reference);
}

TEST(ResilientSolver, ResilientRunWithoutFaultsIsBitIdenticalToPlain) {
  // The CRC frames and guards must be pure observers: enabling resilience
  // on a fault-free run changes nothing.
  constexpr int kRanks = 4;
  constexpr int kSteps = 12;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  solver.enable_resilience(resilience::Options{});
  solver.run(kSteps);

  EXPECT_EQ(solver.resilience_stats().faults_detected(), 0);
  EXPECT_EQ(solver.global_distributions(), reference);
}

// ---------------------------------------------------------------------------
// Checkpoint / restart.

class CheckpointRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointRankSweep, RoundTripIsBitIdentical) {
  // A checkpoint records no decomposition: the file saved at each rank
  // count resumes bit-identically at that rank count, at another one, and
  // in the single-domain solver under pull and AA.
  const int ranks = GetParam();
  constexpr int kSteps = 14;
  constexpr int kCut = 6;
  const std::vector<double> reference = clean_run(ranks, kSteps);

  const TempFile ckpt("ckpt_roundtrip_" + std::to_string(ranks) + ".bin");
  auto lattice = small_cylinder();
  {
    DistributedSolver solver(lattice, decomp::slab_partition(*lattice, ranks),
                             flow_options());
    solver.run(kCut);
    solver.save_checkpoint(ckpt.path);
  }
  const auto expect_reference = [&](const std::vector<double>& state,
                                    const std::string& target) {
    ASSERT_EQ(state.size(), reference.size());
    for (std::size_t k = 0; k < state.size(); ++k)
      ASSERT_EQ(state[k], reference[k])
          << ranks << " ranks restored into " << target
          << " diverged at index " << k;
  };
  const int other_ranks = ranks == 4 ? 3 : 4;
  for (const int target : {ranks, other_ranks}) {
    DistributedSolver resumed(
        lattice, decomp::slab_partition(*lattice, target), flow_options());
    resumed.restore_checkpoint(ckpt.path);
    EXPECT_EQ(resumed.step_count(), kCut);
    resumed.run(kSteps - kCut);
    expect_reference(resumed.global_distributions(),
                     std::to_string(target) + " ranks");
  }
  for (const lbm::Propagation pattern :
       {lbm::Propagation::kPullSoA, lbm::Propagation::kAAInPlace}) {
    lbm::SolverOptions options = flow_options();
    options.propagation = pattern;
    lbm::Solver resumed(lattice, options);
    resumed.restore_checkpoint(ckpt.path);
    EXPECT_EQ(resumed.step_count(), kCut);
    resumed.run(kSteps - kCut);
    expect_reference(resumed.distributions(),
                     lbm::propagation_name(pattern));
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, CheckpointRankSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(Checkpoint, SingleDomainCheckpointRestoresIntoFourRanks) {
  // The other direction: lbm::Solver checkpoints, under pull and at an odd
  // AA step, resume bit-identically on four ranks.
  constexpr int kSteps = 12;
  constexpr int kCut = 5;
  const std::vector<double> reference = clean_run(4, kSteps);
  auto lattice = small_cylinder();
  for (const lbm::Propagation pattern :
       {lbm::Propagation::kPullSoA, lbm::Propagation::kAAInPlace}) {
    const TempFile ckpt("ckpt_single_to_four.bin");
    {
      lbm::SolverOptions options = flow_options();
      options.propagation = pattern;
      lbm::Solver single(lattice, options);
      single.run(kCut);
      single.save_checkpoint(ckpt.path);
    }
    DistributedSolver resumed(lattice, decomp::slab_partition(*lattice, 4),
                              flow_options());
    resumed.restore_checkpoint(ckpt.path);
    EXPECT_EQ(resumed.step_count(), kCut);
    resumed.run(kSteps - kCut);
    EXPECT_EQ(resumed.global_distributions(), reference)
        << lbm::propagation_name(pattern);
  }
}

TEST(Checkpoint, CorruptedFileIsRejected) {
  const TempFile ckpt("ckpt_corrupt.bin");
  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, 2),
                           flow_options());
  solver.run(3);
  solver.save_checkpoint(ckpt.path);

  // Flip one byte in the middle of the file: the record CRC must trip.
  {
    std::fstream f(ckpt.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 64);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }

  DistributedSolver fresh(lattice, decomp::slab_partition(*lattice, 2),
                          flow_options());
  EXPECT_THROW(fresh.restore_checkpoint(ckpt.path), hemo::io::BlobError);
}

TEST(Checkpoint, FailedRestoreLeavesTheSolverUntouched) {
  // A checkpoint whose last rank record fails its CRC must not have been
  // copied in part: the records before it were already read when the
  // error surfaced, and the live state, the step counter, the mass
  // anchor and the sentinel record must all stay as they were.
  constexpr int kRanks = 4;
  const TempFile ckpt("ckpt_atomic.bin");
  const TempFile good("ckpt_atomic_good.bin");
  auto lattice = small_cylinder();
  {
    DistributedSolver saved(lattice, decomp::slab_partition(*lattice, kRanks),
                            flow_options());
    saved.run(5);
    saved.save_checkpoint(ckpt.path);
    saved.save_checkpoint(good.path);
  }
  // The last rank record's payload ends the file: flip one of its bytes.
  {
    std::fstream f(ckpt.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(-8, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(-8, std::ios::end);
    f.write(&byte, 1);
  }

  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::Options opts;
  opts.sentinel.enabled = true;
  opts.sentinel.reexec_sample = 2;
  solver.enable_resilience(opts);
  solver.run(3);
  const std::vector<double> before = solver.global_distributions();

  EXPECT_THROW(solver.restore_checkpoint(ckpt.path), hemo::io::BlobError);
  EXPECT_EQ(solver.step_count(), 3);
  EXPECT_EQ(solver.global_distributions(), before);

  // The run goes on as if no restore had been tried, and an intact file
  // then restores into the same solver and resumes from its step.
  solver.run(3);
  EXPECT_EQ(solver.global_distributions(), clean_run(kRanks, 6));
  solver.restore_checkpoint(good.path);
  EXPECT_EQ(solver.step_count(), 5);
  solver.run(4);
  EXPECT_EQ(solver.resilience_stats().faults_detected(), 0);
  EXPECT_EQ(solver.global_distributions(), clean_run(kRanks, 9));
}

TEST(Checkpoint, RepeatedOrSwappedRowIsRejected) {
  // Record k + 1 must be direction row k: a file with a row repeated, two
  // rows swapped, or a row after the last one is refused — after most rows
  // were already staged — and the solver is left untouched.
  const TempFile first("ckpt_rows_first.bin");
  const TempFile bad("ckpt_rows_bad.bin");
  auto lattice = small_cylinder();
  {
    DistributedSolver saved(lattice, decomp::slab_partition(*lattice, 2),
                            flow_options());
    saved.run(2);
    saved.save_checkpoint(first.path);
  }
  std::vector<hemo::io::BlobRecord> records;
  {
    hemo::io::BlobReader reader(first.path, lbm::kCheckpointMagic,
                                lbm::kCheckpointVersion);
    while (!reader.at_end()) records.push_back(reader.next());
  }
  ASSERT_EQ(records.size(), 1u + lbm::kQ);  // metadata, then one row per q
  const std::size_t last = records.size() - 1;

  std::vector<std::vector<std::size_t>> orders(3);
  for (std::size_t k = 0; k < records.size(); ++k)
    for (std::vector<std::size_t>& order : orders) order.push_back(k);
  orders[0][last] = last - 1;                      // row kQ-2 twice
  std::swap(orders[1][last - 1], orders[1][last]);  // last two swapped
  orders[2].push_back(last);                        // last row twice

  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, 2),
                           flow_options());
  solver.run(1);
  const std::vector<double> before = solver.global_distributions();
  const double mass = solver.total_mass();
  for (const std::vector<std::size_t>& order : orders) {
    {
      hemo::io::BlobWriter writer(bad.path, lbm::kCheckpointMagic,
                                  lbm::kCheckpointVersion);
      for (const std::size_t k : order)
        writer.add_record(records[k].tag, records[k].bytes.data(),
                          records[k].bytes.size());
      writer.finish();
    }
    EXPECT_THROW(solver.restore_checkpoint(bad.path), hemo::io::BlobError);
    EXPECT_EQ(solver.step_count(), 1);
    EXPECT_EQ(solver.total_mass(), mass);
    EXPECT_EQ(solver.global_distributions(), before);
  }
  solver.run(4);
  EXPECT_EQ(solver.global_distributions(), clean_run(2, 5));
}

TEST(Checkpoint, WrongConfigurationIsRejected) {
  // Any rank count restores a checkpoint; a different lattice does not.
  const TempFile ckpt("ckpt_wrong_config.bin");
  auto lattice = small_cylinder();
  {
    DistributedSolver solver(lattice, decomp::slab_partition(*lattice, 2),
                             flow_options());
    solver.run(2);
    solver.save_checkpoint(ckpt.path);
  }
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 12.0;
  auto shorter =
      geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
  ASSERT_NE(shorter->size(), lattice->size());
  DistributedSolver other(shorter, decomp::slab_partition(*shorter, 2),
                          flow_options());
  EXPECT_THROW(other.restore_checkpoint(ckpt.path), hemo::io::BlobError);
  EXPECT_EQ(other.step_count(), 0);
}

TEST(Checkpoint, MissingFileIsRejected) {
  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, 2),
                           flow_options());
  EXPECT_THROW(solver.restore_checkpoint("no_such_checkpoint.bin"),
               hemo::io::BlobError);
}

TEST(Checkpoint, RestoredResilientRunRollsBackBeforeTheNextSnapshot) {
  // Restored at step 13 with snapshots every 8 steps, the run meets a
  // stall at step 14, before the next snapshot boundary (16).  The
  // restored state is the rollback target: the run rolls back once and
  // ends bit-identical to an unfaulted run, as it would unrestored.
  constexpr int kRanks = 4;
  constexpr int kCut = 13;
  constexpr int kSteps = 20;
  const TempFile ckpt("ckpt_restored_rollback.bin");
  auto lattice = small_cylinder();
  {
    DistributedSolver saved(lattice, decomp::slab_partition(*lattice, kRanks),
                            flow_options());
    saved.run(kCut);
    saved.save_checkpoint(ckpt.path);
  }

  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::FaultPlan plan;
  resilience::FaultEvent e;
  e.kind = resilience::FaultKind::kStall;
  e.step = kCut + 1;
  e.src = 0;
  e.stall_polls = 1000;  // outlasts any retransmission budget
  plan.add(e);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
  resilience::Options opts;
  opts.recovery.checkpoint_interval = 8;
  solver.enable_resilience(opts);
  solver.restore_checkpoint(ckpt.path);
  ASSERT_EQ(solver.step_count(), kCut);

  solver.run(kSteps - kCut);
  EXPECT_EQ(solver.resilience_stats().rollbacks, 1);
  EXPECT_EQ(solver.step_count(), kSteps);
  EXPECT_EQ(solver.global_distributions(), clean_run(kRanks, kSteps));
}

TEST(ResilientSolver, VelocityCeilingGuardFiresRS003) {
  // Setting the top exponent bit of a +x population of an interior bulk
  // point lifts it from ~1/18 to ~1e307, still finite.  The point that
  // pulls it ends the step with |u| ~ 1, far over kMaxVelocity; with the
  // sentinel off and no rollback budget the run must surface it as a
  // structured fault carrying the RS003 diagnostic, and no RS001.
  auto lattice = small_cylinder();
  hemo::PointIndex interior = -1;
  for (hemo::PointIndex p = lattice->size() / 3; p < lattice->size(); ++p) {
    bool enclosed = lattice->node_type(p) == lbm::NodeType::kBulk;
    for (int q = 1; q < lbm::kQ && enclosed; ++q)
      enclosed = lattice->neighbor(q, p) != hemo::kSolidNeighbor;
    if (enclosed) {
      interior = p;
      break;
    }
  }
  ASSERT_GE(interior, 0);
  resilience::FaultPlan plan;
  plan.add(bit_flip(interior, /*q=*/1, /*bit=*/62, /*step=*/2));
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, 2),
                           flow_options());
  solver.set_fault_injection(&plan);
  resilience::Options opts;
  opts.recovery.max_rollbacks = 0;
  solver.enable_resilience(opts);

  try {
    solver.run(4);
    FAIL() << "expected SolverFault";
  } catch (const resilience::SolverFault& fault) {
    EXPECT_TRUE(has_rule(fault.diagnostics(), "RS003"));
    EXPECT_FALSE(has_rule(fault.diagnostics(), "RS001"));
  }
  EXPECT_EQ(solver.step_count(), 3);  // the step that blew up
  EXPECT_GE(solver.resilience_stats().health_errors, 1);
}

TEST(ResilientSolver, OffPlanHaloTrafficIsRecordedAsRS004) {
  // A duplicated halo message is a valid frame arriving twice: the halo
  // audit must drain the straggler, record RS004, and let the run finish
  // bit-identical to the clean reference (the audit is an observer).
  constexpr int kRanks = 4;
  constexpr int kSteps = 10;
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::FaultPlan plan;
  resilience::FaultEvent e;
  e.kind = resilience::FaultKind::kDuplicate;
  e.step = 4;
  e.src = 1;
  e.dst = 2;
  plan.add(e);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
  solver.enable_resilience(resilience::Options{});

  solver.run(kSteps);

  EXPECT_GE(solver.resilience_stats().halo_audit_mismatches, 1);
  bool saw_rs004 = false;
  for (const hemo::analysis::Diagnostic& d :
       solver.resilience_stats().diagnostics)
    saw_rs004 |= (d.rule_id == "RS004");
  EXPECT_TRUE(saw_rs004);
  EXPECT_EQ(solver.global_distributions(), reference);
}

// ---------------------------------------------------------------------------
// The state audit runs as one launch over every (rank, tile): its results
// must not depend on the dialect or on how the engine chunks the launch.

namespace {

struct AuditedRun {
  std::vector<double> state;
  resilience::RunStats stats;
};

/// A seeded resilient + sentinel run that trips every audit consumer: wire
/// faults, a mantissa flip the sentinel catches (RS006), and an exponent
/// saturation on a step the sentinel does not verify, which the post-step
/// audit catches (RS001).
AuditedRun audited_run(std::optional<hemo::hal::Model> model, int threads) {
  constexpr int kRanks = 4;
  constexpr int kSteps = 24;
  hemo::hal::DeviceEngine& engine = hemo::hal::DeviceEngine::instance();
  engine.set_threads(threads);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::FaultPlan plan = resilience::FaultPlan::random(
      /*seed=*/11, kSteps, solver.exchange_pairs(),
      {std::begin(resilience::kAllFaultKinds),
       std::end(resilience::kAllFaultKinds)},
      /*events_per_kind=*/1);
  resilience::FaultEvent flip;
  flip.kind = resilience::FaultKind::kBitFlip;
  flip.step = 12;  // a verified step: check_interval divides it
  flip.flip_point = lattice->size() / 3;
  flip.flip_q = 5;
  flip.flip_bit = 41;
  plan.add(flip);
  for (const resilience::FaultEvent& e :
       saturate_exponent(clean_run(kRanks, 13), lattice->size(),
                         lattice->size() / 2, /*q=*/0, /*step=*/13))
    plan.add(e);
  auto network =
      std::make_unique<resilience::FaultyNetwork>(kRanks, std::move(plan));
  resilience::FaultPlan* live_plan = &network->plan();
  solver.set_network(std::move(network));
  solver.set_fault_injection(live_plan);
  if (model.has_value()) solver.set_execution_model(*model);
  resilience::Options options;
  options.recovery.checkpoint_interval = 4;
  options.sentinel.enabled = true;
  options.sentinel.tile_points = 48;
  options.sentinel.check_interval = 4;
  solver.enable_resilience(options);

  solver.run(kSteps);
  engine.set_threads(1);
  return {solver.global_distributions(), solver.resilience_stats()};
}

}  // namespace

TEST(AuditTile, SeededRunIsIdenticalAcrossDialectsAndEngineThreads) {
  const AuditedRun host = audited_run(std::nullopt, 1);
  EXPECT_TRUE(has_rule(host.stats.diagnostics, "RS001"));
  EXPECT_TRUE(has_rule(host.stats.diagnostics, "RS006"));
  EXPECT_GT(host.stats.retransmits, 0);
  EXPECT_EQ(host.state, clean_run(4, 24));

  for (const hemo::hal::Model model : hemo::hal::kAllModels)
    for (const int threads : {1, 2, 3}) {
      const AuditedRun run = audited_run(model, threads);
      const std::string label = std::string(hemo::hal::name_of(model)) +
                                ", " + std::to_string(threads) + " thread(s)";
      EXPECT_EQ(run.stats.diagnostics, host.stats.diagnostics) << label;
      EXPECT_EQ(run.stats.health_errors, host.stats.health_errors) << label;
      EXPECT_EQ(run.stats.rollbacks, host.stats.rollbacks) << label;
      EXPECT_EQ(run.stats.snapshots, host.stats.snapshots) << label;
      EXPECT_EQ(run.stats.retransmits, host.stats.retransmits) << label;
      EXPECT_EQ(run.stats.sdc_checks, host.stats.sdc_checks) << label;
      EXPECT_EQ(run.stats.sdc_detected, host.stats.sdc_detected) << label;
      EXPECT_EQ(run.stats.sdc_false_positive, host.stats.sdc_false_positive)
          << label;
      EXPECT_TRUE(run.state == host.state) << label;
    }
}

// ---------------------------------------------------------------------------
// The audit inside the step launch: each work-item audits the tile it just
// wrote, from cache, in place of a separate audit pass after the step.

namespace {

bool same_audit(const resilience::TileAudit& a,
                const resilience::TileAudit& b) {
  return std::memcmp(&a.digest, &b.digest, sizeof a.digest) == 0 &&
         a.nonfinite == b.nonfinite &&
         a.first_nonfinite == b.first_nonfinite &&
         std::memcmp(&a.max_speed2, &b.max_speed2, sizeof a.max_speed2) == 0;
}

}  // namespace

TEST(AuditTile, StepLaunchAuditsEqualASeparateAuditOfTheCommittedState) {
  using hemo::harvey::DistributedSolverPeer;
  constexpr int kSteps = 6;
  geom::CylinderSpec spec;
  spec.scale = 2.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 16.0;
  auto lattice =
      geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
  lbm::SolverOptions options = flow_options();
  options.body_force = {1e-6, -2e-6, 5e-7};
  hemo::hal::DeviceEngine& engine = hemo::hal::DeviceEngine::instance();

  for (const int ranks : {1, 2, 5, 8}) {
    const decomp::Partition partition =
        decomp::bisection_partition(*lattice, ranks);
    for (const hemo::hal::Model model : hemo::hal::kAllModels)
      for (const int threads : {1, 2, 3})
        for (const std::int64_t tile_points : {48, 100, 256, 1000}) {
          const std::string label =
              std::string(hemo::hal::name_of(model)) + ", " +
              std::to_string(threads) + " thread(s), " +
              std::to_string(tile_points) + "-point tiles, " +
              std::to_string(ranks) + " rank(s)";
          engine.set_threads(threads);
          DistributedSolver solver(lattice, partition, options);
          solver.set_execution_model(model);
          resilience::Options resilient;
          resilient.recovery.checkpoint_interval = 4;
          resilient.sentinel.enabled = true;
          resilient.sentinel.tile_points = tile_points;
          solver.enable_resilience(resilient);
          for (int step = 1; step <= kSteps; ++step) {
            solver.step();
            ASSERT_EQ(solver.step_count(), step) << label;
            const std::vector<resilience::TileAudit>& fused =
                DistributedSolverPeer::step_audits(solver);
            const std::vector<resilience::TileAudit> separate =
                DistributedSolverPeer::separate_audit(solver);
            ASSERT_EQ(fused.size(), separate.size()) << label;
            for (std::size_t t = 0; t < fused.size(); ++t)
              ASSERT_TRUE(same_audit(fused[t], separate[t]))
                  << label << ", step " << step << ", tile " << t;
          }
        }
  }
  engine.set_threads(1);
}

namespace {

/// The tiles of every rank of the solver's partition, in its local order,
/// recomputed from the lattice: a tile is a border tile when one of its
/// points has an upstream neighbour owned by another rank, the points whose
/// step reads a ghost slot.
std::vector<hemo::harvey::DistributedSolverPeer::Tile> expected_tiles(
    const lbm::SparseLattice& lattice, const DistributedSolver& solver,
    std::int64_t tile_points) {
  const decomp::Partition& partition = solver.partition();
  std::vector<hemo::harvey::DistributedSolverPeer::Tile> out;
  for (hemo::Rank r = 0; r < partition.n_ranks; ++r) {
    const std::vector<hemo::PointIndex>& owned =
        hemo::harvey::DistributedSolverPeer::owned_global(solver, r);
    const auto n = static_cast<std::int64_t>(owned.size());
    for (std::int64_t begin = 0; begin < n; begin += tile_points) {
      const std::int64_t end = std::min(begin + tile_points, n);
      bool border = false;
      for (std::int64_t li = begin; li < end; ++li)
        for (int q = 1; q < lbm::kQ; ++q) {
          const hemo::PointIndex up =
              lattice.neighbor(q, owned[static_cast<std::size_t>(li)]);
          border = border || (up != hemo::kSolidNeighbor &&
                              partition.owner[static_cast<std::size_t>(up)] !=
                                  r);
        }
      out.push_back({r, begin, end, border});
    }
  }
  return out;
}

/// The plan's tiles equal the recomputed ones, and its border list names
/// exactly the flagged tiles.  Returns the number of border tiles.
std::size_t expect_plan_matches(const DistributedSolver& solver,
                                const lbm::SparseLattice& lattice,
                                std::int64_t tile_points,
                                const std::string& label) {
  using hemo::harvey::DistributedSolverPeer;
  const std::vector<DistributedSolverPeer::Tile> plan =
      DistributedSolverPeer::plan_tiles(solver);
  EXPECT_TRUE(plan == expected_tiles(lattice, solver, tile_points))
      << label;
  std::vector<std::size_t> flagged;
  for (std::size_t k = 0; k < plan.size(); ++k)
    if (plan[k].border) flagged.push_back(k);
  EXPECT_EQ(DistributedSolverPeer::border_tiles(solver), flagged) << label;
  return flagged.size();
}

}  // namespace

TEST(AuditTile, BorderTilesAreExactlyThoseReadingAGhost) {
  geom::CylinderSpec spec;
  spec.scale = 2.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 16.0;
  auto lattice =
      geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);

  for (const int ranks : {1, 2, 5, 8})
    for (const std::int64_t tile_points : {48, 256}) {
      const std::string label = std::to_string(ranks) + " rank(s), " +
                                std::to_string(tile_points) + "-point tiles";
      DistributedSolver solver(
          lattice, decomp::bisection_partition(*lattice, ranks),
          flow_options());
      resilience::Options options;
      options.sentinel.enabled = true;
      options.sentinel.tile_points = tile_points;
      solver.enable_resilience(options);
      const std::size_t border =
          expect_plan_matches(solver, *lattice, tile_points, label);
      if (ranks == 1)
        EXPECT_EQ(border, 0u) << label;
      else
        EXPECT_GT(border, 0u) << label;
    }

  // A rank killed mid-run: the shrink re-bisects over the survivors, and
  // the flags follow the new decomposition.
  constexpr int kRanks = 5;
  constexpr std::int64_t kTilePoints = 48;
  DistributedSolver solver(lattice, decomp::bisection_partition(*lattice, kRanks),
                           flow_options());
  resilience::FaultPlan plan;
  plan.kill_rank(3, /*step=*/4);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, std::move(plan)));
  resilience::Options options;
  options.shrink.enabled = true;
  options.sentinel.enabled = true;
  options.sentinel.tile_points = kTilePoints;
  solver.enable_resilience(options);
  const std::vector<hemo::harvey::DistributedSolverPeer::Tile> before =
      hemo::harvey::DistributedSolverPeer::plan_tiles(solver);
  solver.run(12);
  ASSERT_EQ(solver.resilience_stats().shrinks, 1);
  ASSERT_EQ(solver.owned_count(3), 0);
  EXPECT_GT(expect_plan_matches(solver, *lattice, kTilePoints, "after shrink"),
            0u);
  EXPECT_FALSE(hemo::harvey::DistributedSolverPeer::plan_tiles(solver) ==
               before);
}
