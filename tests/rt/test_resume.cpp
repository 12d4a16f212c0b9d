// CheckpointSlot + run_job: a campaign job that checkpoints through the
// distributed solver resumes a failed attempt from its last good step
// instead of recomputing, and the resumed result is bit-identical.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "decomp/partition.hpp"
#include "geom/cylinder.hpp"
#include "harvey/distributed_solver.hpp"
#include "resilience/fault.hpp"
#include "resilience/faulty_network.hpp"
#include "resilience/policy.hpp"
#include "rt/job.hpp"

namespace decomp = hemo::decomp;
namespace geom = hemo::geom;
namespace lbm = hemo::lbm;
namespace resilience = hemo::resilience;
namespace rt = hemo::rt;
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

}  // namespace

TEST(CheckpointSlot, TracksLatestRecordAndClears) {
  rt::CheckpointSlot slot;
  EXPECT_FALSE(slot.has_checkpoint());
  slot.record("a.bin", 5);
  EXPECT_TRUE(slot.has_checkpoint());
  EXPECT_EQ(slot.path, "a.bin");
  EXPECT_EQ(slot.step, 5);
  slot.record("b.bin", 9);
  EXPECT_EQ(slot.path, "b.bin");
  EXPECT_EQ(slot.step, 9);
  slot.clear();
  EXPECT_FALSE(slot.has_checkpoint());
  EXPECT_EQ(slot.step, -1);
}

TEST(JobResume, RetryResumesFromTheLastCheckpoint) {
  constexpr int kRanks = 4;
  constexpr int kSteps = 20;
  constexpr int kCkptEvery = 5;
  constexpr int kFaultStep = 12;

  auto lattice = small_cylinder();
  const decomp::Partition partition = decomp::slab_partition(*lattice, kRanks);

  std::vector<double> reference;
  {
    DistributedSolver solver(lattice, partition, flow_options());
    solver.run(kSteps);
    reference = solver.global_distributions();
  }

  // A stall longer than any retransmission budget, with rollback disabled:
  // attempt 1 dies with a structured SolverFault mid-run.  The fired flag
  // is carried across attempts (transient fault semantics), so the retry
  // runs clean from the restored step.
  resilience::FaultPlan plan;
  {
    resilience::FaultEvent e;
    e.kind = resilience::FaultKind::kStall;
    e.step = kFaultStep;
    e.src = 0;
    e.stall_polls = 1000;
    plan.add(e);
  }

  const std::string ckpt_path = "rt_resume_ckpt.bin";
  rt::CheckpointSlot slot;
  std::int64_t resumed_from = -1;

  rt::JobOptions options;
  options.name = "resumable-point";
  options.retry.max_attempts = 3;

  const rt::JobOutcome<std::vector<double>> outcome =
      rt::run_job<std::vector<double>>(options, [&](int attempt) {
        DistributedSolver solver(lattice, partition, flow_options());
        auto net =
            std::make_unique<resilience::FaultyNetwork>(kRanks, plan);
        resilience::FaultyNetwork* net_raw = net.get();
        solver.set_network(std::move(net));
        resilience::Options opts;
        opts.recovery.max_rollbacks = 0;
        solver.enable_resilience(opts);

        if (attempt > 1 && slot.has_checkpoint()) {
          solver.restore_checkpoint(slot.path);
          resumed_from = solver.step_count();
        }
        try {
          while (solver.step_count() < kSteps) {
            const std::int64_t remaining = kSteps - solver.step_count();
            solver.run(static_cast<int>(
                remaining < kCkptEvery ? remaining : kCkptEvery));
            solver.save_checkpoint(ckpt_path);
            slot.record(ckpt_path, solver.step_count());
          }
        } catch (const resilience::SolverFault&) {
          plan = net_raw->plan();  // carry the fired flags to the retry
          throw;
        }
        return solver.global_distributions();
      });

  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 2);
  // Attempt 1 checkpointed at steps 5 and 10 before dying at 12; the
  // retry must pick up at 10, not at 0.
  EXPECT_EQ(resumed_from, 10);
  EXPECT_EQ(*outcome.value, reference);
  std::remove(ckpt_path.c_str());
}

TEST(JobResume, CheckpointTakenAfterAShrinkResumesOnTheFullPartition) {
  // Attempt 1 loses rank 2 at step 5, shrinks onto three survivors and
  // checkpoints on that decomposition, then dies of a stall it can neither
  // retransmit, roll back nor shrink away (min_survivors).  Attempt 2 runs
  // on the original four ranks, with rank 2 back: the shrunk checkpoint
  // must restore into it and the run end bit-identical to the clean one.
  constexpr int kRanks = 4;
  constexpr int kSteps = 20;
  constexpr int kCkptEvery = 6;
  constexpr int kFaultStep = 14;

  auto lattice = small_cylinder();
  const decomp::Partition partition =
      decomp::bisection_partition(*lattice, kRanks);

  std::vector<double> reference;
  {
    DistributedSolver solver(lattice, partition, flow_options());
    solver.run(kSteps);
    reference = solver.global_distributions();
  }

  resilience::FaultPlan plan;
  plan.kill_rank(2, 5);
  {
    resilience::FaultEvent e;
    e.kind = resilience::FaultKind::kStall;
    e.step = kFaultStep;
    e.src = 0;
    e.stall_polls = 1000;
    plan.add(e);
  }

  const std::string ckpt_path = "rt_resume_shrunk_ckpt.bin";
  rt::CheckpointSlot slot;
  std::int64_t resumed_from = -1;
  int first_survivors = 0;

  rt::JobOptions options;
  options.name = "shrunk-point";
  options.retry.max_attempts = 2;

  const rt::JobOutcome<std::vector<double>> outcome =
      rt::run_job<std::vector<double>>(options, [&](int attempt) {
        DistributedSolver solver(lattice, partition, flow_options());
        auto net =
            std::make_unique<resilience::FaultyNetwork>(kRanks, plan);
        resilience::FaultyNetwork* net_raw = net.get();
        solver.set_network(std::move(net));
        resilience::Options opts;
        opts.recovery.max_rollbacks = 0;
        opts.shrink.enabled = true;
        opts.shrink.min_survivors = kRanks - 1;
        solver.enable_resilience(opts);

        if (attempt > 1 && slot.has_checkpoint()) {
          solver.restore_checkpoint(slot.path);
          resumed_from = solver.step_count();
        }
        try {
          while (solver.step_count() < kSteps) {
            const std::int64_t remaining = kSteps - solver.step_count();
            solver.run(static_cast<int>(
                remaining < kCkptEvery ? remaining : kCkptEvery));
            solver.save_checkpoint(ckpt_path);
            slot.record(ckpt_path, solver.step_count());
          }
        } catch (const resilience::SolverFault&) {
          first_survivors = solver.survivor_count();
          plan = net_raw->plan();  // carry the fired flags to the retry
          throw;
        }
        return solver.global_distributions();
      });

  ASSERT_TRUE(outcome.ok()) << outcome.failure->message;
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(first_survivors, kRanks - 1);
  EXPECT_EQ(resumed_from, 12);
  EXPECT_EQ(*outcome.value, reference);
  std::remove(ckpt_path.c_str());
}

TEST(JobResume, ExhaustedRetriesSurfaceTheSolverFaultMessage) {
  constexpr int kRanks = 2;
  auto lattice = small_cylinder();
  const decomp::Partition partition = decomp::slab_partition(*lattice, kRanks);

  rt::JobOptions options;
  options.name = "doomed-point";
  options.retry.max_attempts = 2;

  const rt::JobOutcome<int> outcome =
      rt::run_job<int>(options, [&](int /*attempt*/) -> int {
        DistributedSolver solver(lattice, partition, flow_options());
        // A fresh plan every attempt: the fault is persistent, not
        // transient, so every retry hits it again.
        resilience::FaultPlan plan;
        resilience::FaultEvent e;
        e.kind = resilience::FaultKind::kStall;
        e.step = 2;
        e.src = 0;
        e.stall_polls = 1000;
        plan.add(e);
        solver.set_network(
            std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
        resilience::Options opts;
        opts.recovery.max_rollbacks = 0;
        solver.enable_resilience(opts);
        solver.run(6);
        return 0;
      });

  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_NE(outcome.failure->message.find("step 2"), std::string::npos);
}
