// Chaos scenarios called as functions: the fields behind the hemo_chaos
// verdicts that its exit code and text cannot show on their own — which
// ranks died, whether the rerun reproduced the recovery, each flip's
// detection, localization and latency, and the campaign's resume point.
// run_serve_crash forks its servers and so must run from a process with no
// threads; it stays covered by the hemo_chaos_serve_crash* ctest gates.

#include "chaos/scenarios.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

namespace hemo::chaos {
namespace {

ChaosConfig small_run(int ranks, int steps) {
  ChaosConfig cfg;
  cfg.scale = 0.5;
  cfg.ranks = ranks;
  cfg.steps = steps;
  cfg.seed = 7;
  return cfg;
}

TEST(ChaosScenarios, KillRunNamesTheDeadRanksAndReproducesOnRerun) {
  ChaosConfig cfg = small_run(8, 24);
  cfg.events_per_kind = 0;
  cfg.kills = {{2, 0}, {6, 23}};
  const ChaosRun r = run_network_chaos(cfg);

  EXPECT_EQ(r.verdict, Verdict::kSurvived);
  EXPECT_TRUE(r.run.survived);
  EXPECT_TRUE(r.identical);
  EXPECT_TRUE(r.rerun_identical);
  EXPECT_EQ(r.run.stats.dead_ranks, (std::vector<Rank>{2, 6}));
  EXPECT_EQ(r.run.stats.shrinks, 2);
  EXPECT_EQ(r.run.survivor_count, 6);
  ASSERT_FALSE(r.events.empty());
  EXPECT_EQ(r.events.back().kind, resilience::FaultKind::kRankDeath);
  EXPECT_EQ(r.events.back().planned, 2);
  EXPECT_EQ(r.events.back().fired, 2);
}

TEST(ChaosScenarios, TransientRunWithoutKillsSkipsTheRerun) {
  const ChaosRun r = run_network_chaos(small_run(4, 24));

  EXPECT_EQ(r.verdict, Verdict::kSurvived);
  EXPECT_TRUE(r.identical);
  EXPECT_TRUE(r.run.stats.dead_ranks.empty());
  EXPECT_EQ(r.events.size(), std::size(resilience::kAllFaultKinds));
  EXPECT_GT(r.run.log.total_injected(), 0);
  EXPECT_GT(r.run.stats.retransmits, 0);
}

TEST(ChaosScenarios, SdcRunDetectsAndLocalizesEveryFlipAtOnce) {
  ChaosConfig cfg = small_run(4, 24);
  cfg.flips = 6;
  const SdcRun r = run_sdc_chaos(cfg);

  EXPECT_EQ(r.verdict, Verdict::kSurvived);
  ASSERT_EQ(r.flips.size(), 6u);
  for (const FlipOutcome& o : r.flips) {
    EXPECT_TRUE(o.event.fired);
    EXPECT_GE(o.event.fired_rank, 0);
    EXPECT_TRUE(o.detected) << "flip at step " << o.event.step;
    EXPECT_TRUE(o.localized) << "flip at step " << o.event.step;
    EXPECT_EQ(o.latency, 0) << "flip at step " << o.event.step;
  }
  EXPECT_EQ(r.detected, 6);
  EXPECT_EQ(r.localized, 6);
  EXPECT_EQ(r.max_latency, 0);
  EXPECT_EQ(r.spurious, 0);
  EXPECT_TRUE(r.clean);
  EXPECT_TRUE(r.identical);
  EXPECT_TRUE(r.options.sentinel.enabled);
}

TEST(ChaosScenarios, CampaignFailsOnceThenResumesFromItsCheckpoint) {
  ChaosConfig cfg = small_run(4, 40);
  cfg.seed = 11;
  const CampaignRun r = run_campaign_chaos(cfg);

  EXPECT_EQ(r.verdict, Verdict::kSurvived);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.fault_step, 20);
  EXPECT_EQ(r.resume_step, 20);  // the checkpoint taken just before it
  EXPECT_TRUE(r.survived);
  EXPECT_TRUE(r.identical);
}

TEST(ChaosScenarios, RefusingToShrinkBelowTheFloorIsStructural) {
  ChaosConfig cfg = small_run(4, 16);
  cfg.events_per_kind = 0;
  cfg.kills = {{1, 8}};
  cfg.min_survivors = 4;
  const ChaosRun r = run_network_chaos(cfg);

  EXPECT_EQ(r.verdict, Verdict::kStructural);
  EXPECT_FALSE(r.run.survived);
  EXPECT_FALSE(r.identical);
  EXPECT_FALSE(r.run.fault_message.empty());
  EXPECT_TRUE(r.run.state.empty());
  EXPECT_EQ(r.run.stats.shrinks, 0);
  EXPECT_TRUE(r.run.stats.dead_ranks.empty());
  EXPECT_EQ(r.run.survivor_count, 4);
  // Both attempts fail the same way, so the refusal itself is
  // deterministic.
  EXPECT_TRUE(r.rerun_identical);
}

}  // namespace
}  // namespace hemo::chaos
