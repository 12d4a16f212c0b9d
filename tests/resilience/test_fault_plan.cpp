// FaultPlan: seeded determinism, matching semantics, one-shot firing.

#include "resilience/fault.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "lbm/d3q19.hpp"

namespace hemo::resilience {
namespace {

const std::vector<std::pair<Rank, Rank>> kEdges = {
    {0, 1}, {1, 0}, {1, 2}, {2, 1}};

std::vector<FaultKind> all_kinds() {
  return {std::begin(kAllFaultKinds), std::end(kAllFaultKinds)};
}

TEST(FaultPlan, RandomIsDeterministicInSeed) {
  const FaultPlan a = FaultPlan::random(42, 50, kEdges, all_kinds(), 3);
  const FaultPlan b = FaultPlan::random(42, 50, kEdges, all_kinds(), 3);
  ASSERT_EQ(a.total(), b.total());
  for (int i = 0; i < a.total(); ++i) {
    const FaultEvent& ea = a.events()[static_cast<std::size_t>(i)];
    const FaultEvent& eb = b.events()[static_cast<std::size_t>(i)];
    EXPECT_EQ(ea.step, eb.step);
    EXPECT_EQ(ea.src, eb.src);
    EXPECT_EQ(ea.dst, eb.dst);
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.payload_index, eb.payload_index);
    EXPECT_EQ(ea.xor_mask, eb.xor_mask);
    EXPECT_EQ(ea.truncate_by, eb.truncate_by);
    EXPECT_EQ(ea.stall_polls, eb.stall_polls);
  }
}

TEST(FaultPlan, DifferentSeedsDiffer) {
  const FaultPlan a = FaultPlan::random(1, 50, kEdges, all_kinds(), 4);
  const FaultPlan b = FaultPlan::random(2, 50, kEdges, all_kinds(), 4);
  bool any_difference = false;
  for (int i = 0; i < a.total(); ++i) {
    const FaultEvent& ea = a.events()[static_cast<std::size_t>(i)];
    const FaultEvent& eb = b.events()[static_cast<std::size_t>(i)];
    any_difference |= (ea.step != eb.step || ea.src != eb.src ||
                       ea.dst != eb.dst);
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlan, RandomRespectsBoundsAndCounts) {
  const FaultPlan plan = FaultPlan::random(7, 20, kEdges, all_kinds(), 2);
  EXPECT_EQ(plan.total(), 12);
  for (const FaultKind kind : kAllFaultKinds) EXPECT_EQ(plan.count(kind), 2);
  for (const FaultEvent& e : plan.events()) {
    EXPECT_GE(e.step, 0);
    EXPECT_LT(e.step, 20);
    bool on_edge = false;
    for (const auto& [src, dst] : kEdges)
      on_edge |= (e.src == src && e.dst == dst);
    EXPECT_TRUE(on_edge);
    EXPECT_FALSE(e.fired);
    if (e.kind == FaultKind::kStall) {
      EXPECT_GE(e.stall_polls, 1);
      EXPECT_LE(e.stall_polls, 6);
    }
    if (e.kind == FaultKind::kTruncate) {
      EXPECT_GE(e.truncate_by, 1);
      EXPECT_LE(e.truncate_by, 4);
    }
  }
}

TEST(FaultPlan, MatchSendIsKeyedAndOneShot) {
  FaultPlan plan;
  FaultEvent e;
  e.step = 3;
  e.src = 1;
  e.dst = 2;
  e.kind = FaultKind::kDrop;
  plan.add(e);

  EXPECT_EQ(plan.match_send(2, 1, 2), nullptr);  // wrong step
  EXPECT_EQ(plan.match_send(3, 2, 1), nullptr);  // wrong direction
  FaultEvent* hit = plan.match_send(3, 1, 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->kind, FaultKind::kDrop);

  // Matching does not consume; firing does.
  EXPECT_NE(plan.match_send(3, 1, 2), nullptr);
  hit->fired = true;
  EXPECT_EQ(plan.match_send(3, 1, 2), nullptr);
  EXPECT_EQ(plan.fired_count(), 1);
  EXPECT_EQ(plan.unfired_count(), 0);
}

TEST(FaultPlan, MatchStallIgnoresDstAndNonStallEvents) {
  FaultPlan plan;
  FaultEvent drop;
  drop.step = 5;
  drop.src = 0;
  drop.dst = 1;
  drop.kind = FaultKind::kDrop;
  plan.add(drop);
  FaultEvent stall;
  stall.step = 5;
  stall.src = 0;
  stall.dst = 3;  // ignored for stalls
  stall.kind = FaultKind::kStall;
  plan.add(stall);

  FaultEvent* hit = plan.match_stall(5, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->kind, FaultKind::kStall);
  EXPECT_EQ(plan.match_stall(5, 1), nullptr);
  // match_send never returns stall events.
  FaultEvent* send_hit = plan.match_send(5, 0, 1);
  ASSERT_NE(send_hit, nullptr);
  EXPECT_EQ(send_hit->kind, FaultKind::kDrop);
}

TEST(FaultKinds, NameParseRoundTrip) {
  for (const FaultKind kind : kAllFaultKinds) {
    FaultKind parsed;
    ASSERT_TRUE(parse_fault_kind(fault_kind_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  FaultKind parsed;
  EXPECT_FALSE(parse_fault_kind("segfault", &parsed));
  EXPECT_FALSE(parse_fault_kind("", &parsed));
}

TEST(FaultKinds, OptInKindsParseButStayOutOfTheTransientCatalogue) {
  for (const FaultKind kind : {FaultKind::kRankDeath, FaultKind::kBitFlip}) {
    FaultKind parsed;
    ASSERT_TRUE(parse_fault_kind(fault_kind_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
    for (const FaultKind transient : kAllFaultKinds)
      EXPECT_NE(transient, kind);
  }
}

// ---------------------------------------------------------------------------
// Degenerate random() inputs: both axes of "no events requested" must
// yield an empty (but valid) plan, not a guard failure.

TEST(FaultPlan, RandomWithNoKindsIsEmpty) {
  const FaultPlan plan = FaultPlan::random(5, 10, kEdges, {}, 3);
  EXPECT_EQ(plan.total(), 0);
  EXPECT_EQ(plan.fired_count(), 0);
}

TEST(FaultPlan, RandomWithZeroEventsPerKindIsEmpty) {
  const FaultPlan plan = FaultPlan::random(5, 10, kEdges, all_kinds(), 0);
  EXPECT_EQ(plan.total(), 0);
  EXPECT_EQ(plan.unfired_count(), 0);
}

TEST(FaultPlan, RandomDrawsBitFlipParameters) {
  const FaultPlan plan =
      FaultPlan::random(9, 20, kEdges, {FaultKind::kBitFlip}, 8);
  EXPECT_EQ(plan.count(FaultKind::kBitFlip), 8);
  bool any_q = false, any_bit = false;
  for (const FaultEvent& e : plan.events()) {
    EXPECT_EQ(e.flip_point, 0);  // random() knows no lattice extent
    EXPECT_GE(e.flip_q, 0);
    EXPECT_LT(e.flip_q, 19);
    EXPECT_GE(e.flip_bit, 0);
    EXPECT_LT(e.flip_bit, 64);
    EXPECT_EQ(e.fired_rank, -1);  // ground truth is stamped at fire time
    EXPECT_EQ(e.fired_tile, -1);
    any_q |= e.flip_q != 0;
    any_bit |= e.flip_bit != 0;
  }
  EXPECT_TRUE(any_q);
  EXPECT_TRUE(any_bit);
}

// ---------------------------------------------------------------------------
// bit_flips(): the seeded SDC campaign generator.

TEST(FaultPlan, BitFlipsIsSeededDeterministicAndBounded) {
  const FaultPlan a = FaultPlan::bit_flips(42, 30, 5000, 12);
  const FaultPlan b = FaultPlan::bit_flips(42, 30, 5000, 12);
  ASSERT_EQ(a.total(), 12);
  ASSERT_EQ(b.total(), 12);
  for (int k = 0; k < a.total(); ++k) {
    const FaultEvent& ea = a.events()[static_cast<std::size_t>(k)];
    const FaultEvent& eb = b.events()[static_cast<std::size_t>(k)];
    EXPECT_EQ(ea.kind, FaultKind::kBitFlip);
    EXPECT_EQ(ea.step, eb.step);
    EXPECT_EQ(ea.flip_point, eb.flip_point);
    EXPECT_EQ(ea.flip_q, eb.flip_q);
    EXPECT_EQ(ea.flip_bit, eb.flip_bit);
    EXPECT_GE(ea.step, 0);
    EXPECT_LT(ea.step, 30);
    EXPECT_GE(ea.flip_point, 0);
    EXPECT_LT(ea.flip_point, 5000);
    EXPECT_GE(ea.flip_q, 0);
    EXPECT_LT(ea.flip_q, 19);
    EXPECT_GE(ea.flip_bit, 0);
    EXPECT_LT(ea.flip_bit, 64);
    EXPECT_FALSE(ea.fired);
  }
}

TEST(FaultPlan, BitFlipsWithZeroCountIsEmpty) {
  EXPECT_EQ(FaultPlan::bit_flips(3, 10, 100, 0).total(), 0);
}

TEST(FaultPlan, MatchBitFlipIsExactStepOneShotAndInvisibleToSends) {
  FaultPlan plan;
  FaultEvent drop;
  drop.step = 4;
  drop.src = 0;
  drop.dst = 1;
  drop.kind = FaultKind::kDrop;
  plan.add(drop);
  FaultEvent flip;
  flip.step = 4;
  flip.kind = FaultKind::kBitFlip;
  flip.flip_point = 17;
  plan.add(flip);

  // Exact-step matching: neither an earlier nor a later step fires it.
  EXPECT_EQ(plan.match_bit_flip(3), nullptr);
  EXPECT_EQ(plan.match_bit_flip(5), nullptr);
  FaultEvent* hit = plan.match_bit_flip(4);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->kind, FaultKind::kBitFlip);

  // The wire never sees a memory fault: match_send skips bit flips.
  FaultEvent* send_hit = plan.match_send(4, 0, 1);
  ASSERT_NE(send_hit, nullptr);
  EXPECT_EQ(send_hit->kind, FaultKind::kDrop);

  // One-shot: a rollback replaying step 4 must not re-fire the flip.
  hit->fired = true;
  EXPECT_EQ(plan.match_bit_flip(4), nullptr);
  EXPECT_EQ(plan.fired_count(FaultKind::kBitFlip), 1);
}

TEST(FaultPlanDeathTest, MalformedBitFlipIsRejectedAtAdd) {
  // A flip outside [0, kQ) would write past the rank's array and a shift
  // by 64 or more is undefined; both are refused before they are queued.
  const auto flip = [](int q, int bit) {
    FaultEvent e;
    e.kind = FaultKind::kBitFlip;
    e.flip_q = q;
    e.flip_bit = bit;
    return e;
  };
  FaultPlan plan;
  plan.add(flip(lbm::kQ - 1, 63));  // the last valid slot and bit
  EXPECT_EQ(plan.total(), 1);
  EXPECT_DEATH(plan.add(flip(lbm::kQ, 0)), "Precondition");
  EXPECT_DEATH(plan.add(flip(-1, 0)), "Precondition");
  EXPECT_DEATH(plan.add(flip(0, 64)), "Precondition");
  EXPECT_DEATH(plan.add(flip(0, -1)), "Precondition");
}

}  // namespace
}  // namespace hemo::resilience
