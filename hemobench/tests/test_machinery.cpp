// Self-tests of the benchmark machinery: quantile and window arithmetic,
// open-loop lateness, reproducible seeded inputs, span self time, the
// computed byte model and the wire-versus-plan check.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>

#include "common.hpp"
#include "metered_network.hpp"
#include "open_loop.hpp"
#include "trace.hpp"
#include "workload_plans.hpp"

namespace hemo::bench {
namespace {

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
}

TEST(Quantile, TenthPercentileOfElevenIsSecondSmallest) {
  std::vector<double> v;
  for (int i = 10; i >= 0; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(v, 0.10), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.90), 9.0);
}

TEST(Windows, OneSamplePerWindowAtItsPerStepCost) {
  const std::vector<Window> windows = {
      {0.2, 2}, {0.1, 2}, {0.4, 4}, {0.3, 0}};  // the last has no steps
  const WindowSummary s = summarize_windows(windows);
  EXPECT_EQ(s.windows, 3u);
  EXPECT_EQ(s.steps, 8);
  EXPECT_DOUBLE_EQ(s.seconds, 0.7);
  // Per-step ms: 100, 50, 100.
  EXPECT_DOUBLE_EQ(s.step_ms_p50, 100.0);
  EXPECT_DOUBLE_EQ(s.step_ms_p10, 60.0);
}

TEST(Metrics, SetReplacesInPlaceAndKeepsOrder) {
  Metrics m;
  m.set("b", 1.0, "ms");
  m.set("a", 2.0, "s");
  m.set("b", 3.0, "ms");
  ASSERT_EQ(m.entries().size(), 2u);
  EXPECT_EQ(m.entries()[0].name, "b");
  EXPECT_DOUBLE_EQ(m.get("b"), 3.0);
  EXPECT_TRUE(std::isnan(m.get("missing")));
}

TEST(OpenLoop, StalledSinkDelaysLaterRequestsMeasuredFromDueTime) {
  // Request 0's send stalls for 60 ms, as a sink blocking inside submit()
  // would.  Requests due during the stall go out late; their latency, from
  // due time, must include the wait.  A request due after the stall is on
  // time again.
  const std::vector<double> due = {0.000, 0.010, 0.020, 0.200};
  std::vector<Clock::time_point> done(due.size());
  const Clock::time_point t0 = Clock::now();
  const std::vector<double> lag = run_open_loop(due, t0, [&](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(60));
    done[i] = Clock::now();
  });
  EXPECT_GE(latency_from_due(t0, due[0], done[0]), 0.060);
  EXPECT_GE(latency_from_due(t0, due[1], done[1]), 0.045);
  EXPECT_GE(latency_from_due(t0, due[2], done[2]), 0.035);
  EXPECT_GE(lag[1], 0.045);
  EXPECT_LT(lag[3], 0.050);
  EXPECT_LT(latency_from_due(t0, due[3], done[3]), 0.050);
}

TEST(RequestStream, SeedReproducesExactly) {
  const auto a = make_request_stream(7, 500.0, 2.0, 63, 3);
  const auto b = make_request_stream(7, 500.0, 2.0, 63, 3);
  const auto c = make_request_stream(8, 500.0, 2.0, 63, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].series, b[i].series);
  }
  EXPECT_TRUE(a.size() != c.size() || a[0].due_s != c[0].due_s);
}

TEST(RequestStream, ShapeMatchesTheSpec) {
  const auto s = make_request_stream(3, 1000.0, 5.0, 63, 3);
  // Poisson count: 5000 expected, well within 5 sigma.
  EXPECT_NEAR(static_cast<double>(s.size()), 5000.0, 5 * std::sqrt(5000.0));
  std::vector<int> hits(63, 0);
  double prev = 0.0;
  for (const Request& r : s) {
    EXPECT_GE(r.due_s, prev);
    EXPECT_LT(r.due_s, 5.0);
    prev = r.due_s;
    EXPECT_GE(r.tenant, 0);
    EXPECT_LT(r.tenant, 3);
    ASSERT_GE(r.series.size(), 1u);
    ASSERT_LE(r.series.size(), 3u);
    for (std::size_t i = 0; i < r.series.size(); ++i) {
      ++hits[static_cast<std::size_t>(r.series[i])];
      for (std::size_t j = i + 1; j < r.series.size(); ++j)
        EXPECT_NE(r.series[i], r.series[j]);
    }
  }
  EXPECT_GT(hits[0], 4 * hits[62]);  // Zipf skew toward series 0
}

TEST(FaultPlan, SeedReproducesExactly) {
  const std::vector<std::pair<Rank, Rank>> edges = {{0, 1}, {1, 0}, {1, 2}};
  constexpr int kWindow = 8;
  const auto a = make_fault_plan(42, edges, 1000, kWindow);
  const auto b = make_fault_plan(42, edges, 1000, kWindow);
  ASSERT_EQ(a.total(), b.total());
  for (int i = 0; i < a.total(); ++i) {
    const auto& x = a.events()[static_cast<std::size_t>(i)];
    const auto& y = b.events()[static_cast<std::size_t>(i)];
    EXPECT_EQ(x.step, y.step);
    EXPECT_EQ(x.src, y.src);
    EXPECT_EQ(x.dst, y.dst);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.payload_index, y.payload_index);
    EXPECT_EQ(x.xor_mask, y.xor_mask);
    EXPECT_EQ(x.truncate_by, y.truncate_by);
    EXPECT_EQ(x.flip_point, y.flip_point);
    EXPECT_EQ(x.flip_q, y.flip_q);
    EXPECT_EQ(x.flip_bit, y.flip_bit);
  }
  using resilience::FaultKind;
  EXPECT_EQ(a.count(FaultKind::kBitFlip), kBitFlips);
  EXPECT_EQ(a.count(FaultKind::kStall), 0);
  EXPECT_EQ(a.count(FaultKind::kDrop), kWireFaultsPerKind);
  for (const auto& e : a.events()) {
    if (e.kind == FaultKind::kBitFlip) {
      EXPECT_EQ(e.step % kWindow, kWindow / 2);
    }
  }
  const auto c = make_fault_plan(43, edges, 1000, kWindow);
  EXPECT_NE(a.events().front().step + a.events().front().src * 10000,
            c.events().front().step + c.events().front().src * 10000);
}

TEST(Spans, UnionCountsOverlapOnce) {
  EXPECT_DOUBLE_EQ(union_length({{0, 2}, {1, 3}, {5, 6}}), 4.0);
  EXPECT_DOUBLE_EQ(union_length({{2, 2}, {3, 1}}), 0.0);
  EXPECT_DOUBLE_EQ(union_length({}), 0.0);
}

TEST(Spans, SelfTimeSubtractsChildrenClippedToParent) {
  std::vector<Span> spans(5);
  spans[0] = {1, 0, 0, "parent", 0.0, 10.0};
  spans[1] = {2, 1, 0, "a", 1.0, 3.0};
  spans[2] = {3, 1, 0, "b", 2.0, 5.0};   // overlaps a
  spans[3] = {4, 1, 0, "c", 8.0, 12.0};  // runs past the parent
  spans[4] = {5, 2, 0, "grandchild", 1.5, 2.5};
  const std::vector<double> self = self_times_ms(spans);
  // Children cover [1, 5] and [8, 10] of the parent: 6 of its 10 ms.
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[1], 1.0);  // a minus its grandchild
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer off(false);
  const Clock::time_point t = Clock::now();
  EXPECT_EQ(off.record("x", 0, 0, t, t), 0u);
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  const std::uint64_t parent = on.next_id();
  on.record("child", parent, 7, t, t + std::chrono::milliseconds(2));
  on.record(parent, "parent", 0, 7, t, t + std::chrono::milliseconds(5));
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_NEAR(self_times_ms(on.spans())[1], 3.0, 1e-9);
}

TEST(ByteModel, CountsAdjacencyAndNodeTypeBeyondTheModel) {
  using lbm::Propagation;
  EXPECT_DOUBLE_EQ(computed_bytes_per_point(Propagation::kPullSoA, 0.3),
                   304.0 + 152.0 + 1.0);
  EXPECT_DOUBLE_EQ(computed_bytes_per_point(Propagation::kAAInPlace, 0.0),
                   152.0 + 76.0 + 1.0);
  EXPECT_DOUBLE_EQ(computed_bytes_per_point(Propagation::kAAInPlace, 1.0),
                   152.0 + 152.0 + 1.0);
}

TEST(MeteredNetwork, ForwardsAndMatchesThePlanExactly) {
  decomp::HaloPlan plan;
  plan.messages = {{0, 1, 3}, {1, 0, 2}};
  MeteredNetwork net(std::make_unique<comm::Network>(2));
  for (int step = 0; step < 2; ++step) {
    net.begin_step(step);
    net.send(0, 1, std::vector<double>(4));  // 3 values + CRC word
    net.send(1, 0, std::vector<double>(3));
    EXPECT_EQ(net.receive(1, 0).size(), 4u);
    EXPECT_EQ(net.receive(0, 1).size(), 3u);
  }
  net.send(1, 0, std::vector<double>(3));  // one retransmission
  EXPECT_EQ(net.pending(0, 1), 1);
  EXPECT_THROW(net.receive(1, 0), comm::RecvError);
  const WireCounts& c = net.counts();
  EXPECT_EQ(c.messages, 5);
  EXPECT_EQ(c.bytes, (2 * 4 + 3 * 3) * 8);
  EXPECT_EQ(c.step_attempts, 2);
  EXPECT_EQ(c.failed_receives, 1);
  EXPECT_TRUE(check_wire_against_plan(c, plan, 1, 1).empty());
  EXPECT_EQ(check_wire_against_plan(c, plan, 1, 0).size(), 1u);
  EXPECT_FALSE(check_wire_against_plan(c, plan, 0, 1).empty());

  net.send(0, 1, std::vector<double>(5));  // off-size frame
  EXPECT_FALSE(check_wire_against_plan(net.counts(), plan, 1, 2).empty());
}

}  // namespace
}  // namespace hemo::bench
