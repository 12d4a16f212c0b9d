// Load shedding under executor overload: once the fair-share backlog
// crosses the configured depth, new low-priority submits are rejected
// with the retryable `overloaded` reason, high-weight tenants keep being
// admitted until the hard limit, and admission recovers as soon as the
// backlog drains.  All deterministic: the executor is a single parked
// worker, so the backlog is exactly what the test queued.

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "rt/campaign.hpp"
#include "serve/server.hpp"

namespace hemo::serve {
namespace {

rt::SeriesSpec series_of(const std::string& text) {
  rt::SeriesSpec spec;
  EXPECT_TRUE(rt::parse_series(text, &spec)) << text;
  return spec;
}

struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

// One series = 12 schedule points; with one parked worker and one
// in-flight slot, a submitted campaign leaves 11 points in the
// fair-share queues.
const char* kSeries = "polaris:cuda:harvey:cylinder-slab";

ServeOptions parked_options(Gate* gate, std::size_t shed_queue_depth) {
  ServeOptions options;
  options.workers = 1;
  options.max_inflight = 1;
  options.shed_queue_depth = shed_queue_depth;
  options.execution_hook = [gate](const rt::SeriesSpec&,
                                  const sys::SchedulePoint&) { gate->wait(); };
  return options;
}

TEST(Overload, ShedsLowPriorityRejectsRetryablyAndRecoversAfterDrain) {
  Gate gate;
  Server server(parked_options(&gate, 8));
  TenantConfig heavy;
  heavy.weight = 2.0;  // >= kShedExemptWeight: exempt until the hard limit
  ASSERT_FALSE(server.configure_tenant("prio", heavy));
  ServeHandle low(server, "alice");
  ServeHandle high(server, "prio");

  // Fill the backlog past the shed depth (11 queued > 8).
  const Server::SubmitOutcome first =
      low.submit("fill", {series_of(kSeries)});
  ASSERT_TRUE(first.admitted);
  {
    const ServeStats stats = server.stats();
    EXPECT_GT(stats.queued, 8u);
  }

  // A low-weight tenant is shed with the retryable overloaded reason.
  const Server::SubmitOutcome shed =
      low.submit("shed-me", {series_of(kSeries)});
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, RejectReason::kOverloaded);
  EXPECT_TRUE(reject_retryable(shed.reason));
  {
    const std::optional<Event> event = low.next_event();  // accepted(fill)
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->kind, Event::Kind::kAccepted);
  }

  // The exempt tenant still gets in: 11 queued < hard limit 8 * 2.
  const Server::SubmitOutcome exempt =
      high.submit("priority", {series_of(kSeries)});
  EXPECT_TRUE(exempt.admitted) << exempt.detail;

  // ... but not unboundedly: 22 queued >= 16 sheds even weight 2.
  const Server::SubmitOutcome hard =
      high.submit("too-much", {series_of(kSeries)});
  EXPECT_FALSE(hard.admitted);
  EXPECT_EQ(hard.reason, RejectReason::kOverloaded);

  {
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.rejected_overloaded, 2u);
    EXPECT_EQ(stats.requests_rejected(), 2u);  // shed counts as rejected
    EXPECT_EQ(stats.requests_admitted, 2u);
  }

  // Fair-share recovery: release the worker, drain, and the same
  // low-weight tenant is admitted again.
  gate.release();
  low.wait(first.request_id);
  high.wait(exempt.request_id);
  server.wait_idle();
  {
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.queued, 0u);
  }
  const Server::SubmitOutcome retry =
      low.submit("retry", {series_of(kSeries)});
  EXPECT_TRUE(retry.admitted) << retry.detail;
  low.wait(retry.request_id);
}

TEST(Overload, SheddingOffByDefault) {
  Gate gate;
  Server server(parked_options(&gate, 0));  // 0 = shedding disabled
  ServeHandle client(server, "alice");
  const Server::SubmitOutcome a = client.submit("a", {series_of(kSeries)});
  const Server::SubmitOutcome b = client.submit("b", {series_of(kSeries)});
  EXPECT_TRUE(a.admitted);
  EXPECT_TRUE(b.admitted);  // 23 queued, but no threshold to cross
  gate.release();
  client.wait(a.request_id);
  client.wait(b.request_id);
  server.wait_idle();
}

// The rejected event carries the machine-readable retryable hint.
TEST(Overload, RejectedEventSaysOverloaded) {
  Gate gate;
  Server server(parked_options(&gate, 4));
  ServeHandle client(server, "alice");
  const Server::SubmitOutcome fill =
      client.submit("fill", {series_of(kSeries)});
  ASSERT_TRUE(fill.admitted);

  Event rejected;
  bool saw_rejected = false;
  server.submit("alice", "shed", {series_of(kSeries)}, [&](const Event& e) {
    rejected = e;
    saw_rejected = true;
  });
  ASSERT_TRUE(saw_rejected);
  EXPECT_EQ(rejected.kind, Event::Kind::kRejected);
  EXPECT_EQ(rejected.reason, RejectReason::kOverloaded);
  EXPECT_EQ(std::string(reject_reason_name(rejected.reason)), "overloaded");
  const std::string json = event_json(rejected);
  EXPECT_NE(json.find("\"retryable\": true"), std::string::npos) << json;

  gate.release();
  client.wait(fill.request_id);
  server.wait_idle();
}

}  // namespace
}  // namespace hemo::serve
