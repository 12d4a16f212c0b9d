// The serve::Server engine end to end, through the in-process
// ServeHandle: byte-identical determinism against run_campaign,
// exactly-one-execution coalescing under concurrent identical submits,
// memoized repeat answers, fair-share completion bounds, typed admission
// rejections, and stats surfacing.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "rt/campaign.hpp"

namespace hemo::serve {
namespace {

rt::SeriesSpec series_of(const std::string& text) {
  rt::SeriesSpec spec;
  EXPECT_TRUE(rt::parse_series(text, &spec)) << text;
  return spec;
}

std::string campaign_csv(const rt::CampaignResult& result) {
  std::ostringstream os;
  rt::write_campaign_csv(result, os);
  return os.str();
}

/// JSON with the runtime metadata (shared cache/executor counters, wall
/// clock) cleared, so equality is about the priced results.
std::string normalized_json(rt::CampaignResult result) {
  result.wall_s = 0.0;
  result.workers = 0;
  result.cache = {};
  result.cache_shards.clear();
  result.executor = {};
  std::ostringstream os;
  rt::write_campaign_json(result, os);
  return os.str();
}

/// A gate the execution hook can park on until the test releases it.
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

// ---------------------------------------------------------------------------
// Determinism: the serve path must be byte-identical to run_campaign.
// ---------------------------------------------------------------------------

TEST(ServeDeterminism, ServedCampaignMatchesRunCampaignByteForByte) {
  // A mixed spec: two live series plus one the study never evaluated
  // (Summit/SYCL), which must surface as the same structured failures.
  const std::vector<rt::SeriesSpec> series = {
      series_of("polaris:cuda:harvey:cylinder-slab"),
      series_of("summit:sycl:harvey:cylinder-slab"),
      series_of("summit:cuda:proxy:cylinder-bisection"),
  };
  ASSERT_TRUE(rt::unavailable_failure(series[1]).has_value());

  ServeOptions options;
  options.workers = 4;
  Server server(options);
  ServeHandle handle(server, "alice");
  const Server::SubmitOutcome outcome = handle.submit("job", series);
  ASSERT_TRUE(outcome.admitted);
  const rt::CampaignResult served = handle.wait(outcome.request_id);

  rt::CampaignSpec spec;
  spec.name = "job";
  spec.series = series;
  spec.workers = 4;
  const rt::CampaignResult reference = rt::run_campaign(spec);

  EXPECT_EQ(campaign_csv(served), campaign_csv(reference));
  EXPECT_EQ(normalized_json(served), normalized_json(reference));
}

TEST(ServeDeterminism, ServedResultIsIndependentOfWorkerCount) {
  const std::vector<rt::SeriesSpec> series = {
      series_of("crusher:sycl:harvey:cylinder-bisection")};
  std::string first;
  for (const int workers : {1, 4}) {
    ServeOptions options;
    options.workers = workers;
    Server server(options);
    ServeHandle handle(server, "t");
    const Server::SubmitOutcome outcome = handle.submit("job", series);
    ASSERT_TRUE(outcome.admitted);
    const std::string csv = campaign_csv(handle.wait(outcome.request_id));
    if (first.empty())
      first = csv;
    else
      EXPECT_EQ(csv, first);
  }
}

// ---------------------------------------------------------------------------
// Coalescing.
// ---------------------------------------------------------------------------

TEST(ServeCoalescing, ConcurrentIdenticalCampaignsExecuteEachPointOnce) {
  const std::vector<rt::SeriesSpec> series = {
      series_of("polaris:cuda:harvey:cylinder-slab")};
  const std::size_t points = sys::piecewise_schedule(1024).size();

  // Park every execution until both tenants have submitted, so the
  // second submission demonstrably overlaps the first in flight.
  Gate gate;
  std::atomic<std::uint64_t> executions{0};
  ServeOptions options;
  options.workers = 2;
  options.execution_hook = [&gate, &executions](const rt::SeriesSpec&,
                                                const sys::SchedulePoint&) {
    ++executions;
    gate.wait();
  };
  Server server(options);
  ServeHandle alice(server, "alice");
  ServeHandle bob(server, "bob");

  const Server::SubmitOutcome a = alice.submit("job", series);
  const Server::SubmitOutcome b = bob.submit("job", series);
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  gate.release();

  const rt::CampaignResult result_a = alice.wait(a.request_id);
  const rt::CampaignResult result_b = bob.wait(b.request_id);
  EXPECT_EQ(campaign_csv(result_a), campaign_csv(result_b));

  // The exactly-once property: every distinct point priced one time,
  // the duplicate campaign served entirely by subscription or memo.
  EXPECT_EQ(executions.load(), points);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.board.executions, points);
  EXPECT_EQ(stats.board.coalesced + stats.board.memo_hits, points);
  EXPECT_EQ(stats.points_completed, 2 * points);
}

TEST(ServeCoalescing, RepeatSubmissionIsAnsweredFromTheMemo) {
  const std::vector<rt::SeriesSpec> series = {
      series_of("sunspot:sycl:harvey:cylinder-slab")};
  ServeOptions options;
  options.workers = 2;
  Server server(options);

  ServeHandle alice(server, "alice");
  const Server::SubmitOutcome a = alice.submit("job", series);
  ASSERT_TRUE(a.admitted);
  alice.wait(a.request_id);
  const std::uint64_t executions_after_first =
      server.stats().board.executions;

  // A later identical campaign re-executes nothing, and every point
  // event announces it was coalesced.
  ServeHandle bob(server, "bob");
  const Server::SubmitOutcome b = bob.submit("job", series);
  ASSERT_TRUE(b.admitted);
  std::size_t coalesced_points = 0;
  for (;;) {
    const std::optional<Event> event = bob.next_event();
    ASSERT_TRUE(event.has_value());
    if (event->kind == Event::Kind::kDone) break;
    if (event->kind == Event::Kind::kPoint) {
      EXPECT_TRUE(event->coalesced);
      ++coalesced_points;
    }
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.board.executions, executions_after_first);
  EXPECT_EQ(coalesced_points, stats.board.memo_hits);
}

// ---------------------------------------------------------------------------
// Fair share.
// ---------------------------------------------------------------------------

TEST(ServeFairness, InteractiveTenantFinishesIndependentOfBulkBacklog) {
  // Bulk floods 4 series first; the interactive tenant's single series
  // (distinct keys — no coalescing) must complete while bulk still has
  // most of its backlog outstanding.
  const std::vector<rt::SeriesSpec> bulk_series = {
      series_of("summit:cuda:harvey:cylinder-slab"),
      series_of("polaris:cuda:harvey:cylinder-slab"),
      series_of("crusher:hip:harvey:cylinder-slab"),
      series_of("sunspot:sycl:harvey:cylinder-slab"),
  };
  const std::vector<rt::SeriesSpec> interactive_series = {
      series_of("summit:cuda:proxy:cylinder-slab")};

  // One worker, window of one: dispatch order is the completion order.
  // The gate holds the first execution until both tenants are queued.  The
  // hook records that order (true = an interactive point) as it runs.
  Gate gate;
  std::atomic<bool> first{true};
  std::mutex order_mu;
  std::vector<bool> order;
  ServeOptions options;
  options.workers = 1;
  options.max_inflight = 1;
  options.execution_hook = [&](const rt::SeriesSpec& spec,
                               const sys::SchedulePoint&) {
    {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(spec.app == sim::App::kProxy);
    }
    if (first.exchange(false)) gate.wait();
  };
  Server server(options);

  ServeHandle bulk(server, "bulk");
  ServeHandle interactive(server, "interactive");
  const Server::SubmitOutcome b = bulk.submit("bulk", bulk_series);
  const Server::SubmitOutcome i =
      interactive.submit("interactive", interactive_series);
  ASSERT_TRUE(b.admitted);
  ASSERT_TRUE(i.admitted);
  gate.release();

  const rt::CampaignResult result = interactive.wait(i.request_id);
  const std::size_t interactive_points = result.total_points();
  bulk.wait(b.request_id);  // drain before reading the order
  EXPECT_EQ(server.stats().points_completed,
            server.stats().points_admitted);

  // Round-robin bounds the interactive tenant's completion: by its last
  // point, at most ~one bulk point per interactive point had run.  A FIFO
  // would have priced all 46 bulk points first.  The bound is read off
  // the execution order, not the live completion counter, because the
  // worker keeps pricing bulk points after the interactive series is done.
  std::lock_guard<std::mutex> lock(order_mu);
  ASSERT_EQ(static_cast<std::size_t>(
                std::count(order.begin(), order.end(), true)),
            interactive_points);
  const auto last_interactive =
      std::find(order.rbegin(), order.rend(), true).base();
  EXPECT_LE(static_cast<std::size_t>(last_interactive - order.begin()),
            2 * interactive_points + 4);
}

// ---------------------------------------------------------------------------
// Admission.
// ---------------------------------------------------------------------------

TEST(ServeAdmission, OverBudgetSubmitsAreRejectedWithTypedEvents) {
  ServeOptions options;
  options.workers = 1;
  Server server(options);
  TenantConfig tiny;
  tiny.budget = 1e-6;  // smaller than any real campaign's predicted cost
  server.configure_tenant("alice", tiny);

  ServeHandle alice(server, "alice");
  const Server::SubmitOutcome outcome = alice.submit(
      "job", {series_of("polaris:cuda:harvey:cylinder-slab")});
  EXPECT_FALSE(outcome.admitted);
  EXPECT_EQ(outcome.reason, RejectReason::kOverBudget);

  const std::optional<Event> event = alice.next_event();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, Event::Kind::kRejected);
  EXPECT_EQ(event->reason, RejectReason::kOverBudget);
  EXPECT_EQ(server.stats().rejected_over_budget, 1u);

  // Rejection charges nothing: a cheap probe still fits after raising
  // the budget.
  TenantConfig roomy;
  server.configure_tenant("alice", roomy);
  const Server::SubmitOutcome retry = alice.submit(
      "job", {series_of("polaris:cuda:harvey:cylinder-slab")});
  EXPECT_TRUE(retry.admitted);
  alice.wait(retry.request_id);
}

TEST(ServeAdmission, PendingPointBoundRejectsAsQueueFull) {
  ServeOptions options;
  options.workers = 1;
  options.tenant_defaults.max_pending_points = 5;  // < 12 schedule points
  Server server(options);
  ServeHandle alice(server, "alice");
  const Server::SubmitOutcome outcome = alice.submit(
      "job", {series_of("polaris:cuda:harvey:cylinder-slab")});
  EXPECT_FALSE(outcome.admitted);
  EXPECT_EQ(outcome.reason, RejectReason::kQueueFull);
  EXPECT_EQ(server.stats().rejected_queue_full, 1u);
}

TEST(ServeAdmission, ShutdownRejectsNewWorkButDrainsAdmitted) {
  ServeOptions options;
  options.workers = 2;
  Server server(options);
  ServeHandle alice(server, "alice");
  const Server::SubmitOutcome admitted = alice.submit(
      "job", {series_of("crusher:hip:harvey:cylinder-slab")});
  ASSERT_TRUE(admitted.admitted);

  server.begin_shutdown();
  const Server::SubmitOutcome late = alice.submit(
      "late", {series_of("crusher:hip:harvey:cylinder-slab")});
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(late.reason, RejectReason::kShuttingDown);

  // The admitted campaign still completes.
  const rt::CampaignResult result = alice.wait(admitted.request_id);
  EXPECT_EQ(result.failed_points(), 0u);
  server.wait_idle();
}

TEST(ServeAdmission, InvalidTenantConfigIsReportedNotFatal) {
  // Client-supplied configs must come back as errors; only the typed
  // validator stands between a NaN weight and a HEMO_EXPECTS abort.
  Server server;
  TenantConfig bad;
  bad.weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(server.configure_tenant("alice", bad).has_value());
  bad = TenantConfig{};
  bad.weight = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(server.configure_tenant("alice", bad).has_value());
  bad = TenantConfig{};
  bad.budget = 0.0;
  EXPECT_TRUE(server.configure_tenant("alice", bad).has_value());
  bad = TenantConfig{};
  bad.max_pending_points = 0;
  EXPECT_TRUE(server.configure_tenant("alice", bad).has_value());

  // A rejected config leaves the tenant on its previous settings.
  ServeHandle alice(server, "alice");
  const Server::SubmitOutcome outcome = alice.submit(
      "job", {series_of("polaris:cuda:harvey:cylinder-slab")});
  ASSERT_TRUE(outcome.admitted);
  alice.wait(outcome.request_id);
}

TEST(ServeAdmission, EmptyOrAnonymousSubmitsAreBadRequests) {
  Server server;
  ServeHandle alice(server, "alice");
  EXPECT_EQ(alice.submit("job", {}).reason, RejectReason::kBadRequest);
  ServeHandle anonymous(server, "");
  EXPECT_EQ(anonymous
                .submit("job", {series_of("polaris:cuda")})
                .reason,
            RejectReason::kBadRequest);
  EXPECT_EQ(server.stats().rejected_bad_request, 2u);
}

// ---------------------------------------------------------------------------
// Unavailable combinations and event-stream shape.
// ---------------------------------------------------------------------------

TEST(ServeEvents, UnavailableSeriesDeliversStructuredFailures) {
  ServeOptions options;
  options.workers = 1;
  Server server(options);
  ServeHandle alice(server, "alice");
  const Server::SubmitOutcome outcome =
      alice.submit("job", {series_of("summit:sycl:harvey:cylinder-slab")});
  ASSERT_TRUE(outcome.admitted);

  std::size_t failed = 0;
  for (;;) {
    const std::optional<Event> event = alice.next_event();
    ASSERT_TRUE(event.has_value());
    if (event->kind == Event::Kind::kDone) {
      EXPECT_EQ(event->failed, failed);
      break;
    }
    if (event->kind != Event::Kind::kPoint) continue;
    ASSERT_FALSE(event->result.ok());
    EXPECT_EQ(event->result.attempts, 0);
    EXPECT_NE(event->result.failure->message.find("was not evaluated"),
              std::string::npos);
    ++failed;
  }
  EXPECT_EQ(failed, sys::piecewise_schedule(1024).size());
}

TEST(ServeEvents, AcceptedComesFirstAndDoneComesLast) {
  // Repeated rounds: every round races the workers against the
  // submitting thread, and the per-request outbox must still deliver
  // accepted before any point a fast worker completes, and done last.
  ServeOptions options;
  options.workers = 4;
  Server server(options);
  ServeHandle alice(server, "alice");
  for (int round = 0; round < 5; ++round) {
    const Server::SubmitOutcome outcome =
        alice.submit("job", {series_of("sunspot:hip:harvey:cylinder-slab")});
    ASSERT_TRUE(outcome.admitted);

    std::vector<Event::Kind> kinds;
    for (;;) {
      const std::optional<Event> event = alice.next_event();
      ASSERT_TRUE(event.has_value());
      kinds.push_back(event->kind);
      if (event->kind == Event::Kind::kDone) break;
    }
    ASSERT_GE(kinds.size(), 3u);
    EXPECT_EQ(kinds.front(), Event::Kind::kAccepted);
    EXPECT_EQ(kinds.back(), Event::Kind::kDone);
    for (std::size_t i = 1; i + 1 < kinds.size(); ++i)
      EXPECT_EQ(kinds[i], Event::Kind::kPoint);
  }
}

TEST(ServeStatsSurface, SharedRuntimeCountersAreExposed) {
  ServeOptions options;
  options.workers = 2;
  options.cache_shards = 8;
  Server server(options);
  ServeHandle alice(server, "alice");
  const Server::SubmitOutcome outcome = alice.submit(
      "job", {series_of("polaris:kokkos-sycl:harvey:cylinder-slab")});
  ASSERT_TRUE(outcome.admitted);
  alice.wait(outcome.request_id);

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.cache_shards.size(), 8u);
  EXPECT_GT(stats.cache.misses, 0u);
  EXPECT_GT(stats.executor.executed, 0u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].first, "alice");
  EXPECT_EQ(stats.tenants[0].second.completed_points,
            sys::piecewise_schedule(1024).size());
  EXPECT_EQ(stats.tenants[0].second.pending_points, 0);
  EXPECT_DOUBLE_EQ(stats.tenants[0].second.charged, 0.0);
}

}  // namespace
}  // namespace hemo::serve
