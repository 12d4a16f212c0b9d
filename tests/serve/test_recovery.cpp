// Journal replay and Server::restore() end to end: a journal written by
// a live server replays into the state that produced it; an interrupted
// journal (admission + a prefix of points, no terminal record) restores
// into a fresh server that delivers the journaled points without
// re-executing them and finishes the campaign byte-identical to an
// uninterrupted run; torn tails, corrupt records, duplicates and foreign
// files are absorbed or rejected exactly as documented.

#include "serve/recovery.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rt/campaign.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"

namespace hemo::serve {
namespace {

struct TempFile {
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

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

ServeOptions journaled_options(const std::string& path) {
  ServeOptions options;
  options.workers = 2;
  JournalOptions journal;
  journal.path = path;
  options.journal = journal;
  return options;
}

/// One campaign served to completion with a journal; returns its CSV.
std::string serve_with_journal(const std::string& wal_path,
                               const std::vector<rt::SeriesSpec>& series) {
  Server server(journaled_options(wal_path));
  TenantConfig config;
  config.weight = 2.0;
  config.budget = 1e9;
  config.max_pending_points = 512;
  EXPECT_FALSE(server.configure_tenant("alice", config));
  ServeHandle client(server, "alice");
  const Server::SubmitOutcome outcome = client.submit("recover-me", series);
  EXPECT_TRUE(outcome.admitted);
  return campaign_csv(client.wait(outcome.request_id));
}

TEST(Recovery, MissingFileIsEmptyFirstBoot) {
  TempFile file("recovery_missing.wal");
  const RecoveredState state = replay_journal(file.path);
  EXPECT_EQ(state.records, 0u);
  EXPECT_TRUE(state.requests.empty());
  EXPECT_FALSE(state.clean_shutdown);
  EXPECT_TRUE(state.truncated_reason.empty());
}

TEST(Recovery, ForeignHeaderThrows) {
  TempFile file("recovery_foreign.wal");
  {
    std::ofstream os(file.path, std::ios::binary);
    os << "this is not a hemo journal, do not resume against it";
  }
  EXPECT_THROW(replay_journal(file.path), JournalError);
}

TEST(Recovery, ReplaysCleanShutdownLog) {
  TempFile file("recovery_clean.wal");
  const std::vector<rt::SeriesSpec> series = {
      series_of("polaris:cuda:harvey:cylinder-slab")};
  serve_with_journal(file.path, series);

  const RecoveredState state = replay_journal(file.path);
  EXPECT_TRUE(state.clean_shutdown);
  EXPECT_TRUE(state.truncated_reason.empty());
  ASSERT_EQ(state.tenants.size(), 1u);
  EXPECT_EQ(state.tenants[0].first, "alice");
  EXPECT_EQ(state.tenants[0].second.weight, 2.0);
  ASSERT_EQ(state.requests.size(), 1u);
  const RecoveredRequest& request = state.requests[0];
  EXPECT_TRUE(request.done);
  EXPECT_EQ(request.status, WalDoneStatus::kCompleted);
  EXPECT_EQ(request.tenant, "alice");
  EXPECT_EQ(request.name, "recover-me");
  ASSERT_EQ(request.series.size(), 1u);
  EXPECT_FALSE(request.completed.empty());
  EXPECT_EQ(state.unfinished_requests(), 0u);
}

TEST(Recovery, TornTailIsReportedNotFatal) {
  TempFile file("recovery_torn.wal");
  const std::vector<rt::SeriesSpec> series = {
      series_of("polaris:cuda:harvey:cylinder-slab")};
  serve_with_journal(file.path, series);
  const RecoveredState whole = replay_journal(file.path);
  {
    std::ofstream os(file.path, std::ios::binary | std::ios::app);
    os.write("\x03\x00\x00\x00torn-record", 15);
  }
  const RecoveredState state = replay_journal(file.path);
  EXPECT_FALSE(state.truncated_reason.empty());
  EXPECT_EQ(state.valid_bytes, whole.valid_bytes);  // the prefix survives
  EXPECT_EQ(state.records, whole.records);
  EXPECT_TRUE(state.clean_shutdown);
}

TEST(Recovery, IgnoresDuplicateAndUnknownPoints) {
  TempFile file("recovery_dupes.wal");
  const std::vector<rt::SeriesSpec> series = {
      series_of("polaris:cuda:harvey:cylinder-slab")};
  rt::PointResult result;
  result.schedule.devices = 2;
  result.attempts = 1;
  result.sim.mflups = 1234.5;
  {
    Journal journal({file.path});
    WalBuffer admitted;
    wal_encode_admitted(&admitted, 1, "alice", "job", series);
    journal.append(WalTag::kAdmitted, admitted);
    WalBuffer point;
    wal_encode_point(&point, 1, 0, 3, result);
    journal.append(WalTag::kPoint, point);
    journal.append(WalTag::kPoint, point);  // duplicate: replay keeps one
    WalBuffer unknown;
    wal_encode_point(&unknown, 99, 0, 0, result);  // never admitted
    journal.append(WalTag::kPoint, unknown);
  }
  const RecoveredState state = replay_journal(file.path);
  EXPECT_TRUE(state.truncated_reason.empty());
  ASSERT_EQ(state.requests.size(), 1u);
  ASSERT_EQ(state.requests[0].completed.size(), 1u);
  EXPECT_EQ(state.requests[0].completed[0].point_index, 3u);
  EXPECT_EQ(state.unfinished_requests(), 1u);
}

// A CRC-valid admitted record whose series count cannot fit its payload
// (here 0xFFFFFFFF series in zero remaining bytes) is a malformed record:
// replay stops there with the valid prefix kept, instead of sizing an
// allocation from the count.
TEST(Recovery, OversizedSeriesCountTruncatesReplay) {
  TempFile file("recovery_series_count.wal");
  TenantConfig config;
  config.weight = 2.0;
  {
    Journal journal({file.path});
    WalBuffer tenant;
    wal_encode_tenant(&tenant, "alice", config);
    journal.append(WalTag::kTenantConfig, tenant);
  }
  const RecoveredState prefix = replay_journal(file.path);
  ASSERT_EQ(prefix.records, 1u);
  {
    JournalOptions resume{file.path};
    resume.resume_offset = prefix.valid_bytes;
    Journal journal(resume);
    WalBuffer admitted;
    admitted.u64(1);
    admitted.str("alice");
    admitted.str("job");
    admitted.u32(0xFFFFFFFFu);
    journal.append(WalTag::kAdmitted, admitted);
  }
  const RecoveredState state = replay_journal(file.path);
  EXPECT_NE(state.truncated_reason.find("4294967295 series"),
            std::string::npos)
      << state.truncated_reason;
  EXPECT_EQ(state.records, 1u);
  EXPECT_EQ(state.valid_bytes, prefix.valid_bytes);
  ASSERT_EQ(state.tenants.size(), 1u);
  EXPECT_EQ(state.tenants[0].second.weight, 2.0);
  EXPECT_TRUE(state.requests.empty());
}

// Replay reads exactly kJournalVersion: a header one version older or
// newer is refused, naming the version it found.
TEST(Recovery, RefusesOtherJournalVersions) {
  for (const std::uint32_t version :
       {kJournalVersion - 1, kJournalVersion + 1}) {
    TempFile file("recovery_version.wal");
    {
      WalBuffer header;
      header.u64(kJournalMagic);
      header.u32(version);
      std::ofstream os(file.path, std::ios::binary);
      os.write(header.bytes().data(),
               static_cast<std::streamsize>(header.bytes().size()));
    }
    try {
      replay_journal(file.path);
      ADD_FAILURE() << "version " << version << " was replayed";
    } catch (const JournalError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

// The tentpole property: an interrupted journal restores into a server
// that finishes the campaign byte-identical to the uninterrupted run,
// delivering journaled points from the log instead of re-executing them.
TEST(Recovery, RestoreFinishesInterruptedRequestByteIdentically) {
  const std::vector<rt::SeriesSpec> series = {
      series_of("polaris:cuda:harvey:cylinder-slab")};

  // Golden: the same campaign served uninterrupted.
  TempFile golden_wal("recovery_golden.wal");
  const std::string golden = serve_with_journal(golden_wal.path, series);
  const RecoveredState golden_state = replay_journal(golden_wal.path);
  ASSERT_EQ(golden_state.requests.size(), 1u);
  const RecoveredRequest& done_request = golden_state.requests[0];
  const std::size_t total = done_request.completed.size();
  ASSERT_GE(total, 4u);

  // Interrupted journal: the admission and the first half of the golden
  // run's point records, but neither the rest nor a terminal record —
  // exactly what a mid-campaign SIGKILL leaves (module the torn tail,
  // covered above).
  TempFile wal("recovery_interrupted.wal");
  const std::size_t keep = total / 2;
  {
    Journal journal({wal.path});
    WalBuffer tenant;
    wal_encode_tenant(&tenant, "alice", golden_state.tenants[0].second);
    journal.append(WalTag::kTenantConfig, tenant);
    WalBuffer admitted;
    wal_encode_admitted(&admitted, done_request.id, "alice", "recover-me",
                        series);
    journal.append(WalTag::kAdmitted, admitted);
    for (std::size_t k = 0; k < keep; ++k) {
      WalBuffer point;
      wal_encode_point(&point, done_request.id,
                       done_request.completed[k].series_index,
                       done_request.completed[k].point_index,
                       done_request.completed[k].result);
      journal.append(WalTag::kPoint, point);
    }
  }

  const RecoveredState state = replay_journal(wal.path);
  EXPECT_TRUE(state.truncated_reason.empty());
  EXPECT_FALSE(state.clean_shutdown);
  ASSERT_EQ(state.unfinished_requests(), 1u);

  {
    ServeOptions options = journaled_options(wal.path);
    options.journal->resume_offset = state.valid_bytes;
    Server server(options);
    ServeHandle client(server, "alice");
    std::uint64_t resumed_id = 0;
    const Server::RestoreOutcome outcome =
        server.restore(state, [&](const RecoveredRequest& request) {
          resumed_id = request.id;
          return client.adopt(request);
        });
    EXPECT_EQ(outcome.requests_resumed, 1u);
    EXPECT_EQ(outcome.points_replayed, keep);
    EXPECT_EQ(outcome.points_requeued, total - keep);
    EXPECT_EQ(resumed_id, done_request.id);

    const rt::CampaignResult result = client.wait(resumed_id);
    EXPECT_EQ(campaign_csv(result), golden);

    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.requests_resumed, 1u);
    EXPECT_EQ(stats.points_replayed, keep);
    // The dedup guarantee: only the lost half was executed.
    EXPECT_EQ(stats.board.executions, total - keep);
  }

  // The resumed journal is now terminal for the request and records the
  // orderly exit, so a further restart resumes nothing.
  const RecoveredState final_state = replay_journal(wal.path);
  EXPECT_TRUE(final_state.clean_shutdown);
  EXPECT_TRUE(final_state.truncated_reason.empty());
  ASSERT_EQ(final_state.requests.size(), 1u);
  EXPECT_TRUE(final_state.requests[0].done);
  EXPECT_EQ(final_state.unfinished_requests(), 0u);
}

// Replayed `recovered` point events are flagged so clients can tell a
// journal delivery from a fresh execution.
TEST(Recovery, ReplayedPointEventsCarryRecoveredFlag) {
  const std::vector<rt::SeriesSpec> series = {
      series_of("polaris:cuda:harvey:cylinder-slab")};
  TempFile golden_wal("recovery_flag_golden.wal");
  serve_with_journal(golden_wal.path, series);
  const RecoveredState golden_state = replay_journal(golden_wal.path);
  const RecoveredRequest& done_request = golden_state.requests[0];

  TempFile wal("recovery_flag.wal");
  {
    Journal journal({wal.path});
    WalBuffer admitted;
    wal_encode_admitted(&admitted, done_request.id, "alice", "job", series);
    journal.append(WalTag::kAdmitted, admitted);
    WalBuffer point;
    wal_encode_point(&point, done_request.id,
                     done_request.completed[0].series_index,
                     done_request.completed[0].point_index,
                     done_request.completed[0].result);
    journal.append(WalTag::kPoint, point);
  }
  const RecoveredState state = replay_journal(wal.path);

  ServeOptions options = journaled_options(wal.path);
  options.journal->resume_offset = state.valid_bytes;
  Server server(options);
  ServeHandle client(server, "alice");
  std::uint64_t id = 0;
  server.restore(state, [&](const RecoveredRequest& request) {
    id = request.id;
    return client.adopt(request);
  });
  std::size_t recovered_points = 0, executed_points = 0;
  for (;;) {
    const std::optional<Event> event = client.next_event();
    ASSERT_TRUE(event.has_value());
    if (event->kind == Event::Kind::kPoint)
      (event->recovered ? recovered_points : executed_points)++;
    if (event->kind == Event::Kind::kDone) break;
  }
  EXPECT_EQ(recovered_points, 1u);
  EXPECT_EQ(executed_points, done_request.completed.size() - 1);
}

}  // namespace
}  // namespace hemo::serve
