// hemo_serve: the multi-tenant campaign service daemon and its client.
//
//   hemo_serve --serve [--port P] [--workers N] [--shards N]
//              [--cache-capacity N] [--budget X] [--max-pending N]
//              [--journal FILE [--recover] [--fsync-every N]]
//              [--shed-queue N] [--quiet]
//       Boot the service on 127.0.0.1:P (0 picks a free port, printed on
//       stdout as "listening on <port>").  Runs until a client sends
//       {"op": "shutdown"} or the process receives SIGINT/SIGTERM, then
//       drains admitted work and prints final stats.  --budget/
//       --max-pending set the per-tenant admission defaults (a client
//       can override its own via {"op": "tenant"}).
//
//       --journal FILE arms the write-ahead journal: admissions, point
//       completions and terminal statuses are logged so a crashed server
//       can finish its unfinished campaigns.  An existing non-empty
//       journal refuses to boot without --recover, which replays the log
//       (tolerating the torn tail a SIGKILL leaves), re-admits
//       unfinished requests, delivers their already-completed points
//       from the journal without re-executing them, and resumes
//       appending.  --fsync-every N trades durability for throughput
//       (fsync once per N records; 1 = every record).  --shed-queue N
//       sheds new low-priority work with a retryable `overloaded`
//       rejection once the dispatch backlog reaches N points (0 = off).
//
//   hemo_serve --connect P --tenant T [--figure FIG] [--series S]...
//              [--name NAME] [--weight W] [--budget X] [--max-pending N]
//       Submit a campaign and stream its event lines to stdout until the
//       done (exit 0) or rejected (exit 1) event.  When --weight/--budget/
//       --max-pending are given, a tenant-config request is sent first.
//
//   hemo_serve --connect P --stats         Print the server's stats line.
//   hemo_serve --connect P --shutdown      Ask the server to shut down.
//
//   hemo_serve --smoke [--figure FIG] [--series S]... [--workers N]
//              [--quiet]
//       Self-contained end-to-end gate, no sockets: boots an in-process
//       server, has two tenants submit the identical campaign, and
//       verifies (a) the served results are byte-identical — CSV and
//       JSON — to run_campaign pricing the same spec, and (b) coalescing
//       collapsed the duplicate submission (fewer executions than
//       delivered points).  Exit 0 only if both hold.
//
// Examples:
//   hemo_serve --serve --port 7777 &
//   hemo_serve --connect 7777 --tenant alice --figure fig7
//   hemo_serve --connect 7777 --stats
//   hemo_serve --smoke --figure fig7 --workers 4

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "base/format.hpp"
#include "base/parse.hpp"
#include "rt/campaign.hpp"
#include "serve/protocol.hpp"
#include "serve/recovery.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"

namespace {

using namespace hemo;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --serve   [--port P] [--workers N] [--shards N]\n"
      "       %*s          [--cache-capacity N] [--budget X]\n"
      "       %*s          [--max-pending N] [--quiet]\n"
      "       %*s          [--journal FILE [--recover] [--fsync-every N]]\n"
      "       %*s          [--shed-queue N]\n"
      "       %s --connect P --tenant T [--figure FIG] [--series S]...\n"
      "       %*s          [--name NAME] [--weight W] [--budget X]\n"
      "       %*s          [--max-pending N]\n"
      "       %s --connect P (--stats | --shutdown)\n"
      "       %s --smoke   [--figure FIG] [--series S]... [--workers N]\n"
      "       %*s          [--quiet]\n",
      argv0, static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "", argv0,
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "", argv0, argv0,
      static_cast<int>(std::strlen(argv0)), "");
  return 2;
}

struct Args {
  enum class Mode { kNone, kServe, kConnect, kSmoke } mode = Mode::kNone;
  int port = 0;
  int workers = 0;
  int shards = 16;
  int cache_capacity = 256;
  std::string tenant;
  std::string name = "campaign";
  std::string figure;
  std::vector<std::string> series;
  double weight = -1.0;       // < 0: not set
  double budget = -1.0;       // < 0: not set
  int max_pending = -1;       // < 0: not set
  bool stats = false;
  bool shutdown = false;
  bool quiet = false;
  std::string journal;        // WAL path; empty = no durability
  bool recover = false;       // replay an existing journal before serving
  int fsync_every = 1;        // journal group-commit interval
  int shed_queue = 0;         // overload-shed backlog threshold; 0 = off
};

serve::ServeOptions serve_options(const Args& args) {
  serve::ServeOptions options;
  options.workers = args.workers;
  options.cache_capacity = static_cast<std::size_t>(args.cache_capacity);
  options.cache_shards = static_cast<std::size_t>(args.shards);
  if (args.budget >= 0.0) options.tenant_defaults.budget = args.budget;
  if (args.max_pending >= 0)
    options.tenant_defaults.max_pending_points = args.max_pending;
  if (!args.journal.empty()) {
    serve::JournalOptions journal;
    journal.path = args.journal;
    journal.group_commit = static_cast<std::size_t>(args.fsync_every);
    options.journal = journal;
  }
  options.shed_queue_depth = static_cast<std::size_t>(args.shed_queue);
  return options;
}

std::vector<rt::SeriesSpec> resolve_series(const Args& args, bool* ok) {
  *ok = true;
  std::vector<rt::SeriesSpec> series;
  if (!args.figure.empty()) {
    bool known = false;
    for (const std::string& f : rt::known_figures()) known |= (f == args.figure);
    if (!known) {
      std::fprintf(stderr, "unknown figure '%s'\n", args.figure.c_str());
      *ok = false;
      return series;
    }
    series = rt::figure_matrix(args.figure);
  }
  for (const std::string& text : args.series) {
    rt::SeriesSpec spec;
    if (!rt::parse_series(text, &spec)) {
      std::fprintf(stderr, "bad --series '%s'\n", text.c_str());
      *ok = false;
      return series;
    }
    series.push_back(spec);
  }
  if (series.empty()) {
    std::fprintf(stderr, "nothing to submit: pass --figure and/or --series\n");
    *ok = false;
  }
  return series;
}

void print_stats_summary(const serve::ServeStats& stats) {
  std::cout << "requests: " << stats.requests_admitted << " admitted, "
            << stats.requests_rejected() << " rejected\n"
            << "points:   " << stats.points_completed << "/"
            << stats.points_admitted << " completed, "
            << stats.board.executions << " executions, "
            << stats.board.coalesced << " coalesced, "
            << stats.board.memo_hits << " memo hits\n"
            << "cache:    " << stats.cache.hits << " hits / "
            << stats.cache.misses << " misses across "
            << stats.cache_shards.size() << " shard(s)\n"
            << "executor: " << stats.executor.executed
            << " jobs, queue high watermark "
            << stats.executor.queue_high_watermark << "\n";
}

// ---------------------------------------------------------------------------
// --serve
// ---------------------------------------------------------------------------

// SIGINT/SIGTERM land on a self-pipe: the handler does the one
// async-signal-safe thing (write a byte) and a watcher thread turns the
// byte into SocketServer::request_shutdown(), which stops intake and
// releases wait_shutdown() so the daemon drains and journals a clean
// shutdown exactly as for {"op": "shutdown"}.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_terminate_signal(int) {
  const char byte = 's';
  // The return value is unused: if the pipe is full a wakeup is already
  // pending, and there is nothing a handler could do about other errors.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Installs the handlers and hands shutdown requests to `front` from a
/// watcher thread.  Destruction restores default dispositions, closes
/// the pipe and joins the watcher.
class SignalShutdown {
 public:
  explicit SignalShutdown(serve::SocketServer& front) {
    if (::pipe(g_signal_pipe) != 0) return;
    struct sigaction action {};
    action.sa_handler = on_terminate_signal;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    watcher_ = std::thread([&front] {
      char byte;
      // One byte is one shutdown request; EOF means the daemon is
      // exiting on its own and the watcher should too.
      while (::read(g_signal_pipe[0], &byte, 1) > 0)
        front.request_shutdown();
    });
  }

  ~SignalShutdown() {
    if (g_signal_pipe[1] < 0) return;
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    ::close(g_signal_pipe[1]);  // EOF wakes the watcher out of read()
    if (watcher_.joinable()) watcher_.join();
    ::close(g_signal_pipe[0]);
    g_signal_pipe[0] = g_signal_pipe[1] = -1;
  }

 private:
  std::thread watcher_;
};

bool journal_file_nonempty(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && st.st_size > 0;
}

int run_serve(const Args& args) {
  serve::ServeOptions options = serve_options(args);

  // Recovery boot: replay the journal before the server exists, resume
  // appending after its valid prefix, and re-admit the unfinished
  // requests.  Their clients are gone, so the resumed events are
  // dropped; what matters is that the work completes, is journaled and
  // stays memoized for the next asker.
  serve::RecoveredState recovered;
  if (!args.journal.empty() && journal_file_nonempty(args.journal)) {
    if (!args.recover) {
      std::fprintf(stderr,
                   "hemo_serve: journal '%s' already exists; pass --recover "
                   "to replay and resume it\n",
                   args.journal.c_str());
      return 2;
    }
    try {
      recovered = serve::replay_journal(args.journal);
    } catch (const serve::JournalError& error) {
      std::fprintf(stderr, "hemo_serve: cannot replay journal '%s': %s\n",
                   args.journal.c_str(), error.what());
      return 2;
    }
    options.journal->resume_offset = recovered.valid_bytes;
    if (!args.quiet) {
      std::cout << "journal: " << recovered.records << " records, "
                << recovered.requests.size() << " requests ("
                << recovered.unfinished_requests() << " unfinished), "
                << (recovered.clean_shutdown ? "clean shutdown"
                                             : "no clean shutdown");
      if (!recovered.truncated_reason.empty())
        std::cout << ", tail truncated: " << recovered.truncated_reason;
      std::cout << "\n";
    }
  }

  serve::Server server(options);
  if (recovered.records > 0) {
    const serve::Server::RestoreOutcome outcome = server.restore(
        recovered, [](const serve::RecoveredRequest&) {
          return [](const serve::Event&) {};  // original client is gone
        });
    if (!args.quiet)
      std::cout << "recovered: " << outcome.requests_resumed << " resumed, "
                << outcome.requests_already_done << " already done, "
                << outcome.points_replayed << " points replayed, "
                << outcome.points_requeued << " re-queued\n";
  }

  serve::SocketServer front(server,
                            {static_cast<std::uint16_t>(args.port)});
  SignalShutdown signals(front);
  std::cout << "listening on " << front.port() << std::endl;
  front.wait_shutdown();
  server.wait_idle();  // drain admitted campaigns before going away
  if (!args.quiet) print_stats_summary(server.stats());
  front.stop();
  // The Server destructor appends the CleanShutdown record after this
  // return — every admitted request is already terminal in the journal.
  return 0;
}

// ---------------------------------------------------------------------------
// --connect
// ---------------------------------------------------------------------------

std::string tenant_request_json(const Args& args) {
  std::ostringstream os;
  os << "{\"op\": \"tenant\", \"tenant\": \"" << json_escape(args.tenant)
     << "\"";
  if (args.weight >= 0.0) os << ", \"weight\": " << args.weight;
  if (args.budget >= 0.0) os << ", \"budget\": " << args.budget;
  if (args.max_pending >= 0) os << ", \"max_pending\": " << args.max_pending;
  os << "}";
  return os.str();
}

std::string submit_request_json(const Args& args) {
  std::ostringstream os;
  os << "{\"op\": \"submit\", \"tenant\": \"" << json_escape(args.tenant)
     << "\", \"name\": \"" << json_escape(args.name) << "\"";
  if (!args.figure.empty())
    os << ", \"figure\": \"" << json_escape(args.figure) << "\"";
  if (!args.series.empty()) {
    os << ", \"series\": [";
    for (std::size_t i = 0; i < args.series.size(); ++i)
      os << (i ? ", " : "") << "\"" << json_escape(args.series[i])
         << "\"";
    os << "]";
  }
  os << "}";
  return os.str();
}

int run_connect(const Args& args) {
  serve::SocketClient client(static_cast<std::uint16_t>(args.port));
  if (!client.connected()) {
    std::fprintf(stderr, "hemo_serve: could not connect to 127.0.0.1:%d\n",
                 args.port);
    return 1;
  }
  std::string line;

  if (args.stats) {
    client.send_line("{\"op\": \"stats\"}");
    if (!client.recv_line(&line)) return 1;
    std::cout << line << "\n";
    return 0;
  }
  if (args.shutdown) {
    client.send_line("{\"op\": \"shutdown\"}");
    if (!client.recv_line(&line)) return 1;
    std::cout << line << "\n";
    return 0;
  }

  if (args.tenant.empty()) {
    std::fprintf(stderr, "--connect submissions need --tenant\n");
    return 2;
  }
  if (args.weight >= 0.0 || args.budget >= 0.0 || args.max_pending >= 0) {
    client.send_line(tenant_request_json(args));
    if (!client.recv_line(&line)) return 1;  // the tenant ack
    std::cout << line << "\n";
  }
  client.send_line(submit_request_json(args));
  while (client.recv_line(&line)) {
    std::cout << line << "\n";
    if (line.find("\"event\": \"done\"") != std::string::npos) return 0;
    if (line.find("\"event\": \"rejected\"") != std::string::npos) return 1;
  }
  std::fprintf(stderr, "connection closed before the done event\n");
  return 1;
}

// ---------------------------------------------------------------------------
// --smoke
// ---------------------------------------------------------------------------

std::string campaign_csv(const rt::CampaignResult& result) {
  std::ostringstream os;
  rt::write_campaign_csv(result, os);
  return os.str();
}

/// JSON with the runtime metadata (wall clock, shared cache/executor
/// counters) cleared on every input, so the comparison is about the
/// priced results — the fields the paper's figures are drawn from.
std::string normalized_campaign_json(rt::CampaignResult result) {
  result.wall_s = 0.0;
  result.workers = 0;
  result.cache = {};
  result.cache_shards.clear();
  result.executor = {};
  std::ostringstream os;
  rt::write_campaign_json(result, os);
  return os.str();
}

int run_smoke(const Args& args) {
  bool ok = false;
  const std::vector<rt::SeriesSpec> series = resolve_series(args, &ok);
  if (!ok) return 2;

  serve::Server server(serve_options(args));
  serve::ServeHandle alice(server, "alice");
  serve::ServeHandle bob(server, "bob");

  // Two tenants ask for the identical campaign; the coalescing layers
  // must collapse the duplicate points onto single executions.
  const serve::Server::SubmitOutcome a = alice.submit(args.name, series);
  const serve::Server::SubmitOutcome b = bob.submit(args.name, series);
  if (!a.admitted || !b.admitted) {
    std::fprintf(stderr, "smoke: submission rejected (%s)\n",
                 serve::reject_reason_name(!a.admitted ? a.reason : b.reason));
    return 1;
  }
  const rt::CampaignResult served_a = alice.wait(a.request_id);
  const rt::CampaignResult served_b = bob.wait(b.request_id);
  const serve::ServeStats stats = server.stats();

  // Reference: the batch runner pricing the same spec.
  rt::CampaignSpec spec;
  spec.name = args.name;
  spec.series = series;
  spec.workers = args.workers;
  const rt::CampaignResult reference = rt::run_campaign(spec);

  int failures = 0;
  const std::string reference_csv = campaign_csv(reference);
  if (campaign_csv(served_a) != reference_csv ||
      campaign_csv(served_b) != reference_csv) {
    std::fprintf(stderr, "smoke: served CSV differs from run_campaign\n");
    ++failures;
  }
  const std::string reference_json = normalized_campaign_json(reference);
  if (normalized_campaign_json(served_a) != reference_json ||
      normalized_campaign_json(served_b) != reference_json) {
    std::fprintf(stderr, "smoke: served JSON differs from run_campaign\n");
    ++failures;
  }
  const std::uint64_t shared =
      stats.board.coalesced + stats.board.memo_hits;
  if (shared == 0 || stats.board.executions >= stats.points_completed) {
    std::fprintf(stderr,
                 "smoke: no coalescing (%llu executions, %llu shared)\n",
                 static_cast<unsigned long long>(stats.board.executions),
                 static_cast<unsigned long long>(shared));
    ++failures;
  }

  if (!args.quiet) {
    print_stats_summary(stats);
    std::cout << (failures == 0 ? "smoke: OK — served output byte-identical "
                                  "to hemo_campaign, duplicates coalesced\n"
                                : "smoke: FAILED\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--serve") {
      args.mode = Args::Mode::kServe;
    } else if (arg == "--smoke") {
      args.mode = Args::Mode::kSmoke;
    } else if (arg == "--connect") {
      args.mode = Args::Mode::kConnect;
      const char* v = value();
      if (v == nullptr || !parse_int(v, &args.port) || args.port < 1 ||
          args.port > 65535)
        return usage(argv[0]);
    } else if (arg == "--port") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &args.port) || args.port < 0 ||
          args.port > 65535)
        return usage(argv[0]);
    } else if (arg == "--workers") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &args.workers) || args.workers < 0)
        return usage(argv[0]);
    } else if (arg == "--shards") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &args.shards) || args.shards < 1)
        return usage(argv[0]);
    } else if (arg == "--cache-capacity") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &args.cache_capacity) ||
          args.cache_capacity < 1)
        return usage(argv[0]);
    } else if (arg == "--tenant") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      args.tenant = v;
    } else if (arg == "--name") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      args.name = v;
    } else if (arg == "--figure") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      args.figure = v;
    } else if (arg == "--series") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      args.series.push_back(v);
    } else if (arg == "--weight") {
      const char* v = value();
      if (v == nullptr || !parse_double(v, &args.weight) || args.weight <= 0)
        return usage(argv[0]);
    } else if (arg == "--budget") {
      const char* v = value();
      if (v == nullptr || !parse_double(v, &args.budget) || args.budget < 0)
        return usage(argv[0]);
    } else if (arg == "--max-pending") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &args.max_pending) ||
          args.max_pending < 1)
        return usage(argv[0]);
    } else if (arg == "--journal") {
      const char* v = value();
      if (v == nullptr || *v == '\0') return usage(argv[0]);
      args.journal = v;
    } else if (arg == "--recover") {
      args.recover = true;
    } else if (arg == "--fsync-every") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &args.fsync_every) ||
          args.fsync_every < 1)
        return usage(argv[0]);
    } else if (arg == "--shed-queue") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &args.shed_queue) ||
          args.shed_queue < 0)
        return usage(argv[0]);
    } else if (arg == "--stats") {
      args.stats = true;
    } else if (arg == "--shutdown") {
      args.shutdown = true;
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  if (args.recover && args.journal.empty()) {
    std::fprintf(stderr, "--recover requires --journal\n");
    return usage(argv[0]);
  }

  switch (args.mode) {
    case Args::Mode::kServe:
      return run_serve(args);
    case Args::Mode::kConnect:
      return run_connect(args);
    case Args::Mode::kSmoke:
      return run_smoke(args);
    case Args::Mode::kNone:
      break;
  }
  return usage(argv[0]);
}
