#pragma once
// The hemo-serve campaign service core: one long-running engine that
// multiplexes many tenants' campaign requests onto a single shared
// rt::Executor and a single sharded rt::ArtifactCache.
//
//   submit ─► admission control (perf-priced budget, pending bound)
//          ─► per-tenant fair-share queues (FairShareDispatcher)
//          ─► coalescing board (identical points computed once)
//          ─► bounded in-flight window on the shared executor
//          ─► per-point events streamed back as they complete
//
// Every point is priced by rt::price_point — the same function
// run_campaign calls — so a campaign served here is byte-identical to
// the same campaign run by the hemo_campaign CLI (the determinism gate
// in tests/serve asserts this).
//
// Threading: one mutex guards all scheduling state (admission,
// dispatcher, board, request table).  Point execution and event sinks
// run outside it: a worker prices a point, takes the lock to record the
// completion and pull the next dispatches, then emits events unlocked.
// Each request's events are staged under the lock into a per-request
// outbox and drained by exactly one thread at a time in staging order,
// so a request's sink is never called concurrently and its events
// arrive in a guaranteed order — accepted first, then points as they
// complete, then done last — even when a worker finishes a point before
// the submitting thread has returned.
//
// Durability (hemo-durable): with ServeOptions::journal set, tenant
// configs, admissions, point completions and terminal statuses are
// appended to a write-ahead journal *before* the corresponding event is
// staged for a client, so restore() can replay a crashed process's log
// and finish its unfinished requests byte-identically (already-completed
// points are delivered from the journal, never re-executed).
//
// Deadlines: a submit may carry a deadline; when it passes, the request's
// queued points are cancelled (their admission budget freed), in-flight
// executions every subscriber abandoned are dropped cooperatively, and
// the client receives exactly one deadline_exceeded event before done.
//
// Overload shedding: past a configurable dispatcher-backlog threshold, new
// work from non-exempt tenants is rejected with the retryable `overloaded`
// reason instead of queuing unboundedly.
//
// The in-process ServeHandle below is the no-socket client used by tests
// and embedders; the wire front-end lives in serve/socket.hpp.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rt/cache.hpp"
#include "rt/campaign.hpp"
#include "rt/executor.hpp"
#include "serve/admission.hpp"
#include "serve/coalesce.hpp"
#include "serve/dispatch.hpp"
#include "serve/journal.hpp"
#include "serve/recovery.hpp"

namespace hemo::serve {

/// Tenants with weight >= this keep being admitted through a load shed —
/// until the hard limit below, which protects the server itself.
inline constexpr double kShedExemptWeight = 2.0;
/// Even exempt tenants are shed at ServeOptions::shed_queue_depth * this.
inline constexpr std::size_t kShedHardFactor = 2;

struct ServeOptions {
  int workers = 0;                  // <= 0: hardware concurrency
  std::size_t cache_capacity = 256;
  /// Lock stripes of the shared ArtifactCache.  16 keeps cross-tenant
  /// contention negligible at every worker count this serves (see
  /// DESIGN.md, "Shard count") while costing nothing when idle.
  std::size_t cache_shards = 16;
  /// Points allowed in/on the executor at once; 0 = 2x workers.  The gap
  /// between this and the backlog is what the fair-share dispatcher
  /// schedules over.
  std::size_t max_inflight = 0;
  /// Completed-point memo capacity (CoalescingBoard).
  std::size_t memo_capacity = 4096;
  TenantConfig tenant_defaults;
  /// Test hook, called on the worker at the start of every *execution*
  /// (never for coalesced or memoized deliveries).  The coalescing tests
  /// park executions here to force an in-flight overlap.
  std::function<void(const rt::SeriesSpec&, const sys::SchedulePoint&)>
      execution_hook;

  /// Write-ahead journal (serve/journal.hpp); nullopt = no durability.
  /// Resuming an existing journal additionally requires restore() with
  /// the replayed state (see JournalOptions::resume_offset).
  std::optional<JournalOptions> journal;

  /// Load shedding: when the fair-share backlog reaches this depth, new
  /// submits from tenants below kShedExemptWeight are rejected with the
  /// retryable kOverloaded reason.  0 = shedding off.
  std::size_t shed_queue_depth = 0;
};

/// One streamed server-to-client notification.
struct Event {
  enum class Kind { kAccepted, kRejected, kPoint, kDeadlineExceeded, kDone };

  Kind kind = Kind::kAccepted;
  std::uint64_t request_id = 0;
  std::string tenant;
  std::string name;  // campaign name as submitted

  // kAccepted / kDeadlineExceeded / kDone
  std::size_t points = 0;
  double cost = 0.0;  // predicted device-seconds charged at admission

  // kRejected
  RejectReason reason = RejectReason::kBadRequest;
  std::string detail;

  // kPoint
  std::size_t series_index = 0;
  std::size_t point_index = 0;
  rt::SeriesSpec series;
  rt::PointResult result;
  /// True when this delivery did not run its own execution: it joined an
  /// in-flight identical point or was answered from the result memo.
  bool coalesced = false;
  /// True when the result was replayed from the write-ahead journal
  /// during crash recovery (no execution this process).
  bool recovered = false;

  // kDeadlineExceeded: points delivered before the deadline / cancelled by
  // it.  Exactly one such event per expired request, before its done.
  std::size_t delivered = 0;
  std::size_t cancelled = 0;

  // kDone
  std::size_t failed = 0;
  double wall_s = 0.0;
};

struct ServeStats {
  std::uint64_t requests_admitted = 0;
  std::uint64_t rejected_bad_request = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_over_budget = 0;
  std::uint64_t rejected_shutting_down = 0;
  std::uint64_t rejected_overloaded = 0;  // load shed (retryable)
  std::uint64_t points_admitted = 0;
  std::uint64_t points_completed = 0;  // delivered to a live request
  std::uint64_t queued = 0;      // backlog in the fair-share queues
  std::uint64_t dispatched = 0;  // points handed to the coalescing board

  // Deadlines.
  std::uint64_t requests_expired = 0;  // deadline_exceeded events emitted
  std::uint64_t points_cancelled = 0;  // deliveries dropped by a deadline

  // Crash recovery (restore()).
  std::uint64_t requests_resumed = 0;  // unfinished requests re-admitted
  std::uint64_t points_replayed = 0;   // delivered from the journal, no
                                       // re-execution (the dedup counter)

  // Journal.
  bool journal_active = false;
  std::uint64_t journal_records = 0;   // appended this process
  std::uint64_t journal_unsynced = 0;  // awaiting fsync (group commit)

  CoalescingBoard::Stats board;
  rt::ArtifactCache::Stats cache;
  std::vector<rt::ArtifactCache::Stats> cache_shards;
  rt::Executor::Stats executor;
  std::vector<std::pair<std::string, TenantUsage>> tenants;  // name order

  std::uint64_t requests_rejected() const {
    return rejected_bad_request + rejected_queue_full +
           rejected_over_budget + rejected_shutting_down +
           rejected_overloaded;
  }
};

class Server {
 public:
  /// Receives one request's events; called from worker threads and from
  /// inside submit().  Must not call back into this Server.
  using EventSink = std::function<void(const Event&)>;

  explicit Server(ServeOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Applies one tenant's config.  Returns the rejection detail when the
  /// config is invalid (see tenant_config_error) — client input must
  /// never abort the server — or nullopt on success.
  std::optional<std::string> configure_tenant(const std::string& tenant,
                                              const TenantConfig& config);

  struct SubmitOutcome {
    bool admitted = false;
    std::uint64_t request_id = 0;  // valid iff admitted
    RejectReason reason = RejectReason::kBadRequest;
    std::string detail;
  };

  struct SubmitOptions {
    /// Time the request has to complete, measured from admission.  When
    /// it passes, undelivered points are cancelled, their admission
    /// budget freed, and the sink receives one deadline_exceeded event
    /// followed by done.  nullopt = no deadline.  Deadlines are NOT
    /// persisted: a request resumed from the journal runs to completion
    /// (its original wall-clock budget is meaningless after a restart).
    std::optional<std::chrono::milliseconds> deadline;
  };

  /// Admits or rejects one campaign request.  On admission the request's
  /// points are queued and `sink` will receive its accepted/point/done
  /// events (the accepted event is always delivered before any point
  /// event, and done strictly last); on rejection `sink` receives the
  /// rejected event before this returns and nothing else.  The sink must
  /// stay callable until the done event has been delivered.
  SubmitOutcome submit(const std::string& tenant, const std::string& name,
                       const std::vector<rt::SeriesSpec>& series,
                       EventSink sink, const SubmitOptions& options = {});

  struct RestoreOutcome {
    std::size_t requests_resumed = 0;       // unfinished, re-admitted
    std::size_t requests_already_done = 0;  // terminal in the journal
    std::size_t points_replayed = 0;        // delivered from the journal
    std::size_t points_requeued = 0;        // will (re-)execute
  };

  /// Crash recovery: applies a replayed journal (serve/recovery.hpp) —
  /// tenant configs first, then every unfinished request is re-admitted
  /// under its original id, its journaled points delivered immediately
  /// (marked recovered, never re-executed) and the remainder queued for
  /// execution.  `sink_factory` supplies the event sink of each resumed
  /// request (its accepted event is re-delivered, then points, then
  /// done).  Must be called before any submit, on a Server whose
  /// journal (if any) resumes the same log (JournalOptions::resume_offset
  /// = state.valid_bytes), so replayed records are not re-appended.
  RestoreOutcome restore(
      const RecoveredState& state,
      const std::function<EventSink(const RecoveredRequest&)>& sink_factory);

  /// Counts and emits a bad_request rejection for a request that never
  /// reached submit() — the wire front-end routes parse errors here so
  /// stats() stays a complete account of intake.
  void reject_bad_request(const std::string& detail, const EventSink& sink);

  ServeStats stats() const;

  /// Blocks until every admitted request has completed.
  void wait_idle();

  /// Stops intake: every later submit is rejected with kShuttingDown.
  /// Admitted work keeps running (drain with wait_idle()).
  void begin_shutdown();
  bool shutting_down() const;

  // immutable after construction: executor worker count is fixed
  int workers() const { return executor_.workers(); }
  // immutable after construction: serve options are fixed at startup
  const ServeOptions& options() const { return options_; }

 private:
  struct RequestState {
    std::uint64_t id = 0;
    std::string tenant;
    std::string name;
    std::vector<rt::SeriesSpec> series;
    std::vector<std::vector<double>> point_costs;  // [series][point]
    std::size_t total_points = 0;
    std::size_t done_points = 0;  // accounted: delivered, cancelled, dropped
    std::size_t failed_points = 0;
    std::size_t cancelled_points = 0;  // deadline-cancelled deliveries
    double cost = 0.0;
    std::chrono::steady_clock::time_point start;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    bool expired = false;  // deadline passed; no more point events
    EventSink sink;
    /// Events staged under mu_ in delivery order; drained outside the
    /// lock by one thread at a time (see drain()).  Sequencing per
    /// request is what guarantees accepted-first / done-last on the wire.
    std::deque<Event> outbox;
    bool draining = false;  // guarded by mu_: one active drainer
  };

  /// Requests whose outboxes a locked section touched; drained after the
  /// lock is released.
  using Touched = std::vector<std::shared_ptr<RequestState>>;

  /// Schedule, availability and admission price of every point of one
  /// series list, computed unlocked: pricing resolves workloads through
  /// the shared cache, so a first-seen geometry is voxelized outside the
  /// scheduling lock and reused by execution.
  struct Layout {
    std::vector<std::vector<sys::SchedulePoint>> schedule;  // [series][point]
    std::vector<std::optional<rt::JobFailure>> unavailable;  // [series]
    std::vector<std::vector<double>> point_costs;  // [series][point]
    std::size_t total_points = 0;
    double total_cost = 0.0;
  };
  /// Journaled results by slot ([series][point]; null = not replayed).
  using Replayed = std::vector<std::vector<const rt::PointResult*>>;

  Layout lay_out(const std::vector<rt::SeriesSpec>& series);
  /// Registers an admitted request and stages its accepted event.
  std::shared_ptr<RequestState> open_request_locked(
      std::uint64_t id, const std::string& tenant, const std::string& name,
      const std::vector<rt::SeriesSpec>& series, const Layout& layout,
      EventSink sink, Touched* touched);
  /// Routes every point of a just-opened request: a replayed slot is
  /// delivered from the journal, an unavailable series' points get its
  /// structured failure, and the rest are queued on the dispatcher.
  /// Returns the number queued.
  std::size_t enqueue_points_locked(
      const std::shared_ptr<RequestState>& request, const Layout& layout,
      const Replayed& replayed, Touched* touched);

  void stage_locked(const std::shared_ptr<RequestState>& request,
                    Event event, Touched* touched);
  void drain(const Touched& touched);
  void pump_locked(Touched* touched);
  void record_point_locked(const PointSubscriber& subscriber,
                           const rt::PointResult& result, bool coalesced,
                           bool recovered, Touched* touched);
  void on_point_complete(const PointTask& task,
                         const rt::PointResult& result);
  /// Stages done + journals the terminal record + erases the request once
  /// every point is accounted for.
  void maybe_finish_locked(const std::shared_ptr<RequestState>& request,
                           Touched* touched);
  /// Accounts one delivery that was cancelled by the request's deadline:
  /// releases its admission share without staging a point event.
  void drop_cancelled_point_locked(
      const std::shared_ptr<RequestState>& request,
      const PointSubscriber& subscriber, Touched* touched);
  /// Deadline expiry of one request: erase its queued points, free their
  /// budgets, stage the single deadline_exceeded event.
  void expire_locked(const std::shared_ptr<RequestState>& request,
                     Touched* touched);
  /// The background deadline watcher (one thread, parked on cv_deadline_).
  void deadline_loop();
  /// True when `key`'s in-flight execution has no live subscriber left —
  /// the rt::JobOptions::cancelled callback of serve executions.
  bool execution_expired(const std::string& key);
  /// Worker-side fast path: if every subscriber of `key` expired, drop
  /// the execution (board abandon + accounting) and return true.
  bool abandon_if_expired(const std::string& key);
  /// Load-shed decision for one new submit (requires mu_).
  bool overloaded_locked(const std::string& tenant, std::string* detail);
  /// Appends one journal record iff journaling is on (requires mu_ so
  /// record order matches staging order).
  void journal_locked(WalTag tag, const WalBuffer& payload);

  ServeOptions options_;
  rt::ArtifactCache cache_;
  rt::Executor executor_;
  std::size_t max_inflight_;  // immutable after construction
  std::unique_ptr<Journal> journal_;  // null = durability off

  mutable std::mutex mu_;
  std::condition_variable cv_idle_;  // requests_ drained to empty
  std::condition_variable cv_deadline_;  // wakes the deadline watcher
  AdmissionController admission_;
  FairShareDispatcher dispatcher_;
  CoalescingBoard board_;
  std::unordered_map<std::uint64_t, std::shared_ptr<RequestState>> requests_;
  std::uint64_t next_request_id_ = 0;
  std::size_t inflight_ = 0;  // executions occupying the window
  bool shutting_down_ = false;
  bool stop_deadline_ = false;  // tells the watcher to exit
  ServeStats counters_;  // the plain tallies of stats(); subsystems add theirs

  std::thread deadline_watcher_;  // last member: joined in the destructor
};

// ---------------------------------------------------------------------------
// In-process client.
// ---------------------------------------------------------------------------

/// A no-socket client for one tenant: submits typed series lists and
/// consumes the event stream through a thread-safe queue.  Tests and
/// embedders use this; the wire protocol wraps the same Server API.
class ServeHandle {
 public:
  ServeHandle(Server& server, std::string tenant);

  /// Submits a campaign; events will arrive on this handle's queue.
  Server::SubmitOutcome submit(const std::string& name,
                               const std::vector<rt::SeriesSpec>& series,
                               const Server::SubmitOptions& options = {});

  /// Recovery adapter: returns the EventSink Server::restore() needs for
  /// one resumed request and registers the request on this handle, so
  /// wait(request.id) assembles its campaign exactly as for a request
  /// submitted here.  The handle's tenant is not consulted — the resumed
  /// request keeps its journaled tenant.
  Server::EventSink adopt(const RecoveredRequest& request);

  /// Pops the next event, blocking up to `timeout`.
  std::optional<Event> next_event(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  /// Drains this request's events until done and assembles the campaign
  /// result exactly as run_campaign lays it out (series in spec order,
  /// points in schedule slots).  Events of other requests are left
  /// queued.  Only valid for an admitted request_id of this handle.  The
  /// result's runtime metadata (cache/executor stats) is the *server's*,
  /// shared across tenants.
  rt::CampaignResult wait(std::uint64_t request_id);

 private:
  struct Submitted {
    std::string name;
    std::vector<rt::SeriesSpec> series;
  };

  Event pop_event_of_locked(std::unique_lock<std::mutex>& lock,
                            std::uint64_t request_id);

  Server& server_;
  std::string tenant_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Event> events_;
  std::unordered_map<std::uint64_t, Submitted> submitted_;
};

// ---------------------------------------------------------------------------
// Wire serialization (used by the socket front-end and the CLI).
// ---------------------------------------------------------------------------

std::string event_json(const Event& event);
std::string stats_json(const ServeStats& stats);

}  // namespace hemo::serve
