#include "serve/server.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "base/contracts.hpp"
#include "base/format.hpp"
#include "serve/protocol.hpp"

namespace hemo::serve {

namespace {

rt::ExecutorOptions executor_options(const ServeOptions& options) {
  rt::ExecutorOptions eo;
  eo.workers = options.workers;
  // The in-flight window must never hit the executor's queue bound:
  // pump_locked submits while holding the server mutex, and blocking
  // there on backpressure would stall every completion.
  eo.queue_capacity = std::max<std::size_t>(4096, options.max_inflight + 1);
  return eo;
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards),
      executor_(executor_options(options_)),
      max_inflight_(options_.max_inflight
                        ? options_.max_inflight
                        : 2 * static_cast<std::size_t>(executor_.workers())),
      journal_(options_.journal
                   ? std::make_unique<Journal>(*options_.journal)
                   : nullptr),
      admission_(options_.tenant_defaults),
      board_(options_.memo_capacity),
      deadline_watcher_([this] { deadline_loop(); }) {}

Server::~Server() {
  begin_shutdown();
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_deadline_ = true;
    cv_deadline_.notify_all();
  }
  deadline_watcher_.join();
  executor_.shutdown();
  if (journal_) {
    // Everything drained and no thread can append anymore: mark the log
    // cleanly terminated so a restart knows no work was in flight.
    try {
      journal_->append(WalTag::kCleanShutdown, WalBuffer());
      journal_->sync();
    } catch (const JournalError&) {
      // Destructor: a failed terminal record degrades the next recovery
      // to the crash path, which is correct anyway.
    }
  }
}

std::optional<std::string> Server::configure_tenant(
    const std::string& tenant, const TenantConfig& config) {
  if (std::optional<std::string> error = tenant_config_error(config))
    return error;
  std::lock_guard<std::mutex> lock(mu_);
  // Journal before applying: a crash right after the append replays into
  // the same config this process was about to serve under.
  if (journal_) {
    WalBuffer payload;
    wal_encode_tenant(&payload, tenant, config);
    journal_locked(WalTag::kTenantConfig, payload);
  }
  admission_.configure(tenant, config);
  dispatcher_.set_weight(tenant, config.weight);
  return std::nullopt;
}

Server::Layout Server::lay_out(const std::vector<rt::SeriesSpec>& series) {
  Layout layout;
  layout.schedule.resize(series.size());
  layout.unavailable.resize(series.size());
  layout.point_costs.resize(series.size());
  for (std::size_t s = 0; s < series.size(); ++s) {
    layout.schedule[s] =
        sys::piecewise_schedule(sys::system_spec(series[s].system).max_devices);
    const std::vector<sys::SchedulePoint>& schedule = layout.schedule[s];
    layout.unavailable[s] = rt::unavailable_failure(series[s]);
    layout.point_costs[s].resize(schedule.size(), 0.0);
    layout.total_points += schedule.size();
    if (layout.unavailable[s]) continue;  // never priced, never executed
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      layout.point_costs[s][k] =
          predicted_point_cost(cache_, series[s], schedule[k]);
      layout.total_cost += layout.point_costs[s][k];
    }
  }
  return layout;
}

std::shared_ptr<Server::RequestState> Server::open_request_locked(
    std::uint64_t id, const std::string& tenant, const std::string& name,
    const std::vector<rt::SeriesSpec>& series, const Layout& layout,
    EventSink sink, Touched* touched) {
  // requires mu_ held
  auto request = std::make_shared<RequestState>();
  request->id = id;
  request->tenant = tenant;
  request->name = name;
  request->series = series;
  request->point_costs = layout.point_costs;
  request->total_points = layout.total_points;
  request->cost = layout.total_cost;
  request->start = std::chrono::steady_clock::now();
  request->sink = std::move(sink);
  HEMO_EXPECTS(request->sink != nullptr);
  requests_.emplace(id, request);
  counters_.points_admitted += layout.total_points;

  // Staged first, before any task exists: outbox sequencing then
  // guarantees no point event can reach the sink ahead of it.
  Event accepted;
  accepted.kind = Event::Kind::kAccepted;
  accepted.request_id = id;
  accepted.tenant = tenant;
  accepted.name = name;
  accepted.points = layout.total_points;
  accepted.cost = layout.total_cost;
  stage_locked(request, std::move(accepted), touched);
  return request;
}

std::size_t Server::enqueue_points_locked(
    const std::shared_ptr<RequestState>& request, const Layout& layout,
    const Replayed& replayed, Touched* touched) {
  // requires mu_ held
  std::size_t queued = 0;
  for (std::size_t s = 0; s < request->series.size(); ++s) {
    for (std::size_t k = 0; k < layout.schedule[s].size(); ++k) {
      const PointSubscriber subscriber{request->id, request->tenant, s, k};
      if (!replayed.empty() && replayed[s][k]) {
        // The dedup path: deliver the journaled result, no execution.
        record_point_locked(subscriber, *replayed[s][k], /*coalesced=*/false,
                            /*recovered=*/true, touched);
        continue;
      }
      if (layout.unavailable[s]) {
        // The study never evaluated this combination: deliver the same
        // structured failure run_campaign records, with no dispatch
        // (attempts stays 0).
        rt::PointResult failed;
        failed.schedule = layout.schedule[s][k];
        failed.failure = layout.unavailable[s];
        record_point_locked(subscriber, failed, /*coalesced=*/false,
                            /*recovered=*/false, touched);
        continue;
      }
      PointTask task;
      task.request_id = request->id;
      task.tenant = request->tenant;
      task.series_index = s;
      task.point_index = k;
      task.series = request->series[s];
      task.schedule = layout.schedule[s][k];
      task.key = rt::point_key(task.series, task.schedule);
      dispatcher_.enqueue(std::move(task));
      ++queued;
    }
  }
  return queued;
}

Server::SubmitOutcome Server::submit(const std::string& tenant,
                                     const std::string& name,
                                     const std::vector<rt::SeriesSpec>& series,
                                     EventSink sink,
                                     const SubmitOptions& submit_options) {
  HEMO_EXPECTS(sink != nullptr);

  SubmitOutcome outcome;
  if (tenant.empty() || series.empty()) {
    outcome.reason = RejectReason::kBadRequest;
    outcome.detail = tenant.empty() ? "missing tenant" : "empty series list";
    reject_bad_request(outcome.detail, sink);
    return outcome;
  }

  // Phase 1, unlocked: lay out and price every point.
  const Layout layout = lay_out(series);

  // Phase 2, locked: shed, admit, journal, register, queue, pump.
  Touched touched;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::string shed_detail;
    if (shutting_down_) {
      ++counters_.rejected_shutting_down;
      outcome.reason = RejectReason::kShuttingDown;
      outcome.detail = "server is shutting down";
    } else if (overloaded_locked(tenant, &shed_detail)) {
      ++counters_.rejected_overloaded;
      outcome.reason = RejectReason::kOverloaded;
      outcome.detail = std::move(shed_detail);
    } else {
      const AdmissionController::Decision decision = admission_.admit(
          tenant, layout.total_cost, static_cast<int>(layout.total_points));
      if (!decision.admitted) {
        switch (decision.reason) {
          case RejectReason::kQueueFull: ++counters_.rejected_queue_full; break;
          case RejectReason::kOverBudget: ++counters_.rejected_over_budget; break;
          default: ++counters_.rejected_bad_request; break;
        }
        outcome.reason = decision.reason;
        outcome.detail = decision.detail;
      } else {
        const std::uint64_t id = ++next_request_id_;
        const std::string request_name = name.empty() ? "campaign" : name;

        // WAL discipline: the admission is durable before the accepted
        // event can reach the client.  A crash before this append means
        // the client never heard "accepted" and simply re-submits.
        if (journal_) {
          WalBuffer payload;
          wal_encode_admitted(&payload, id, tenant, request_name, series);
          journal_locked(WalTag::kAdmitted, payload);
        }

        const std::shared_ptr<RequestState> request = open_request_locked(
            id, tenant, request_name, series, layout, std::move(sink),
            &touched);
        if (submit_options.deadline)
          request->deadline = request->start + *submit_options.deadline;
        ++counters_.requests_admitted;
        outcome.admitted = true;
        outcome.request_id = id;

        enqueue_points_locked(request, layout, Replayed{}, &touched);
        if (request->deadline &&
            std::chrono::steady_clock::now() >= *request->deadline) {
          // Deterministic zero-budget semantics: an already-expired
          // deadline cancels everything before anything can dispatch.
          expire_locked(request, &touched);
        } else {
          pump_locked(&touched);
          if (request->deadline) cv_deadline_.notify_all();
        }
      }
    }
  }

  if (!outcome.admitted && sink) {
    Event rejected;
    rejected.kind = Event::Kind::kRejected;
    rejected.tenant = tenant;
    rejected.name = name;
    rejected.reason = outcome.reason;
    rejected.detail = outcome.detail;
    sink(rejected);  // no request registered: nothing to sequence against
  }
  drain(touched);
  return outcome;
}

Server::RestoreOutcome Server::restore(
    const RecoveredState& state,
    const std::function<EventSink(const RecoveredRequest&)>& sink_factory) {
  HEMO_EXPECTS(sink_factory != nullptr);
  RestoreOutcome outcome;

  // Tenant configs first, in record order (later records win), so resumed
  // requests are re-admitted under the same weights/budgets they ran
  // under.  Configs are NOT re-journaled: the resumed log already holds
  // them (resume_offset keeps the valid prefix).
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [tenant, config] : state.tenants) {
      if (tenant_config_error(config)) continue;  // CRC-valid garbage: skip
      admission_.configure(tenant, config);
      dispatcher_.set_weight(tenant, config.weight);
    }
  }

  for (const RecoveredRequest& recovered : state.requests) {
    {
      // Ids must stay unique across the crash even for finished requests.
      std::lock_guard<std::mutex> lock(mu_);
      next_request_id_ = std::max(next_request_id_, recovered.id);
    }
    if (recovered.done) {
      ++outcome.requests_already_done;
      continue;
    }

    // Unlocked: lay out and price exactly as submit() phase 1 does.
    const Layout layout = lay_out(recovered.series);

    // Journaled completions, indexed by slot; out-of-range ones (a log
    // from a different schedule build) are dropped rather than trusted.
    Replayed replayed(recovered.series.size());
    for (std::size_t s = 0; s < recovered.series.size(); ++s)
      replayed[s].assign(layout.schedule[s].size(), nullptr);
    for (const RecoveredPoint& point : recovered.completed)
      if (point.series_index < replayed.size() &&
          point.point_index < replayed[point.series_index].size())
        replayed[point.series_index][point.point_index] = &point.result;
    for (const std::vector<const rt::PointResult*>& slots : replayed)
      outcome.points_replayed +=
          slots.size() - std::count(slots.begin(), slots.end(), nullptr);

    Touched touched;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Force-charge: this request already passed admission in the
      // previous process and its client was told so.
      admission_.restore(recovered.tenant, layout.total_cost,
                         static_cast<int>(layout.total_points));
      // Re-delivers the accepted event: the client of the resumed stream
      // gets the same prologue an uninterrupted run produced.
      const std::shared_ptr<RequestState> request = open_request_locked(
          recovered.id, recovered.tenant, recovered.name, recovered.series,
          layout, sink_factory(recovered), &touched);
      ++counters_.requests_resumed;
      ++outcome.requests_resumed;
      outcome.points_requeued +=
          enqueue_points_locked(request, layout, replayed, &touched);
      pump_locked(&touched);
    }
    drain(touched);
  }

  return outcome;
}

void Server::reject_bad_request(const std::string& detail,
                                const EventSink& sink) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.rejected_bad_request;
  }
  if (!sink) return;
  Event rejected;
  rejected.kind = Event::Kind::kRejected;
  rejected.reason = RejectReason::kBadRequest;
  rejected.detail = detail;
  sink(rejected);
}

void Server::pump_locked(Touched* touched) {
  // requires mu_ held
  PointTask task;
  while (inflight_ < max_inflight_ && dispatcher_.pop(&task)) {
    ++counters_.dispatched;
    const PointSubscriber subscriber{task.request_id, task.tenant,
                                     task.series_index, task.point_index};
    rt::PointResult memoized;
    const CoalescingBoard::Claim claim =
        board_.claim(task.key, subscriber, &memoized);
    switch (claim) {
      case CoalescingBoard::Claim::kExecute:
        ++inflight_;
        executor_.submit([this, task] {
          // Deadline fast path: if every subscriber expired while this
          // task waited for a worker, drop it without pricing.
          if (abandon_if_expired(task.key)) return;
          if (options_.execution_hook)
            options_.execution_hook(task.series, task.schedule);
          rt::JobOptions job;
          job.cancelled = [this, key = task.key] {
            return execution_expired(key);
          };
          rt::PointResult result = rt::price_point(cache_, task.series,
                                                   task.schedule, job);
          if (!result.ok() && result.failure->cancelled) {
            if (abandon_if_expired(task.key)) return;
            // Rare race: a live subscriber coalesced on while the job was
            // cancelling.  Re-price without the cancel hook — someone is
            // waiting for a real result now.
            result = rt::price_point(cache_, task.series, task.schedule,
                                     rt::JobOptions{});
          }
          on_point_complete(task, result);
        });
        break;
      case CoalescingBoard::Claim::kMemoized:
        record_point_locked(subscriber, memoized, /*coalesced=*/true,
                            /*recovered=*/false, touched);
        break;
      case CoalescingBoard::Claim::kCoalesced:
        // Attached to the in-flight execution; delivered on completion.
        // No in-flight slot consumed: the window bounds executions.
        break;
    }
  }
}

void Server::record_point_locked(const PointSubscriber& subscriber,
                                 const rt::PointResult& result,
                                 bool coalesced, bool recovered,
                                 Touched* touched) {
  // requires mu_ held
  auto it = requests_.find(subscriber.request_id);
  HEMO_EXPECTS(it != requests_.end());
  const std::shared_ptr<RequestState> request = it->second;

  if (request->expired) {
    // The deadline already fired: the completion frees its budget but no
    // further point event may follow the deadline_exceeded event.
    drop_cancelled_point_locked(request, subscriber, touched);
    return;
  }

  admission_.release_point(
      request->tenant,
      request->point_costs[subscriber.series_index][subscriber.point_index]);
  ++counters_.points_completed;
  if (recovered) ++counters_.points_replayed;
  ++request->done_points;
  if (!result.ok()) ++request->failed_points;

  // Journal before staging: once the client sees this point event, a
  // restart must replay the identical result instead of re-executing.
  // Replayed deliveries are already in the resumed log.
  if (journal_ && !recovered) {
    WalBuffer payload;
    wal_encode_point(&payload, request->id,
                     static_cast<std::uint32_t>(subscriber.series_index),
                     static_cast<std::uint32_t>(subscriber.point_index),
                     result);
    journal_locked(WalTag::kPoint, payload);
  }

  Event point;
  point.kind = Event::Kind::kPoint;
  point.request_id = request->id;
  point.tenant = request->tenant;
  point.name = request->name;
  point.series_index = subscriber.series_index;
  point.point_index = subscriber.point_index;
  point.series = request->series[subscriber.series_index];
  point.result = result;
  point.coalesced = coalesced;
  point.recovered = recovered;
  stage_locked(request, std::move(point), touched);

  maybe_finish_locked(request, touched);
}

void Server::maybe_finish_locked(const std::shared_ptr<RequestState>& request,
                                 Touched* touched) {
  // requires mu_ held
  if (request->done_points != request->total_points) return;

  if (journal_) {
    WalBuffer payload;
    wal_encode_done(&payload, request->id,
                    request->expired ? WalDoneStatus::kDeadlineExceeded
                                     : WalDoneStatus::kCompleted,
                    request->failed_points);
    journal_locked(WalTag::kDone, payload);
  }

  Event done;
  done.kind = Event::Kind::kDone;
  done.request_id = request->id;
  done.tenant = request->tenant;
  done.name = request->name;
  done.points = request->total_points;
  done.cost = request->cost;
  done.failed = request->failed_points;
  done.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - request->start)
                    .count();
  stage_locked(request, std::move(done), touched);
  // The shared_ptr in *touched keeps the outbox alive through drain().
  requests_.erase(request->id);
  if (requests_.empty()) cv_idle_.notify_all();
}

void Server::drop_cancelled_point_locked(
    const std::shared_ptr<RequestState>& request,
    const PointSubscriber& subscriber, Touched* touched) {
  // requires mu_ held
  admission_.release_point(
      request->tenant,
      request->point_costs[subscriber.series_index][subscriber.point_index]);
  ++counters_.points_cancelled;
  ++request->done_points;
  ++request->cancelled_points;
  maybe_finish_locked(request, touched);
}

void Server::on_point_complete(const PointTask& task,
                               const rt::PointResult& result) {
  Touched touched;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
    const std::vector<PointSubscriber> subscribers =
        board_.complete(task.key, result);
    // The first subscriber claimed the execution; the rest coalesced
    // onto it and are marked as such in their events.
    for (std::size_t i = 0; i < subscribers.size(); ++i)
      record_point_locked(subscribers[i], result, /*coalesced=*/i > 0,
                          /*recovered=*/false, &touched);
    pump_locked(&touched);
  }
  drain(touched);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

void Server::expire_locked(const std::shared_ptr<RequestState>& request,
                           Touched* touched) {
  // requires mu_ held
  if (request->expired || !requests_.count(request->id)) return;
  request->expired = true;
  ++counters_.requests_expired;

  // Queued points are cancelled outright; their admission shares free
  // immediately so the tenant's budget never waits on dead work.
  std::vector<PointTask> removed;
  dispatcher_.erase_request(request->id, &removed);
  const std::size_t delivered =
      request->done_points - request->cancelled_points;
  for (const PointTask& task : removed) {
    admission_.release_point(
        request->tenant,
        request->point_costs[task.series_index][task.point_index]);
    ++counters_.points_cancelled;
    ++request->done_points;
    ++request->cancelled_points;
  }

  Event expired_event;
  expired_event.kind = Event::Kind::kDeadlineExceeded;
  expired_event.request_id = request->id;
  expired_event.tenant = request->tenant;
  expired_event.name = request->name;
  expired_event.points = request->total_points;
  expired_event.delivered = delivered;
  expired_event.cancelled = request->total_points - delivered;
  stage_locked(request, std::move(expired_event), touched);

  // In-flight completions (board subscriptions) account on arrival via
  // drop_cancelled_point_locked; when none are outstanding this finishes
  // the request right here.
  maybe_finish_locked(request, touched);
}

void Server::deadline_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_deadline_) {
    std::optional<std::chrono::steady_clock::time_point> next;
    for (const auto& [id, request] : requests_)
      if (request->deadline && !request->expired &&
          (!next || *request->deadline < *next))
        next = request->deadline;
    if (!next) {
      cv_deadline_.wait(lock);
      continue;
    }
    if (cv_deadline_.wait_until(lock, *next) != std::cv_status::timeout)
      continue;  // re-scan: new request, or shutdown
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<RequestState>> due;
    for (const auto& [id, request] : requests_)
      if (request->deadline && !request->expired && now >= *request->deadline)
        due.push_back(request);
    Touched touched;
    for (const std::shared_ptr<RequestState>& request : due)
      expire_locked(request, &touched);
    if (!touched.empty()) {
      lock.unlock();
      drain(touched);
      lock.lock();
    }
  }
}

bool Server::execution_expired(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<PointSubscriber>* subscribers =
      board_.inflight_subscribers(key);
  if (!subscribers || subscribers->empty()) return false;
  for (const PointSubscriber& subscriber : *subscribers) {
    const auto it = requests_.find(subscriber.request_id);
    if (it != requests_.end() && !it->second->expired) return false;
  }
  return true;
}

bool Server::abandon_if_expired(const std::string& key) {
  Touched touched;
  bool abandoned = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<PointSubscriber>* subscribers =
        board_.inflight_subscribers(key);
    bool all_expired = subscribers && !subscribers->empty();
    if (all_expired)
      for (const PointSubscriber& subscriber : *subscribers) {
        const auto it = requests_.find(subscriber.request_id);
        if (it != requests_.end() && !it->second->expired) {
          all_expired = false;
          break;
        }
      }
    if (all_expired) {
      for (const PointSubscriber& subscriber : board_.abandon(key)) {
        const auto it = requests_.find(subscriber.request_id);
        if (it != requests_.end())
          drop_cancelled_point_locked(it->second, subscriber, &touched);
      }
      --inflight_;
      pump_locked(&touched);
      abandoned = true;
    }
  }
  drain(touched);
  return abandoned;
}

// ---------------------------------------------------------------------------
// Load shedding & journaling
// ---------------------------------------------------------------------------

bool Server::overloaded_locked(const std::string& tenant,
                               std::string* detail) {
  // requires mu_ held
  const std::size_t depth = options_.shed_queue_depth;
  const std::size_t backlog = dispatcher_.queued();
  if (depth == 0 || backlog < depth) return false;
  if (admission_.weight(tenant) >= kShedExemptWeight &&
      backlog < depth * kShedHardFactor)
    return false;  // exempt until the hard limit
  *detail = "service overloaded: " + std::to_string(backlog) +
            " points queued (shed threshold " + std::to_string(depth) +
            "); retry later";
  return true;
}

void Server::journal_locked(WalTag tag, const WalBuffer& payload) {
  // requires mu_ held (record order must match event staging order)
  journal_->append(tag, payload);
}

void Server::stage_locked(const std::shared_ptr<RequestState>& request,
                          Event event, Touched* touched) {
  // requires mu_ held
  request->outbox.push_back(std::move(event));
  for (const std::shared_ptr<RequestState>& seen : *touched)
    if (seen == request) return;
  touched->push_back(request);
}

void Server::drain(const Touched& touched) {
  for (const std::shared_ptr<RequestState>& request : touched) {
    std::unique_lock<std::mutex> lock(mu_);
    // One drainer at a time per request: a second thread arriving here
    // leaves its staged events to the active drainer's re-check below,
    // which preserves the staging order end to end.
    if (request->draining) continue;
    request->draining = true;
    while (!request->outbox.empty()) {
      std::deque<Event> batch;
      batch.swap(request->outbox);
      lock.unlock();
      for (const Event& event : batch) request->sink(event);
      lock.lock();
    }
    request->draining = false;
  }
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats out = counters_;
  if (journal_) {
    out.journal_active = true;
    out.journal_records = journal_->appended();
    out.journal_unsynced = journal_->unsynced();
  }
  out.queued = dispatcher_.queued();
  out.dispatched = dispatcher_.dispatched();
  out.board = board_.stats();
  out.cache = cache_.stats();
  out.cache_shards = cache_.shard_stats();
  out.executor = executor_.stats();
  for (const auto& [name, usage] : admission_.tenants())
    out.tenants.emplace_back(name, usage);
  return out;
}

void Server::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return requests_.empty(); });
}

void Server::begin_shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutting_down_ = true;
}

bool Server::shutting_down() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutting_down_;
}

// ---------------------------------------------------------------------------
// ServeHandle
// ---------------------------------------------------------------------------

ServeHandle::ServeHandle(Server& server, std::string tenant)
    : server_(server), tenant_(std::move(tenant)) {}

Server::SubmitOutcome ServeHandle::submit(
    const std::string& name, const std::vector<rt::SeriesSpec>& series,
    const Server::SubmitOptions& options) {
  const Server::SubmitOutcome outcome = server_.submit(
      tenant_, name, series,
      [this](const Event& event) {
        // Notify *under* the lock: a waiter that pops the done event may
        // destroy this handle the moment it can reacquire mu_, so the
        // notify must have returned by then.
        std::lock_guard<std::mutex> lock(mu_);
        events_.push_back(event);
        cv_.notify_all();
      },
      options);
  if (outcome.admitted) {
    std::lock_guard<std::mutex> lock(mu_);
    submitted_[outcome.request_id] =
        Submitted{name.empty() ? "campaign" : name, series};
  }
  return outcome;
}

Server::EventSink ServeHandle::adopt(const RecoveredRequest& request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    submitted_[request.id] = Submitted{request.name, request.series};
  }
  return [this](const Event& event) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(event);
    cv_.notify_all();
  };
}

std::optional<Event> ServeHandle::next_event(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!cv_.wait_for(lock, timeout, [this] { return !events_.empty(); }))
    return std::nullopt;
  Event event = std::move(events_.front());
  events_.pop_front();
  return event;
}

Event ServeHandle::pop_event_of_locked(std::unique_lock<std::mutex>& lock,
                                       std::uint64_t request_id) {
  // requires `lock` held on mu_
  for (;;) {
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->request_id != request_id) continue;
      Event event = std::move(*it);
      events_.erase(it);
      return event;
    }
    cv_.wait(lock);
  }
}

rt::CampaignResult ServeHandle::wait(std::uint64_t request_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto submitted = submitted_.find(request_id);
  HEMO_EXPECTS(submitted != submitted_.end() &&
               "wait() is only valid for an admitted request of this handle");

  // Pre-assign the slot layout exactly as run_campaign does, then fill
  // slots from point events as they arrive (any completion order).
  rt::CampaignResult result;
  result.name = submitted->second.name;
  result.workers = server_.workers();
  result.series.resize(submitted->second.series.size());
  for (std::size_t s = 0; s < result.series.size(); ++s) {
    result.series[s].spec = submitted->second.series[s];
    const std::vector<sys::SchedulePoint> schedule = sys::piecewise_schedule(
        sys::system_spec(submitted->second.series[s].system).max_devices);
    result.series[s].points.resize(schedule.size());
    for (std::size_t k = 0; k < schedule.size(); ++k)
      result.series[s].points[k].schedule = schedule[k];
  }
  submitted_.erase(submitted);

  for (;;) {
    const Event event = pop_event_of_locked(lock, request_id);
    if (event.kind == Event::Kind::kPoint) {
      result.series[event.series_index].points[event.point_index] =
          event.result;
    } else if (event.kind == Event::Kind::kDone) {
      result.wall_s = event.wall_s;
      break;
    }
  }
  lock.unlock();

  // Runtime metadata is the server's, shared across every tenant.
  const ServeStats stats = server_.stats();
  result.cache = stats.cache;
  result.cache_shards = stats.cache_shards;
  result.executor = stats.executor;
  return result;
}

// ---------------------------------------------------------------------------
// Wire serialization
// ---------------------------------------------------------------------------

std::string event_json(const Event& event) {
  std::ostringstream os;
  switch (event.kind) {
    case Event::Kind::kAccepted:
      os << "{\"event\": \"accepted\", \"request\": " << event.request_id
         << ", \"tenant\": \"" << json_escape(event.tenant)
         << "\", \"name\": \"" << json_escape(event.name)
         << "\", \"points\": " << event.points
         << ", \"cost\": " << fmt_double(event.cost) << "}";
      break;
    case Event::Kind::kRejected:
      os << "{\"event\": \"rejected\", \"tenant\": \""
         << json_escape(event.tenant) << "\", \"reason\": \""
         << reject_reason_name(event.reason) << "\", \"retryable\": "
         << (reject_retryable(event.reason) ? "true" : "false")
         << ", \"detail\": \"" << json_escape(event.detail) << "\"}";
      break;
    case Event::Kind::kPoint: {
      os << "{\"event\": \"point\", \"request\": " << event.request_id
         << ", \"tenant\": \"" << json_escape(event.tenant)
         << "\", \"series\": " << event.series_index
         << ", \"point\": " << event.point_index << ", \"label\": \""
         << json_escape(rt::series_label(event.series)) << "\", ";
      rt::write_point_members(event.result, os);
      os << ", \"coalesced\": " << (event.coalesced ? "true" : "false");
      if (event.recovered) os << ", \"recovered\": true";
      os << "}";
      break;
    }
    case Event::Kind::kDeadlineExceeded:
      os << "{\"event\": \"deadline_exceeded\", \"request\": "
         << event.request_id << ", \"tenant\": \""
         << json_escape(event.tenant) << "\", \"points\": " << event.points
         << ", \"delivered\": " << event.delivered
         << ", \"cancelled\": " << event.cancelled << "}";
      break;
    case Event::Kind::kDone:
      os << "{\"event\": \"done\", \"request\": " << event.request_id
         << ", \"tenant\": \"" << json_escape(event.tenant)
         << "\", \"points\": " << event.points
         << ", \"failed\": " << event.failed
         << ", \"wall_s\": " << fmt_double(event.wall_s) << "}";
      break;
  }
  return os.str();
}

std::string stats_json(const ServeStats& stats) {
  std::ostringstream os;
  os << "{\"event\": \"stats\", \"requests\": {\"admitted\": "
     << stats.requests_admitted
     << ", \"rejected\": " << stats.requests_rejected()
     << ", \"rejected_bad_request\": " << stats.rejected_bad_request
     << ", \"rejected_queue_full\": " << stats.rejected_queue_full
     << ", \"rejected_over_budget\": " << stats.rejected_over_budget
     << ", \"rejected_shutting_down\": " << stats.rejected_shutting_down
     << ", \"rejected_overloaded\": " << stats.rejected_overloaded
     << ", \"expired\": " << stats.requests_expired
     << ", \"resumed\": " << stats.requests_resumed
     << "}, \"points\": {\"admitted\": " << stats.points_admitted
     << ", \"completed\": " << stats.points_completed
     << ", \"cancelled\": " << stats.points_cancelled
     << ", \"replayed\": " << stats.points_replayed
     << ", \"queued\": " << stats.queued
     << ", \"dispatched\": " << stats.dispatched
     << "}, \"journal\": {\"active\": "
     << (stats.journal_active ? "true" : "false")
     << ", \"records\": " << stats.journal_records
     << ", \"unsynced\": " << stats.journal_unsynced
     << "}, \"coalescing\": {\"executions\": " << stats.board.executions
     << ", \"coalesced\": " << stats.board.coalesced
     << ", \"memo_hits\": " << stats.board.memo_hits
     << ", \"memo_evictions\": " << stats.board.memo_evictions
     << ", \"memo_entries\": " << stats.board.memo_entries
     << ", \"inflight\": " << stats.board.inflight
     << ", \"abandoned\": " << stats.board.abandoned
     << "}, \"cache\": {";
  rt::write_cache_members(stats.cache, os);
  os << ", \"hit_rate\": " << fmt_double(stats.cache.hit_rate())
     << ", \"shards\": [";
  for (std::size_t i = 0; i < stats.cache_shards.size(); ++i) {
    os << (i ? ", " : "") << "{";
    rt::write_cache_members(stats.cache_shards[i], os);
    os << "}";
  }
  os << "]}, \"executor\": ";
  rt::write_executor_json(stats.executor, os);
  os << ", \"tenants\": [";
  for (std::size_t i = 0; i < stats.tenants.size(); ++i) {
    const TenantUsage& usage = stats.tenants[i].second;
    os << (i ? ", " : "") << "{\"tenant\": \""
       << json_escape(stats.tenants[i].first)
       << "\", \"weight\": " << fmt_double(usage.config.weight);
    if (usage.config.budget !=
        std::numeric_limits<double>::infinity())  // JSON has no inf
      os << ", \"budget\": " << fmt_double(usage.config.budget);
    os << ", \"charged\": " << fmt_double(usage.charged)
       << ", \"pending_points\": " << usage.pending_points
       << ", \"admitted\": " << usage.admitted
       << ", \"rejected\": " << usage.rejected
       << ", \"completed_points\": " << usage.completed_points << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace hemo::serve
