#include "chaos/scenarios.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include "base/contracts.hpp"
#include "decomp/partition.hpp"
#include "geom/cylinder.hpp"
#include "harvey/distributed_solver.hpp"
#include "rt/campaign.hpp"
#include "rt/job.hpp"
#include "serve/recovery.hpp"
#include "serve/server.hpp"
#include "sys/hardware.hpp"

namespace hemo::chaos {

namespace {

/// Steps between the on-disk checkpoints of run_campaign_chaos.
constexpr int kCampaignCheckpointInterval = 10;

/// The one campaign run_serve_crash serves.
constexpr const char* kServeCrashSeries = "polaris:cuda:harvey:cylinder-slab";

struct SolverSetup {
  std::shared_ptr<const lbm::SparseLattice> lattice;
  decomp::Partition partition;
  lbm::SolverOptions options;
};

SolverSetup make_setup(const ChaosConfig& cfg) {
  HEMO_EXPECTS(cfg.scale >= geom::kMinScale &&
               cfg.scale <= geom::kMaxScale && cfg.ranks >= 1 &&
               cfg.steps >= 1);
  for (const KillSpec& kill : cfg.kills)
    HEMO_EXPECTS(kill.rank >= 0 && kill.rank < cfg.ranks && kill.step >= 0 &&
                 kill.step < cfg.steps);
  geom::CylinderSpec spec;
  spec.scale = cfg.scale;
  spec.radius_per_scale = 5.0;
  spec.axial_per_scale = 24.0;
  SolverSetup s;
  s.lattice = geom::make_cylinder_lattice(
      spec, cfg.periodic ? geom::CylinderEnds::kPeriodic
                         : geom::CylinderEnds::kInletOutlet);
  s.partition = decomp::slab_partition(*s.lattice, cfg.ranks);
  s.options.tau = 0.9;
  if (cfg.periodic) {
    s.options.body_force = {0.0, 0.0, 1e-6};
  } else {
    s.options.inlet_velocity = 0.01;
    s.options.outlet_density = 1.0;
  }
  return s;
}

resilience::Options resilience_options(const ChaosConfig& cfg, bool sdc) {
  resilience::Options o;
  // A permanent kill is unrecoverable by the transient ladder; arm the
  // shrink rung whenever one is scheduled.
  o.shrink.enabled = !cfg.kills.empty();
  o.shrink.min_survivors = cfg.min_survivors;
  if (sdc || std::find(cfg.kinds.begin(), cfg.kinds.end(),
                       resilience::FaultKind::kBitFlip) != cfg.kinds.end()) {
    // Bit flips are invisible to the wire-level guards; arm the sentinel.
    o.sentinel.enabled = true;
    o.sentinel.reexec_sample = cfg.reexec_sample;
    // Every detection spends one rollback; budget for the whole plan so
    // the run is scored on coverage, not on running out of recoveries.
    o.recovery.max_rollbacks += sdc ? cfg.flips : cfg.events_per_kind;
    // Let repeated hits on one rank escalate to quarantine (RS005).
    o.shrink.enabled = true;
  }
  return o;
}

std::vector<double> clean_reference(const SolverSetup& s, int steps) {
  harvey::DistributedSolver solver(s.lattice, s.partition, s.options);
  solver.run(steps);
  return solver.global_distributions();
}

double sum_of(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

/// Runs the solver for `steps` under `options` with `plan` injected: wire
/// events through a FaultyNetwork, bit flips by the solver itself.
FaultedRun run_faulted(const SolverSetup& setup, int steps,
                       resilience::FaultPlan plan,
                       const resilience::Options& options) {
  harvey::DistributedSolver solver(setup.lattice, setup.partition,
                                   setup.options);
  auto owned_net = std::make_unique<resilience::FaultyNetwork>(
      solver.n_ranks(), std::move(plan));
  resilience::FaultyNetwork& net = *owned_net;
  solver.set_network(std::move(owned_net));
  // Sharing the network's copy of the plan keeps the one-shot fired flags
  // consistent across both injection paths.
  solver.set_fault_injection(&net.plan());
  solver.enable_resilience(options);

  FaultedRun run;
  run.survived = true;
  try {
    solver.run(steps);
  } catch (const resilience::SolverFault& fault) {
    run.survived = false;
    run.fault_message = fault.what();
  }
  run.stats = solver.resilience_stats();
  run.plan = net.plan();
  run.log = net.log();
  if (run.survived) run.state = solver.global_distributions();
  run.final_mass = solver.total_mass();
  run.survivor_count = solver.survivor_count();
  return run;
}

}  // namespace

ChaosRun run_network_chaos(const ChaosConfig& cfg) {
  const SolverSetup setup = make_setup(cfg);
  const std::vector<double> reference = clean_reference(setup, cfg.steps);

  resilience::FaultPlan plan;
  {
    harvey::DistributedSolver probe(setup.lattice, setup.partition,
                                    setup.options);
    plan = resilience::FaultPlan::random(cfg.seed, cfg.steps,
                                         probe.exchange_pairs(), cfg.kinds,
                                         cfg.events_per_kind);
  }
  for (const KillSpec& kill : cfg.kills) plan.kill_rank(kill.rank, kill.step);

  const resilience::Options options = resilience_options(cfg, false);
  ChaosRun out;
  out.run = run_faulted(setup, cfg.steps, plan, options);
  out.reference_mass = sum_of(reference);
  out.identical = out.run.survived && out.run.state == reference;
  // Determinism gate for permanent kills: the same seed + kill schedule
  // must reproduce the recovery — and the final state — bit for bit.
  if (!cfg.kills.empty()) {
    const FaultedRun rerun = run_faulted(setup, cfg.steps, plan, options);
    out.rerun_identical = out.run.survived == rerun.survived &&
                          out.run.state == rerun.state;
  }

  std::vector<resilience::FaultKind> kinds = cfg.kinds;
  if (!cfg.kills.empty()) kinds.push_back(resilience::FaultKind::kRankDeath);
  for (const resilience::FaultKind kind : kinds)
    out.events.push_back(EventCount{kind, out.run.plan.count(kind),
                                    out.run.plan.fired_count(kind)});

  out.verdict = !out.run.survived ? Verdict::kStructural
                : (out.identical && out.rerun_identical)
                    ? Verdict::kSurvived
                    : Verdict::kDivergence;
  return out;
}

SdcRun run_sdc_chaos(const ChaosConfig& cfg) {
  const SolverSetup setup = make_setup(cfg);
  const std::vector<double> reference = clean_reference(setup, cfg.steps);

  SdcRun out;
  out.options = resilience_options(cfg, true);
  const resilience::FaultPlan plan = resilience::FaultPlan::bit_flips(
      cfg.seed, cfg.steps, setup.lattice->size(), cfg.flips);
  out.run = run_faulted(setup, cfg.steps, plan, out.options);
  out.reference_mass = sum_of(reference);
  out.identical = out.run.survived && out.run.state == reference;

  // Score detections against the plan's recorded ground truth.  A flip is
  // detected when some detection names the rank it landed on at or after
  // its step, localized when the detection also names the exact tile; one
  // detection may explain several flips that struck the same tile inside
  // one verify window.  Conversely a detection no fired flip explains is
  // spurious — the gate demands zero.
  const std::vector<resilience::SdcDetection>& detections =
      out.run.stats.sdc_detections;
  const auto is_fired_flip = [](const resilience::FaultEvent& e) {
    return e.kind == resilience::FaultKind::kBitFlip && e.fired;
  };
  for (const resilience::FaultEvent& e : out.run.plan.events()) {
    if (!is_fired_flip(e)) continue;
    FlipOutcome o;
    o.event = e;
    for (const resilience::SdcDetection& d : detections) {
      if (d.step < e.step || d.rank != e.fired_rank) continue;
      o.detected = true;
      if (d.tile == e.fired_tile) {
        o.localized = true;
        const std::int64_t latency = d.step - e.step;
        if (o.latency < 0 || latency < o.latency) o.latency = latency;
      }
    }
    out.detected += o.detected ? 1 : 0;
    out.localized += o.localized ? 1 : 0;
    out.max_latency = std::max(out.max_latency, o.latency);
    out.flips.push_back(o);
  }
  for (const resilience::SdcDetection& d : detections) {
    bool explained = false;
    for (const resilience::FaultEvent& e : out.run.plan.events())
      explained |= is_fired_flip(e) && e.fired_rank == d.rank &&
                   e.fired_tile == d.tile && e.step <= d.step;
    if (!explained) ++out.spurious;
  }

  const auto fired = static_cast<double>(out.flips.size());
  if (!out.flips.empty()) {
    out.coverage = out.detected / fired;
    out.localization = out.localized / fired;
  }
  out.latency_ok =
      out.max_latency <= out.options.recovery.checkpoint_interval;
  out.clean = out.spurious == 0 && out.run.stats.sdc_false_positive == 0;
  out.verdict = !out.run.survived ? Verdict::kStructural
                : (out.coverage >= 0.99 && out.localization >= 0.99 &&
                   out.latency_ok && out.clean && out.identical)
                    ? Verdict::kSurvived
                    : Verdict::kDivergence;
  return out;
}

CampaignRun run_campaign_chaos(const ChaosConfig& cfg) {
  HEMO_EXPECTS(cfg.ranks >= 2);
  const SolverSetup setup = make_setup(cfg);
  const std::vector<double> reference = clean_reference(setup, cfg.steps);

  CampaignRun out;
  out.fault_step = cfg.steps / 2;
  // One unrecoverable fault mid-run: a long stall with no rollback budget
  // forces a structured SolverFault on the first attempt.  The plan's
  // fired flags are carried across attempts (transient soft error), so the
  // retry resumes cleanly from the last on-disk checkpoint.  Rank 0 always
  // communicates in a slab decomposition with >= 2 ranks.
  resilience::FaultPlan plan;
  {
    resilience::FaultEvent e;
    e.kind = resilience::FaultKind::kStall;
    e.step = out.fault_step;
    e.src = 0;
    e.stall_polls = 1000;  // far beyond any retransmission budget
    plan.add(e);
  }

  const std::string ckpt_path =
      "hemo_chaos_ckpt_" + std::to_string(cfg.seed) + ".bin";
  rt::CheckpointSlot slot;

  rt::JobOptions job;
  job.name = "chaos-campaign-point";
  job.retry.max_attempts = 3;

  rt::JobOutcome<std::vector<double>> outcome =
      rt::run_job<std::vector<double>>(job, [&](int attempt) {
        harvey::DistributedSolver solver(setup.lattice, setup.partition,
                                         setup.options);
        auto net = std::make_unique<resilience::FaultyNetwork>(
            solver.n_ranks(), plan);
        resilience::FaultyNetwork* net_raw = net.get();
        solver.set_network(std::move(net));
        resilience::Options opts = resilience_options(cfg, false);
        opts.recovery.max_rollbacks = 0;  // force the structured failure
        solver.enable_resilience(opts);

        if (attempt > 1 && slot.has_checkpoint()) {
          solver.restore_checkpoint(slot.path);
          out.resume_step = solver.step_count();
        }
        try {
          while (solver.step_count() < cfg.steps) {
            const int chunk = static_cast<int>(std::min<std::int64_t>(
                kCampaignCheckpointInterval, cfg.steps - solver.step_count()));
            solver.run(chunk);
            solver.save_checkpoint(ckpt_path);
            slot.record(ckpt_path, solver.step_count());
          }
        } catch (const resilience::SolverFault&) {
          // The fault fired; the next attempt must not re-encounter it.
          plan = net_raw->plan();
          throw;
        }
        return solver.global_distributions();
      });

  out.attempts = outcome.attempts;
  out.survived = outcome.ok();
  out.identical = out.survived && *outcome.value == reference;
  std::remove(ckpt_path.c_str());
  // Structural: the job never completed, or the seeded fault never forced
  // a retry, so the scenario did not exercise checkpoint/restart.
  // Divergence: it resumed but did not reproduce the clean run.
  out.verdict = (!out.survived || out.attempts <= 1) ? Verdict::kStructural
                : out.identical                      ? Verdict::kSurvived
                                                     : Verdict::kDivergence;
  return out;
}

// ---------------------------------------------------------------------------
// run_serve_crash
// ---------------------------------------------------------------------------

namespace {

/// Every server lives in a forked child: the parent never spawns a
/// thread, so fork() stays safe, and the crash injection's _exit(137)
/// takes down a whole process exactly as SIGKILL would.
int spawn_child(const std::function<int()>& body) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    int code = 1;
    try {
      code = body();
    } catch (...) {
      code = 1;
    }
    ::_exit(code);  // skip atexit: stdio buffers belong to the parent
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream os;
  os << is.rdbuf();
  *out = os.str();
  return true;
}

bool write_campaign_csv(const std::string& path,
                        const rt::CampaignResult& result) {
  std::ofstream os(path, std::ios::binary);
  rt::write_campaign_csv(result, os);
  return static_cast<bool>(os);
}

/// Serves the campaign once.  With `crash_after` > 0 the journal at `path`
/// is armed to _exit(137) after that record, so returning at all means the
/// injection never fired: exit 1, which the parent treats as structural.
/// Otherwise the run is the uninterrupted reference, journal-free, and
/// writes its CSV to `path`.
int serve_child(const ServeCrashConfig& cfg,
                const std::vector<rt::SeriesSpec>& series,
                const std::string& path, std::size_t crash_after) {
  serve::ServeOptions options;
  options.workers = cfg.workers;
  if (crash_after > 0) {
    serve::JournalOptions journal;
    journal.path = path;
    journal.group_commit = 1;
    journal.crash_after_records = crash_after;
    options.journal = journal;
  }
  serve::Server server(options);
  // Journaled tenant config = record 1, so every kill point's record
  // count below is deterministic.
  if (crash_after > 0)
    server.configure_tenant("chaos", server.options().tenant_defaults);
  serve::ServeHandle client(server, "chaos");
  const serve::Server::SubmitOutcome outcome =
      client.submit("serve-crash", series);
  if (!outcome.admitted) return 1;
  const rt::CampaignResult result = client.wait(outcome.request_id);
  if (crash_after > 0) return 1;
  return write_campaign_csv(path, result) ? 0 : 1;
}

/// Recovery: replays the crashed journal, resumes its unfinished request
/// (or, after a pre-admission crash, re-submits the campaign — the
/// journal never made the request durable, so the retry is the client's),
/// finishes it, and reports the dedup counters.
int serve_recover_child(const ServeCrashConfig& cfg,
                        const std::vector<rt::SeriesSpec>& series,
                        const std::string& wal_path,
                        const std::string& csv_path,
                        const std::string& stats_path) {
  const serve::RecoveredState state = serve::replay_journal(wal_path);
  serve::ServeOptions options;
  options.workers = cfg.workers;
  serve::JournalOptions journal;
  journal.path = wal_path;
  journal.group_commit = 1;
  journal.resume_offset = state.valid_bytes;
  options.journal = journal;
  serve::Server server(options);
  serve::ServeHandle client(server, "chaos");

  std::vector<std::uint64_t> resumed_ids;
  if (state.records > 0) {
    server.restore(state, [&](const serve::RecoveredRequest& request) {
      resumed_ids.push_back(request.id);
      return client.adopt(request);
    });
  }
  std::uint64_t request_id = 0;
  if (resumed_ids.empty()) {
    const serve::Server::SubmitOutcome outcome =
        client.submit("serve-crash", series);
    if (!outcome.admitted) return 1;
    request_id = outcome.request_id;
  } else {
    request_id = resumed_ids.front();
  }
  const rt::CampaignResult result = client.wait(request_id);
  const serve::ServeStats stats = server.stats();

  if (!write_campaign_csv(csv_path, result)) return 1;
  std::ofstream os(stats_path);
  os << stats.requests_resumed << ' ' << stats.points_replayed << ' '
     << stats.board.executions << '\n';
  return os ? 0 : 1;
}

/// Reads the counters serve_recover_child wrote.
bool read_recover_stats(const std::string& path, KillPointOutcome* o) {
  std::ifstream is(path);
  return static_cast<bool>(is >> o->resumed >> o->replayed >> o->executions);
}

}  // namespace

ServeCrashRun run_serve_crash(const ServeCrashConfig& cfg) {
  HEMO_EXPECTS(cfg.workers >= 1);
  rt::SeriesSpec spec;
  const bool parsed = rt::parse_series(kServeCrashSeries, &spec);
  HEMO_ASSERT(parsed);
  const std::vector<rt::SeriesSpec> series{spec};
  ServeCrashRun out;
  out.series = rt::series_label(spec);
  out.total_points =
      sys::piecewise_schedule(sys::system_spec(spec.system).max_devices)
          .size();

  const std::string prefix = "hemo_chaos_serve_" + std::to_string(cfg.seed);
  const std::string golden_csv = prefix + "_golden.csv";
  const std::string wal_path = prefix + ".wal";
  const std::string recovered_csv = prefix + "_recovered.csv";
  const std::string stats_path = prefix + "_recover.stats";
  auto cleanup = [&] {
    std::remove(golden_csv.c_str());
    std::remove(wal_path.c_str());
    std::remove(recovered_csv.c_str());
    std::remove(stats_path.c_str());
  };

  const int golden_exit = spawn_child(
      [&] { return serve_child(cfg, series, golden_csv, 0); });
  std::string golden_bytes;
  if (golden_exit != 0 || !read_file(golden_csv, &golden_bytes)) {
    out.error =
        "golden serve run failed (exit " + std::to_string(golden_exit) + ")";
    cleanup();
    return out;
  }

  // Journal records of this campaign: 1 tenant config, 1 admission,
  // total_points point records, 1 done.  The three kill points bracket
  // the request lifecycle: before the admission record is durable,
  // mid-campaign, and after every point but before the terminal record.
  struct KillPoint {
    const char* label;
    std::size_t crash_after;
  };
  const KillPoint kill_points[] = {
      {"pre-admission", 1},
      {"mid-campaign", 2 + out.total_points / 2},
      {"pre-terminal", 2 + out.total_points},
  };

  for (const KillPoint& kill : kill_points) {
    KillPointOutcome o;
    o.label = kill.label;
    o.crash_after = kill.crash_after;
    o.expected_replayed = kill.crash_after >= 2 ? kill.crash_after - 2 : 0;
    std::remove(wal_path.c_str());
    std::remove(recovered_csv.c_str());
    std::remove(stats_path.c_str());

    o.crash_exit = spawn_child([&] {
      return serve_child(cfg, series, wal_path, kill.crash_after);
    });
    if (o.crash_exit != 137) {
      o.note = "crash injection did not fire";
      out.outcomes.push_back(o);
      continue;
    }
    o.recover_exit = spawn_child([&] {
      return serve_recover_child(cfg, series, wal_path, recovered_csv,
                                 stats_path);
    });
    if (o.recover_exit != 0) {
      o.note = "recovery run failed";
      out.outcomes.push_back(o);
      continue;
    }

    std::string recovered_bytes;
    o.csv_identical = read_file(recovered_csv, &recovered_bytes) &&
                      recovered_bytes == golden_bytes;
    // The dedup proof: every durable point was delivered from the
    // journal, and only the lost remainder was (re-)executed.
    o.dedup_ok = read_recover_stats(stats_path, &o) &&
                 o.replayed == o.expected_replayed &&
                 o.executions == out.total_points - o.expected_replayed;
    try {
      const serve::RecoveredState final_state =
          serve::replay_journal(wal_path);
      bool all_done = !final_state.requests.empty();
      for (const serve::RecoveredRequest& r : final_state.requests)
        all_done &= r.done;
      o.journal_terminal = all_done && final_state.clean_shutdown &&
                           final_state.truncated_reason.empty();
    } catch (const serve::JournalError& error) {
      o.journal_terminal = false;
      o.note = error.what();
    }
    out.outcomes.push_back(o);
  }
  cleanup();

  bool structural = false;
  bool all_ok = true;
  for (const KillPointOutcome& o : out.outcomes) {
    structural |= o.structural();
    all_ok &= o.ok();
  }
  out.verdict = structural ? Verdict::kStructural
                : all_ok   ? Verdict::kSurvived
                           : Verdict::kDivergence;
  return out;
}

}  // namespace hemo::chaos
