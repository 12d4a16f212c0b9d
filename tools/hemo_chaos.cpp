// hemo_chaos: chaos harness for the resilience subsystem.
//
//   hemo_chaos [--scale S] [--ranks N] [--steps N] [--seed N]
//              [--kinds all|k1,k2,...] [--events N] [--periodic]
//              [--decomp slab|bisection] [--max-retransmits N]
//              [--max-rollbacks N] [--snapshot-interval N] [--no-frames]
//              [--kill-rank R@S ...] [--death-deadline N]
//              [--min-survivors N] [--report FILE|-] [--json FILE|-]
//              [--quiet]
//       Runs the distributed cylinder solver twice — once clean, once with
//       a seeded deterministic fault schedule injected into its network —
//       and emits a survival/recovery report.  --kill-rank R@S injects a
//       PERMANENT rank death (repeatable); the solver must then shrink
//       onto the survivors.  Kill runs are executed twice with the same
//       schedule and the two final states compared, so the report also
//       certifies that recovery is deterministic.
//
//   hemo_chaos --sdc [common flags above] [--flips N] [--tile-points N]
//              [--check-interval N] [--reexec-sample N]
//              [--quarantine-threshold N]
//       Silent-data-corruption gate for the RS006 sentinel: a seeded plan
//       of in-memory bit flips (FaultPlan::bit_flips) is injected directly
//       into live distribution slots — the wire never sees them — and the
//       run is scored against the plan's ground truth: every fired flip
//       must be detected by the sentinel, localized to the {rank, tile} it
//       actually landed on within the snapshot interval, and rolled back
//       to a final state bit-identical to the unfaulted reference, with
//       zero spurious detections and zero false positives.
//
//   hemo_chaos --campaign [common flags above] [--ckpt-interval N]
//       Demonstrates checkpoint/restart through the hemo-rt job layer: the
//       job checkpoints periodically, attempt 1 dies on an unrecoverable
//       injected stall (structured SolverFault), and the retry resumes
//       from the last on-disk checkpoint.
//
//   hemo_chaos --serve-crash [--series S]... [--workers N] [--seed N]
//              [--report FILE|-] [--json FILE|-] [--quiet]
//       Crash/recovery gate for the hemo-durable serving tier.  A golden
//       child process serves a campaign uninterrupted; then, for each of
//       three seeded kill points — pre-admission, mid-campaign, and
//       pre-terminal-record — a child serves the same campaign with a
//       write-ahead journal armed to SIGKILL-style _exit(137) after the
//       Nth record, and a recovery child replays the journal, resumes
//       the unfinished request, and finishes it.  The gate passes only
//       if every recovered campaign is byte-identical to the golden CSV
//       and the dedup counters prove journaled points were delivered
//       from the log, never re-executed.
//
// Fault kinds (--list-kinds prints this): drop duplicate corrupt delay
// truncate stall (transient, one-shot; what --kinds all draws from),
// rank-death (permanent; via --kill-rank), and bit-flip (in-memory SDC;
// via --sdc, or --kinds bit-flip to mix flips into a network chaos run —
// either arms the sentinel).
//
// Exit codes (consumed by the ctest gates and the CI chaos-smoke matrix):
//   0  survived: every fault recovered, final state bit-identical to the
//      clean reference (and, for kill runs, across reruns)
//   2  structural fault: the recovery ladder was exhausted (SolverFault),
//      or the command line was malformed
//   3  divergence: the run survived but its final state differs from the
//      clean reference, or a kill-run rerun did not reproduce it
//
// Examples:
//   hemo_chaos --ranks 4 --steps 40 --seed 7 --kinds all --report chaos.csv
//   hemo_chaos --ranks 8 --steps 40 --events 0 --kill-rank 5@17 --json -
//   hemo_chaos --campaign --ranks 4 --steps 60 --seed 11

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "base/format.hpp"
#include "base/table.hpp"
#include "decomp/partition.hpp"
#include "geom/cylinder.hpp"
#include "harvey/distributed_solver.hpp"
#include "resilience/fault.hpp"
#include "resilience/faulty_network.hpp"
#include "rt/campaign.hpp"
#include "rt/job.hpp"
#include "serve/recovery.hpp"
#include "serve/server.hpp"
#include "sys/hardware.hpp"

namespace {

using namespace hemo;

/// One --kill-rank R@S: rank R dies permanently at step S.
struct KillSpec {
  int rank = 0;
  int step = 0;
};

struct Config {
  double scale = 1.0;
  int ranks = 4;
  int steps = 40;
  std::uint64_t seed = 7;
  std::vector<resilience::FaultKind> kinds{std::begin(resilience::kAllFaultKinds),
                                           std::end(resilience::kAllFaultKinds)};
  int events_per_kind = 1;
  bool periodic = false;
  bool bisection = false;
  int max_retransmits = 3;
  int max_rollbacks = 4;
  int snapshot_interval = 8;
  bool frames = true;
  bool campaign = false;
  int ckpt_interval = 10;
  bool sdc = false;
  int flips = 8;
  int tile_points = 256;
  int check_interval = 1;
  int reexec_sample = 0;
  int quarantine_threshold = 3;
  bool serve_crash = false;
  int workers = 4;
  std::vector<std::string> serve_series;  // empty: the default series
  std::vector<KillSpec> kills;
  int death_deadline = 2;
  int min_survivors = 1;
  std::string report_path;
  std::string json_path;
  bool quiet = false;
};

// Exit codes, documented in the header comment above.
constexpr int kExitSurvived = 0;
constexpr int kExitStructural = 2;
constexpr int kExitDivergence = 3;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scale S] [--ranks N] [--steps N] [--seed N]\n"
      "       %*s [--kinds all|k1,k2,...] [--list-kinds]\n"
      "       %*s [--events N] [--periodic] [--decomp slab|bisection]\n"
      "       %*s [--max-retransmits N] [--max-rollbacks N]\n"
      "       %*s [--snapshot-interval N] [--no-frames]\n"
      "       %*s [--kill-rank R@S] [--death-deadline N] [--min-survivors N]\n"
      "       %*s [--campaign] [--ckpt-interval N] [--report FILE|-]\n"
      "       %*s [--json FILE|-] [--quiet]\n"
      "       %s --sdc [--flips N] [--tile-points N] [--check-interval N]\n"
      "       %*s [--reexec-sample N] [--quarantine-threshold N]\n"
      "       %s --serve-crash [--series S]... [--workers N] [--seed N]\n"
      "       %*s [--report FILE|-] [--json FILE|-] [--quiet]\n",
      argv0, static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "",
      static_cast<int>(std::strlen(argv0)), "", argv0,
      static_cast<int>(std::strlen(argv0)), "", argv0,
      static_cast<int>(std::strlen(argv0)), "");
  return kExitStructural;
}

/// Every kind --kinds accepts, in enum order: the transient set plus the
/// two opt-in kinds (which parse_fault_kind also recognizes).
std::vector<resilience::FaultKind> all_parseable_kinds() {
  std::vector<resilience::FaultKind> kinds(
      std::begin(resilience::kAllFaultKinds),
      std::end(resilience::kAllFaultKinds));
  kinds.push_back(resilience::FaultKind::kRankDeath);
  kinds.push_back(resilience::FaultKind::kBitFlip);
  return kinds;
}

std::string valid_kinds_text() {
  std::string out = "all";
  for (const resilience::FaultKind kind : all_parseable_kinds()) {
    out += ", ";
    out += resilience::fault_kind_name(kind);
  }
  return out;
}

/// --list-kinds: the machine-checkable catalogue of injectable faults.
int list_kinds() {
  std::printf("transient network faults (what --kinds all draws from):\n");
  for (const resilience::FaultKind kind : resilience::kAllFaultKinds)
    std::printf("  %s\n",
                std::string(resilience::fault_kind_name(kind)).c_str());
  std::printf(
      "opt-in faults (accepted by --kinds, excluded from 'all'):\n"
      "  rank-death  permanent kill; scheduled via --kill-rank R@S\n"
      "  bit-flip    in-memory SDC; seeded via --sdc or --kinds bit-flip\n");
  return kExitSurvived;
}

/// "R@S" -> {rank R, step S}.
bool parse_kill(const char* text, KillSpec* out) {
  const char* at = std::strchr(text, '@');
  if (at == nullptr || at == text || at[1] == '\0') return false;
  char* end = nullptr;
  const long rank = std::strtol(text, &end, 10);
  if (end != at || rank < 0) return false;
  const long step = std::strtol(at + 1, &end, 10);
  if (*end != '\0' || step < 0) return false;
  out->rank = static_cast<int>(rank);
  out->step = static_cast<int>(step);
  return true;
}

bool parse_int(const char* text, int* out) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

/// Parses "all" or a comma list of kind names.  On failure `*bad_token`
/// holds the first token that did not parse (possibly empty, for a
/// dangling comma or an empty list), so the caller can name the culprit
/// instead of dumping the generic usage text.
bool parse_kinds(const std::string& text,
                 std::vector<resilience::FaultKind>* out,
                 std::string* bad_token) {
  if (text == "all") {
    out->assign(std::begin(resilience::kAllFaultKinds),
                std::end(resilience::kAllFaultKinds));
    return true;
  }
  out->clear();
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    resilience::FaultKind kind;
    if (!resilience::parse_fault_kind(token, &kind)) {
      *bad_token = token;
      return false;
    }
    out->push_back(kind);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out->empty()) {
    *bad_token = "";
    return false;
  }
  return true;
}

struct SolverSetup {
  std::shared_ptr<const lbm::SparseLattice> lattice;
  decomp::Partition partition;
  lbm::SolverOptions options;
};

SolverSetup make_setup(const Config& cfg) {
  geom::CylinderSpec spec;
  spec.scale = cfg.scale;
  spec.radius_per_scale = 5.0;
  spec.axial_per_scale = 24.0;
  SolverSetup s;
  s.lattice = geom::make_cylinder_lattice(
      spec, cfg.periodic ? geom::CylinderEnds::kPeriodic
                         : geom::CylinderEnds::kInletOutlet);
  s.partition = cfg.bisection ? decomp::bisection_partition(*s.lattice, cfg.ranks)
                              : decomp::slab_partition(*s.lattice, cfg.ranks);
  s.options.tau = 0.9;
  if (cfg.periodic) {
    s.options.body_force = {0.0, 0.0, 1e-6};
  } else {
    s.options.inlet_velocity = 0.01;
    s.options.outlet_density = 1.0;
  }
  return s;
}

bool wants_bit_flips(const Config& cfg) {
  return cfg.sdc ||
         std::find(cfg.kinds.begin(), cfg.kinds.end(),
                   resilience::FaultKind::kBitFlip) != cfg.kinds.end();
}

resilience::Options resilience_options(const Config& cfg) {
  resilience::Options o;
  o.health.closed_system = cfg.periodic;
  o.recovery.max_retransmits = cfg.max_retransmits;
  o.recovery.max_rollbacks = cfg.max_rollbacks;
  o.recovery.checkpoint_interval = cfg.snapshot_interval;
  o.recovery.checksum_frames = cfg.frames;
  // A permanent kill is unrecoverable by the transient ladder; arm the
  // shrink rung whenever one is scheduled.
  o.shrink.enabled = !cfg.kills.empty();
  o.shrink.death_deadline = cfg.death_deadline;
  o.shrink.min_survivors = cfg.min_survivors;
  if (wants_bit_flips(cfg)) {
    // Bit flips are invisible to the wire-level guards; arm the sentinel.
    o.sentinel.enabled = true;
    o.sentinel.tile_points = cfg.tile_points;
    o.sentinel.check_interval = cfg.check_interval;
    o.sentinel.reexec_sample = cfg.reexec_sample;
    o.sentinel.quarantine_threshold = cfg.quarantine_threshold;
    // Every detection spends one rollback; budget for the whole plan so
    // the run is scored on coverage, not on running out of recoveries.
    o.recovery.max_rollbacks +=
        cfg.sdc ? cfg.flips : cfg.events_per_kind;
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

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

void write_report(const Config& cfg, const std::vector<Table>& tables) {
  if (cfg.report_path.empty()) return;
  if (cfg.report_path == "-") {
    for (const Table& t : tables) t.print_csv(std::cout);
    return;
  }
  std::ofstream os(cfg.report_path);
  if (!os) {
    std::fprintf(stderr, "hemo_chaos: cannot open report file '%s'\n",
                 cfg.report_path.c_str());
    return;
  }
  for (const Table& t : tables) t.print_csv(os);
}

const char* yes_no(bool v) { return v ? "yes" : "no"; }

/// Everything observed in one faulted run, detached from the solver so
/// that a rerun with the same schedule can be compared against it.
struct ChaosRun {
  bool survived = false;
  std::string fault_message;
  std::vector<double> state;  // valid iff survived
  double final_mass = 0.0;
  resilience::RunStats stats;
  resilience::FaultLog log;
  std::vector<std::pair<std::string, std::pair<int, int>>>
      events;  // kind -> (planned, fired)
  std::vector<Rank> dead_ranks;
  int survivor_count = 0;
};

ChaosRun run_once(const Config& cfg, const SolverSetup& setup,
                  const resilience::FaultPlan& plan) {
  harvey::DistributedSolver solver(setup.lattice, setup.partition,
                                   setup.options);
  auto owned_net = std::make_unique<resilience::FaultyNetwork>(
      solver.n_ranks(), plan);
  resilience::FaultyNetwork* net_raw = owned_net.get();
  solver.set_network(std::move(owned_net));
  // Bit-flip events live in the same plan but are applied by the solver,
  // not the network; sharing the network's copy keeps the one-shot fired
  // flags consistent across both injection paths.
  solver.set_fault_injection(&net_raw->plan());
  solver.enable_resilience(resilience_options(cfg));

  ChaosRun run;
  run.survived = true;
  try {
    solver.run(cfg.steps);
  } catch (const resilience::SolverFault& fault) {
    run.survived = false;
    run.fault_message = fault.what();
  }

  const auto* net =
      dynamic_cast<const resilience::FaultyNetwork*>(&solver.network());
  run.stats = solver.resilience_stats();
  run.log = net->log();
  std::vector<resilience::FaultKind> kinds = cfg.kinds;
  if (!cfg.kills.empty()) kinds.push_back(resilience::FaultKind::kRankDeath);
  for (const resilience::FaultKind kind : kinds)
    run.events.emplace_back(
        std::string(resilience::fault_kind_name(kind)),
        std::make_pair(net->plan().count(kind),
                       net->plan().fired_count(kind)));
  run.dead_ranks = run.stats.dead_ranks;
  run.survivor_count = solver.survivor_count();
  run.final_mass = solver.total_mass();
  if (run.survived) run.state = solver.global_distributions();
  return run;
}

/// Machine-readable single-object report: configuration, per-kind event
/// counts, recovery counters, shrink provenance, and the verdict with the
/// exit code the process is about to return.
void write_json(const Config& cfg, const ChaosRun& run, double reference_mass,
                bool identical, bool rerun_identical, int exit_code) {
  if (cfg.json_path.empty()) return;
  std::ofstream file;
  if (cfg.json_path != "-") {
    file.open(cfg.json_path);
    if (!file) {
      std::fprintf(stderr, "hemo_chaos: cannot open json file '%s'\n",
                   cfg.json_path.c_str());
      return;
    }
  }
  std::ostream& os = cfg.json_path == "-" ? std::cout : file;

  os << "{\n";
  os << "  \"config\": {\"ranks\": " << cfg.ranks << ", \"steps\": "
     << cfg.steps << ", \"seed\": " << cfg.seed << ", \"decomp\": \""
     << (cfg.bisection ? "bisection" : "slab") << "\", \"kills\": [";
  for (std::size_t k = 0; k < cfg.kills.size(); ++k)
    os << (k ? ", " : "") << "{\"rank\": " << cfg.kills[k].rank
       << ", \"step\": " << cfg.kills[k].step << "}";
  os << "]},\n";

  os << "  \"events\": [";
  for (std::size_t k = 0; k < run.events.size(); ++k)
    os << (k ? ", " : "") << "{\"kind\": \"" << run.events[k].first
       << "\", \"planned\": " << run.events[k].second.first
       << ", \"fired\": " << run.events[k].second.second << "}";
  os << "],\n";

  const resilience::RunStats& s = run.stats;
  os << "  \"recovery\": {\"recv_missing\": " << s.recv_missing
     << ", \"recv_wrong_size\": " << s.recv_wrong_size
     << ", \"crc_mismatches\": " << s.crc_mismatch
     << ", \"retransmits\": " << s.retransmits
     << ", \"stragglers_drained\": " << s.stragglers_drained
     << ", \"halo_audit_mismatches\": " << s.halo_audit_mismatches
     << ", \"health_errors\": " << s.health_errors
     << ", \"rollbacks\": " << s.rollbacks
     << ", \"snapshots\": " << s.snapshots
     << ", \"sdc_detected\": " << s.sdc_detected
     << ", \"sdc_false_positive\": " << s.sdc_false_positive
     << ", \"sdc_quarantines\": " << s.sdc_quarantines << "},\n";

  os << "  \"shrink\": {\"rank_deaths\": " << s.rank_deaths
     << ", \"shrinks\": " << s.shrinks << ", \"dead_ranks\": [";
  for (std::size_t k = 0; k < run.dead_ranks.size(); ++k)
    os << (k ? ", " : "") << run.dead_ranks[k];
  os << "], \"recovery_step\": " << s.last_recovery_step
     << ", \"survivor_count\": " << run.survivor_count << "},\n";

  char mass[64];
  std::snprintf(mass, sizeof(mass), "%.17g", run.final_mass);
  char ref_mass[64];
  std::snprintf(ref_mass, sizeof(ref_mass), "%.17g", reference_mass);
  os << "  \"verdict\": {\"survived\": " << (run.survived ? "true" : "false")
     << ", \"bit_identical\": " << (identical ? "true" : "false")
     << ", \"rerun_identical\": " << (rerun_identical ? "true" : "false")
     << ", \"final_mass\": " << mass << ", \"reference_mass\": " << ref_mass
     << ", \"fault\": \"" << json_escape(run.fault_message)
     << "\", \"exit_code\": " << exit_code << "}\n";
  os << "}\n";
}

int run_solver_chaos(const Config& cfg) {
  const SolverSetup setup = make_setup(cfg);
  const std::vector<double> reference = clean_reference(setup, cfg.steps);
  double reference_mass = 0.0;
  for (const double v : reference) reference_mass += v;

  resilience::FaultPlan plan;
  {
    harvey::DistributedSolver probe(setup.lattice, setup.partition,
                                    setup.options);
    plan = resilience::FaultPlan::random(cfg.seed, cfg.steps,
                                         probe.exchange_pairs(), cfg.kinds,
                                         cfg.events_per_kind);
  }
  for (const KillSpec& kill : cfg.kills) {
    if (kill.rank >= cfg.ranks) {
      std::fprintf(stderr, "hemo_chaos: --kill-rank %d@%d: rank out of "
                           "range for --ranks %d\n",
                   kill.rank, kill.step, cfg.ranks);
      return kExitStructural;
    }
    plan.kill_rank(kill.rank, kill.step);
  }

  const ChaosRun run = run_once(cfg, setup, plan);
  const bool identical =
      run.survived && bit_identical(run.state, reference);

  // Determinism gate for permanent kills: the same seed + kill schedule
  // must reproduce the recovery — and the final state — bit for bit.
  bool rerun_identical = true;
  if (!cfg.kills.empty()) {
    const ChaosRun rerun = run_once(cfg, setup, plan);
    rerun_identical = run.survived == rerun.survived &&
                      (!run.survived ||
                       bit_identical(run.state, rerun.state));
  }

  const int exit_code = !run.survived ? kExitStructural
                        : (identical && rerun_identical) ? kExitSurvived
                                                         : kExitDivergence;

  Table injection({"Fault kind", "Planned", "Fired", "Recovered"});
  for (const auto& [kind, counts] : run.events)
    injection.add_row({kind, std::to_string(counts.first),
                       std::to_string(counts.second),
                       run.survived ? std::to_string(counts.second) : "?"});

  const resilience::RunStats& stats = run.stats;
  Table recovery({"Metric", "Value"});
  recovery.add_row({"steps", std::to_string(cfg.steps)});
  recovery.add_row({"ranks", std::to_string(cfg.ranks)});
  recovery.add_row({"seed", std::to_string(cfg.seed)});
  recovery.add_row({"faults_injected",
                    std::to_string(run.log.total_injected())});
  recovery.add_row({"recv_missing", std::to_string(stats.recv_missing)});
  recovery.add_row({"recv_wrong_size",
                    std::to_string(stats.recv_wrong_size)});
  recovery.add_row({"crc_mismatches", std::to_string(stats.crc_mismatch)});
  recovery.add_row({"retransmits", std::to_string(stats.retransmits)});
  recovery.add_row({"stragglers_drained",
                    std::to_string(stats.stragglers_drained)});
  recovery.add_row({"halo_audit_mismatches",
                    std::to_string(stats.halo_audit_mismatches)});
  recovery.add_row({"health_errors", std::to_string(stats.health_errors)});
  recovery.add_row({"rollbacks", std::to_string(stats.rollbacks)});
  recovery.add_row({"snapshots", std::to_string(stats.snapshots)});
  recovery.add_row({"rank_deaths", std::to_string(stats.rank_deaths)});
  recovery.add_row({"shrinks", std::to_string(stats.shrinks)});
  recovery.add_row({"survivors", std::to_string(run.survivor_count)});
  recovery.add_row({"survived", yes_no(run.survived)});
  recovery.add_row({"bit_identical", yes_no(identical)});
  if (!cfg.kills.empty())
    recovery.add_row({"rerun_identical", yes_no(rerun_identical)});

  if (!cfg.quiet) {
    injection.print_aligned(std::cout);
    std::cout << '\n';
    recovery.print_aligned(std::cout);
    if (!run.survived)
      std::cout << "\nUNRECOVERED: " << run.fault_message << '\n';
    else if (!identical)
      std::cout << "\nMISMATCH: recovered run diverged from the clean "
                   "reference\n";
    else if (!rerun_identical)
      std::cout << "\nMISMATCH: rerun with the same kill schedule did not "
                   "reproduce the recovery\n";
    else
      std::cout << "\nall injected faults recovered; final state "
                   "bit-identical to the clean run\n";
    for (const auto& d : stats.diagnostics)
      std::cout << "  [" << d.rule_id << "] " << d.file << ": " << d.message
                << '\n';
  }
  write_report(cfg, {injection, recovery});
  write_json(cfg, run, reference_mass, identical, rerun_identical, exit_code);
  return exit_code;
}

// ---------------------------------------------------------------------------
// --sdc: silent-data-corruption gate for the RS006 sentinel
// ---------------------------------------------------------------------------

/// One injected flip, scored against the sentinel's detections.
struct FlipOutcome {
  const resilience::FaultEvent* event = nullptr;
  bool detected = false;      // some detection on the rank it landed on
  bool localized = false;     // ...naming the exact tile it landed in
  std::int64_t latency = -1;  // steps from injection to first localization
};

struct SdcRun {
  bool survived = false;
  std::string fault_message;
  resilience::RunStats stats;
  std::vector<FlipOutcome> flips;
  int fired = 0;
  int detected = 0;
  int localized = 0;
  int spurious = 0;  // detections no fired flip explains
  std::int64_t max_latency = 0;
  double final_mass = 0.0;
  int survivor_count = 0;
  bool identical = false;
};

void write_sdc_json(const Config& cfg, const SdcRun& run, int planned,
                    double coverage, double localization, bool latency_ok,
                    double reference_mass, int exit_code) {
  if (cfg.json_path.empty()) return;
  std::ofstream file;
  if (cfg.json_path != "-") {
    file.open(cfg.json_path);
    if (!file) {
      std::fprintf(stderr, "hemo_chaos: cannot open json file '%s'\n",
                   cfg.json_path.c_str());
      return;
    }
  }
  std::ostream& os = cfg.json_path == "-" ? std::cout : file;

  os << "{\n";
  os << "  \"config\": {\"mode\": \"sdc\", \"ranks\": " << cfg.ranks
     << ", \"steps\": " << cfg.steps << ", \"seed\": " << cfg.seed
     << ", \"flips\": " << cfg.flips << ", \"tile_points\": "
     << cfg.tile_points << ", \"check_interval\": " << cfg.check_interval
     << ", \"reexec_sample\": " << cfg.reexec_sample
     << ", \"quarantine_threshold\": " << cfg.quarantine_threshold
     << ", \"snapshot_interval\": " << cfg.snapshot_interval << "},\n";

  os << "  \"injection\": {\"planned\": " << planned << ", \"fired\": "
     << run.fired << "},\n";

  char cov[32], loc[32];
  std::snprintf(cov, sizeof(cov), "%.4f", coverage);
  std::snprintf(loc, sizeof(loc), "%.4f", localization);
  const resilience::RunStats& s = run.stats;
  os << "  \"detection\": {\"checks\": " << s.sdc_checks
     << ", \"detected\": " << s.sdc_detected
     << ", \"flips_detected\": " << run.detected
     << ", \"flips_localized\": " << run.localized
     << ", \"coverage\": " << cov << ", \"localization\": " << loc
     << ", \"max_latency_steps\": " << run.max_latency
     << ", \"spurious\": " << run.spurious
     << ", \"false_positives\": " << s.sdc_false_positive
     << ", \"quarantines\": " << s.sdc_quarantines << "},\n";

  os << "  \"recovery\": {\"rollbacks\": " << s.rollbacks
     << ", \"snapshots\": " << s.snapshots << ", \"shrinks\": " << s.shrinks
     << ", \"health_errors\": " << s.health_errors
     << ", \"survivor_count\": " << run.survivor_count << "},\n";

  os << "  \"flips\": [";
  for (std::size_t k = 0; k < run.flips.size(); ++k) {
    const FlipOutcome& o = run.flips[k];
    const resilience::FaultEvent& e = *o.event;
    os << (k ? ",\n    " : "\n    ") << "{\"step\": " << e.step
       << ", \"point\": " << e.flip_point << ", \"q\": " << e.flip_q
       << ", \"bit\": " << e.flip_bit << ", \"rank\": " << e.fired_rank
       << ", \"tile\": " << e.fired_tile
       << ", \"detected\": " << (o.detected ? "true" : "false")
       << ", \"localized\": " << (o.localized ? "true" : "false")
       << ", \"latency_steps\": " << o.latency << "}";
  }
  os << (run.flips.empty() ? "" : "\n  ") << "],\n";

  char mass[64], ref_mass[64];
  std::snprintf(mass, sizeof(mass), "%.17g", run.final_mass);
  std::snprintf(ref_mass, sizeof(ref_mass), "%.17g", reference_mass);
  os << "  \"verdict\": {\"survived\": " << (run.survived ? "true" : "false")
     << ", \"coverage_ok\": " << (coverage >= 0.99 ? "true" : "false")
     << ", \"localization_ok\": " << (localization >= 0.99 ? "true" : "false")
     << ", \"latency_ok\": " << (latency_ok ? "true" : "false")
     << ", \"clean\": "
     << (run.spurious == 0 && s.sdc_false_positive == 0 ? "true" : "false")
     << ", \"bit_identical\": " << (run.identical ? "true" : "false")
     << ", \"final_mass\": " << mass << ", \"reference_mass\": " << ref_mass
     << ", \"fault\": \"" << json_escape(run.fault_message)
     << "\", \"exit_code\": " << exit_code << "}\n";
  os << "}\n";
}

int run_sdc_chaos(const Config& cfg) {
  const SolverSetup setup = make_setup(cfg);
  const std::vector<double> reference = clean_reference(setup, cfg.steps);
  double reference_mass = 0.0;
  for (const double v : reference) reference_mass += v;

  resilience::FaultPlan plan = resilience::FaultPlan::bit_flips(
      cfg.seed, cfg.steps, setup.lattice->size(), cfg.flips);

  harvey::DistributedSolver solver(setup.lattice, setup.partition,
                                   setup.options);
  solver.set_fault_injection(&plan);
  solver.enable_resilience(resilience_options(cfg));

  SdcRun run;
  run.survived = true;
  try {
    solver.run(cfg.steps);
  } catch (const resilience::SolverFault& fault) {
    run.survived = false;
    run.fault_message = fault.what();
  }
  run.stats = solver.resilience_stats();
  run.final_mass = solver.total_mass();
  run.survivor_count = solver.survivor_count();
  if (run.survived)
    run.identical = bit_identical(solver.global_distributions(), reference);

  // Score detections against the plan's recorded ground truth.  A flip is
  // detected when some detection names the rank it landed on at or after
  // its step, localized when the detection also names the exact tile; one
  // detection may explain several flips that struck the same tile inside
  // one verify window.  Conversely a detection no fired flip explains is
  // spurious — the gate demands zero.
  const std::vector<resilience::SdcDetection>& detections =
      run.stats.sdc_detections;
  for (const resilience::FaultEvent& e : plan.events()) {
    if (e.kind != resilience::FaultKind::kBitFlip || !e.fired) continue;
    ++run.fired;
    FlipOutcome o;
    o.event = &e;
    for (const resilience::SdcDetection& d : detections) {
      if (d.step < e.step || d.rank != e.fired_rank) continue;
      o.detected = true;
      if (d.tile == e.fired_tile) {
        o.localized = true;
        const std::int64_t latency = d.step - e.step;
        if (o.latency < 0 || latency < o.latency) o.latency = latency;
      }
    }
    run.detected += o.detected ? 1 : 0;
    run.localized += o.localized ? 1 : 0;
    run.max_latency = std::max(run.max_latency, o.latency);
    run.flips.push_back(o);
  }
  for (const resilience::SdcDetection& d : detections) {
    bool explained = false;
    for (const resilience::FaultEvent& e : plan.events())
      explained |= e.kind == resilience::FaultKind::kBitFlip && e.fired &&
                   e.fired_rank == d.rank && e.fired_tile == d.tile &&
                   e.step <= d.step;
    if (!explained) ++run.spurious;
  }

  const double coverage =
      run.fired == 0 ? 1.0 : static_cast<double>(run.detected) / run.fired;
  const double localization =
      run.fired == 0 ? 1.0 : static_cast<double>(run.localized) / run.fired;
  const bool latency_ok = run.max_latency <= cfg.snapshot_interval;
  const bool clean =
      run.spurious == 0 && run.stats.sdc_false_positive == 0;
  const int exit_code =
      !run.survived ? kExitStructural
      : (coverage >= 0.99 && localization >= 0.99 && latency_ok && clean &&
         run.identical)
          ? kExitSurvived
          : kExitDivergence;

  char cov[32];
  std::snprintf(cov, sizeof(cov), "%.4f", coverage);
  Table summary({"Metric", "Value"});
  summary.add_row({"steps", std::to_string(cfg.steps)});
  summary.add_row({"ranks", std::to_string(cfg.ranks)});
  summary.add_row({"seed", std::to_string(cfg.seed)});
  summary.add_row({"flips_planned", std::to_string(plan.total())});
  summary.add_row({"flips_fired", std::to_string(run.fired)});
  summary.add_row({"flips_detected", std::to_string(run.detected)});
  summary.add_row({"flips_localized", std::to_string(run.localized)});
  summary.add_row({"coverage", cov});
  summary.add_row({"max_latency_steps", std::to_string(run.max_latency)});
  summary.add_row({"spurious_detections", std::to_string(run.spurious)});
  summary.add_row({"false_positives",
                   std::to_string(run.stats.sdc_false_positive)});
  summary.add_row({"quarantines",
                   std::to_string(run.stats.sdc_quarantines)});
  summary.add_row({"rollbacks", std::to_string(run.stats.rollbacks)});
  summary.add_row({"snapshots", std::to_string(run.stats.snapshots)});
  summary.add_row({"survived", yes_no(run.survived)});
  summary.add_row({"bit_identical", yes_no(run.identical)});

  Table per_flip({"Step", "Point", "Q", "Bit", "Rank", "Tile", "Detected",
                  "Latency"});
  for (const FlipOutcome& o : run.flips) {
    const resilience::FaultEvent& e = *o.event;
    per_flip.add_row({std::to_string(e.step), std::to_string(e.flip_point),
                      std::to_string(e.flip_q), std::to_string(e.flip_bit),
                      std::to_string(e.fired_rank),
                      std::to_string(e.fired_tile),
                      o.localized ? "localized"
                                  : (o.detected ? "rank-only" : "MISSED"),
                      o.latency < 0 ? "-" : std::to_string(o.latency)});
  }

  if (!cfg.quiet) {
    per_flip.print_aligned(std::cout);
    std::cout << '\n';
    summary.print_aligned(std::cout);
    if (!run.survived)
      std::cout << "\nUNRECOVERED: " << run.fault_message << '\n';
    else if (exit_code == kExitSurvived)
      std::cout << "\nall injected flips detected, localized to their "
                   "{rank, tile}, and rolled back; final state "
                   "bit-identical to the clean run\n";
    else
      std::cout << "\nSDC GATE FAILED: coverage " << cov << ", spurious "
                << run.spurious << ", false positives "
                << run.stats.sdc_false_positive << ", bit_identical "
                << yes_no(run.identical) << '\n';
  }
  write_report(cfg, {per_flip, summary});
  write_sdc_json(cfg, run, plan.total(), coverage, localization, latency_ok,
                 reference_mass, exit_code);
  return exit_code;
}

int run_campaign_chaos(const Config& cfg) {
  if (cfg.ranks < 2) {
    std::fprintf(stderr, "--campaign needs at least 2 ranks\n");
    return kExitStructural;
  }
  const SolverSetup setup = make_setup(cfg);
  const std::vector<double> reference = clean_reference(setup, cfg.steps);

  // One unrecoverable fault mid-run: a long stall with no rollback budget
  // forces a structured SolverFault on the first attempt.  The plan's
  // fired flags are carried across attempts (transient soft error), so the
  // retry resumes cleanly from the last on-disk checkpoint.  Rank 0 always
  // communicates in a slab/bisection decomposition with >= 2 ranks.
  resilience::FaultPlan plan;
  {
    resilience::FaultEvent e;
    e.kind = resilience::FaultKind::kStall;
    e.step = cfg.steps / 2;
    e.src = 0;
    e.stall_polls = 1000;  // far beyond any retransmission budget
    plan.add(e);
  }

  const std::string ckpt_path =
      "hemo_chaos_ckpt_" + std::to_string(cfg.seed) + ".bin";
  rt::CheckpointSlot slot;
  std::int64_t resume_step = -1;

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
        resilience::Options opts = resilience_options(cfg);
        opts.recovery.max_rollbacks = 0;  // force the structured failure
        solver.enable_resilience(opts);

        if (attempt > 1 && slot.has_checkpoint()) {
          solver.restore_checkpoint(slot.path);
          resume_step = solver.step_count();
        }
        try {
          while (solver.step_count() < cfg.steps) {
            const int chunk = static_cast<int>(
                std::min<std::int64_t>(cfg.ckpt_interval,
                                       cfg.steps - solver.step_count()));
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

  const bool survived = outcome.ok();
  const bool identical = survived && bit_identical(*outcome.value, reference);
  std::remove(ckpt_path.c_str());

  Table table({"Metric", "Value"});
  table.add_row({"steps", std::to_string(cfg.steps)});
  table.add_row({"ranks", std::to_string(cfg.ranks)});
  table.add_row({"attempts", std::to_string(outcome.attempts)});
  table.add_row({"fault_step", std::to_string(cfg.steps / 2)});
  table.add_row({"resume_step",
                 resume_step < 0 ? "-" : std::to_string(resume_step)});
  table.add_row({"survived", yes_no(survived)});
  table.add_row({"bit_identical", yes_no(identical)});

  if (!cfg.quiet) {
    table.print_aligned(std::cout);
    if (survived && identical)
      std::cout << "\ncampaign point failed structurally, resumed from its "
                   "checkpoint, and matched the uninterrupted run "
                   "bit-for-bit\n";
    else
      std::cout << "\ncampaign resume FAILED\n";
  }
  write_report(cfg, {table});
  // Structural (2): the job never completed, or the seeded fault never
  // forced a retry, so the scenario did not exercise checkpoint/restart.
  // Divergence (3): it resumed but did not reproduce the clean run.
  if (!survived || outcome.attempts <= 1) return kExitStructural;
  return identical ? kExitSurvived : kExitDivergence;
}

// ---------------------------------------------------------------------------
// --serve-crash: crash/recovery gate for the durable serving tier
// ---------------------------------------------------------------------------

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

std::string serve_campaign_csv(const rt::CampaignResult& result) {
  std::ostringstream os;
  rt::write_campaign_csv(result, os);
  return os.str();
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os << bytes;
  return static_cast<bool>(os);
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream os;
  os << is.rdbuf();
  *out = os.str();
  return true;
}

/// Uninterrupted reference: serves the campaign with no journal and
/// writes the assembled CSV.  Exit 0 on success.
int serve_golden_child(const Config& cfg,
                       const std::vector<rt::SeriesSpec>& series,
                       const std::string& csv_path) {
  serve::ServeOptions options;
  options.workers = cfg.workers;
  serve::Server server(options);
  serve::ServeHandle client(server, "chaos");
  const serve::Server::SubmitOutcome outcome =
      client.submit("serve-crash", series);
  if (!outcome.admitted) return 1;
  const rt::CampaignResult result = client.wait(outcome.request_id);
  return write_file(csv_path, serve_campaign_csv(result)) ? 0 : 1;
}

/// Crash victim: same campaign, journal armed to _exit(137) after the
/// crash_after-th record.  Reaching the return statement means the
/// injection never fired — reported as exit 1, which the parent treats
/// as structural.
int serve_crash_child(const Config& cfg,
                      const std::vector<rt::SeriesSpec>& series,
                      const std::string& wal_path, std::size_t crash_after) {
  serve::ServeOptions options;
  options.workers = cfg.workers;
  serve::JournalOptions journal;
  journal.path = wal_path;
  journal.group_commit = 1;
  journal.crash_after_records = crash_after;
  options.journal = journal;
  serve::Server server(options);
  // Journaled tenant config = record 1, so every kill point's record
  // count below is deterministic.
  server.configure_tenant("chaos", server.options().tenant_defaults);
  serve::ServeHandle client(server, "chaos");
  const serve::Server::SubmitOutcome outcome =
      client.submit("serve-crash", series);
  if (!outcome.admitted) return 1;
  client.wait(outcome.request_id);
  return 1;
}

/// Recovery: replays the crashed journal, resumes its unfinished request
/// (or, after a pre-admission crash, re-submits the campaign — the
/// journal never made the request durable, so the retry is the client's),
/// finishes it, and reports the dedup counters.
int serve_recover_child(const Config& cfg,
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

  if (!write_file(csv_path, serve_campaign_csv(result))) return 1;
  std::ostringstream os;
  os << "resumed=" << stats.requests_resumed << "\n"
     << "replayed=" << stats.points_replayed << "\n"
     << "executions=" << stats.board.executions << "\n"
     << "completed=" << stats.points_completed << "\n";
  return write_file(stats_path, os.str()) ? 0 : 1;
}

struct RecoverStats {
  std::uint64_t resumed = 0;
  std::uint64_t replayed = 0;
  std::uint64_t executions = 0;
  std::uint64_t completed = 0;
};

bool parse_recover_stats(const std::string& path, RecoverStats* out) {
  std::ifstream is(path);
  if (!is) return false;
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::uint64_t value = std::strtoull(line.c_str() + eq + 1,
                                              nullptr, 10);
    if (key == "resumed") out->resumed = value;
    else if (key == "replayed") out->replayed = value;
    else if (key == "executions") out->executions = value;
    else if (key == "completed") out->completed = value;
  }
  return true;
}

struct KillPointOutcome {
  std::string label;
  std::size_t crash_after = 0;
  int crash_exit = 0;
  int recover_exit = 0;
  RecoverStats stats;
  std::uint64_t expected_replayed = 0;
  bool csv_identical = false;
  bool dedup_ok = false;
  bool journal_terminal = false;  // post-recovery replay: done + clean
  std::string note;

  bool structural() const { return crash_exit != 137 || recover_exit != 0; }
  bool ok() const {
    return !structural() && csv_identical && dedup_ok && journal_terminal;
  }
};

void write_serve_crash_json(const Config& cfg,
                            const std::vector<std::string>& series_labels,
                            std::size_t total_points,
                            const std::vector<KillPointOutcome>& outcomes,
                            int exit_code) {
  if (cfg.json_path.empty()) return;
  std::ofstream file;
  if (cfg.json_path != "-") {
    file.open(cfg.json_path);
    if (!file) {
      std::fprintf(stderr, "hemo_chaos: cannot open json file '%s'\n",
                   cfg.json_path.c_str());
      return;
    }
  }
  std::ostream& os = cfg.json_path == "-" ? std::cout : file;

  os << "{\n  \"config\": {\"mode\": \"serve-crash\", \"workers\": "
     << cfg.workers << ", \"seed\": " << cfg.seed << ", \"points\": "
     << total_points << ", \"series\": [";
  for (std::size_t k = 0; k < series_labels.size(); ++k)
    os << (k ? ", " : "") << "\"" << json_escape(series_labels[k]) << "\"";
  os << "]},\n";

  os << "  \"kill_points\": [";
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const KillPointOutcome& o = outcomes[k];
    os << (k ? ",\n    " : "\n    ") << "{\"label\": \"" << o.label
       << "\", \"crash_after_records\": " << o.crash_after
       << ", \"crash_exit\": " << o.crash_exit
       << ", \"recover_exit\": " << o.recover_exit
       << ", \"resumed\": " << o.stats.resumed
       << ", \"replayed\": " << o.stats.replayed
       << ", \"expected_replayed\": " << o.expected_replayed
       << ", \"executions\": " << o.stats.executions
       << ", \"csv_identical\": " << (o.csv_identical ? "true" : "false")
       << ", \"dedup_ok\": " << (o.dedup_ok ? "true" : "false")
       << ", \"journal_terminal\": " << (o.journal_terminal ? "true" : "false")
       << ", \"ok\": " << (o.ok() ? "true" : "false") << "}";
  }
  os << "\n  ],\n";

  bool all_ok = true;
  for (const KillPointOutcome& o : outcomes) all_ok &= o.ok();
  os << "  \"verdict\": {\"survived\": " << (all_ok ? "true" : "false")
     << ", \"exit_code\": " << exit_code << "}\n}\n";
}

int run_serve_crash(const Config& cfg) {
  std::vector<std::string> series_texts = cfg.serve_series;
  if (series_texts.empty())
    series_texts.push_back("polaris:cuda:harvey:cylinder-slab");
  std::vector<rt::SeriesSpec> series;
  std::vector<std::string> series_labels;
  std::size_t total_points = 0;
  for (const std::string& text : series_texts) {
    rt::SeriesSpec spec;
    if (!rt::parse_series(text, &spec)) {
      std::fprintf(stderr, "hemo_chaos: bad --series '%s'\n", text.c_str());
      return kExitStructural;
    }
    if (rt::unavailable_failure(spec)) {
      // An unavailable series never executes, which would skew the
      // record-count arithmetic the kill points are derived from.
      std::fprintf(stderr,
                   "hemo_chaos: --serve-crash needs an available series; "
                   "'%s' is not\n",
                   text.c_str());
      return kExitStructural;
    }
    series.push_back(spec);
    series_labels.push_back(rt::series_label(spec));
    total_points +=
        sys::piecewise_schedule(sys::system_spec(spec.system).max_devices)
            .size();
  }
  if (total_points < 2) {
    std::fprintf(stderr, "hemo_chaos: --serve-crash needs >= 2 points\n");
    return kExitStructural;
  }

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
      [&] { return serve_golden_child(cfg, series, golden_csv); });
  std::string golden_bytes;
  if (golden_exit != 0 || !read_file(golden_csv, &golden_bytes)) {
    std::fprintf(stderr, "hemo_chaos: golden serve run failed (exit %d)\n",
                 golden_exit);
    cleanup();
    return kExitStructural;
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
      {"mid-campaign", 2 + total_points / 2},
      {"pre-terminal", 2 + total_points},
  };

  std::vector<KillPointOutcome> outcomes;
  for (const KillPoint& kill : kill_points) {
    KillPointOutcome o;
    o.label = kill.label;
    o.crash_after = kill.crash_after;
    o.expected_replayed =
        kill.crash_after >= 2 ? kill.crash_after - 2 : 0;
    std::remove(wal_path.c_str());
    std::remove(recovered_csv.c_str());
    std::remove(stats_path.c_str());

    o.crash_exit = spawn_child([&] {
      return serve_crash_child(cfg, series, wal_path, kill.crash_after);
    });
    if (o.crash_exit != 137) {
      o.note = "crash injection did not fire";
      outcomes.push_back(o);
      continue;
    }
    o.recover_exit = spawn_child([&] {
      return serve_recover_child(cfg, series, wal_path, recovered_csv,
                                 stats_path);
    });
    if (o.recover_exit != 0) {
      o.note = "recovery run failed";
      outcomes.push_back(o);
      continue;
    }

    std::string recovered_bytes;
    o.csv_identical = read_file(recovered_csv, &recovered_bytes) &&
                      recovered_bytes == golden_bytes;
    // The dedup proof: every durable point was delivered from the
    // journal, and only the lost remainder was (re-)executed.
    o.dedup_ok = parse_recover_stats(stats_path, &o.stats) &&
                 o.stats.replayed == o.expected_replayed &&
                 o.stats.executions == total_points - o.expected_replayed;
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
    outcomes.push_back(o);
  }

  bool structural = false;
  bool all_ok = true;
  for (const KillPointOutcome& o : outcomes) {
    structural |= o.structural();
    all_ok &= o.ok();
  }
  const int exit_code = structural ? kExitStructural
                        : all_ok  ? kExitSurvived
                                  : kExitDivergence;

  Table table({"Kill point", "Records", "Crash", "Replayed", "Executed",
               "CSV identical", "Terminal"});
  for (const KillPointOutcome& o : outcomes)
    table.add_row({o.label, std::to_string(o.crash_after),
                   std::to_string(o.crash_exit),
                   std::to_string(o.stats.replayed) + "/" +
                       std::to_string(o.expected_replayed),
                   std::to_string(o.stats.executions),
                   yes_no(o.csv_identical), yes_no(o.journal_terminal)});

  if (!cfg.quiet) {
    table.print_aligned(std::cout);
    if (exit_code == kExitSurvived)
      std::cout << "\nall " << outcomes.size()
                << " kill points recovered byte-identically; journaled "
                   "points were never re-executed\n";
    else
      for (const KillPointOutcome& o : outcomes)
        if (!o.ok())
          std::cout << "\nFAILED " << o.label << ": "
                    << (o.note.empty() ? "recovered output diverged"
                                       : o.note)
                    << '\n';
  }
  write_report(cfg, {table});
  write_serve_crash_json(cfg, series_labels, total_points, outcomes,
                         exit_code);
  cleanup();
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--quiet") {
      cfg.quiet = true;
    } else if (arg == "--periodic") {
      cfg.periodic = true;
    } else if (arg == "--campaign") {
      cfg.campaign = true;
    } else if (arg == "--sdc") {
      cfg.sdc = true;
    } else if (arg == "--list-kinds") {
      return list_kinds();
    } else if (arg == "--flips") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.flips) || cfg.flips < 0)
        return usage(argv[0]);
    } else if (arg == "--tile-points") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.tile_points) ||
          cfg.tile_points < 1)
        return usage(argv[0]);
    } else if (arg == "--check-interval") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.check_interval) ||
          cfg.check_interval < 1)
        return usage(argv[0]);
    } else if (arg == "--reexec-sample") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.reexec_sample) ||
          cfg.reexec_sample < 0)
        return usage(argv[0]);
    } else if (arg == "--quarantine-threshold") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.quarantine_threshold) ||
          cfg.quarantine_threshold < 1)
        return usage(argv[0]);
    } else if (arg == "--serve-crash") {
      cfg.serve_crash = true;
    } else if (arg == "--series") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      cfg.serve_series.push_back(v);
    } else if (arg == "--workers") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.workers) || cfg.workers < 1)
        return usage(argv[0]);
    } else if (arg == "--no-frames") {
      cfg.frames = false;
    } else if (arg == "--scale") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      cfg.scale = std::atof(v);
      if (cfg.scale <= 0.0) return usage(argv[0]);
    } else if (arg == "--ranks") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.ranks) || cfg.ranks < 1)
        return usage(argv[0]);
    } else if (arg == "--steps") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.steps) || cfg.steps < 1)
        return usage(argv[0]);
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--kinds") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      std::string bad_token;
      if (!parse_kinds(v, &cfg.kinds, &bad_token)) {
        std::fprintf(stderr,
                     "hemo_chaos: --kinds: unknown fault kind '%s' "
                     "(valid: %s)\n",
                     bad_token.c_str(), valid_kinds_text().c_str());
        return kExitStructural;
      }
    } else if (arg == "--events") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.events_per_kind) ||
          cfg.events_per_kind < 0)
        return usage(argv[0]);
    } else if (arg == "--decomp") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      if (std::strcmp(v, "slab") == 0) cfg.bisection = false;
      else if (std::strcmp(v, "bisection") == 0) cfg.bisection = true;
      else return usage(argv[0]);
    } else if (arg == "--max-retransmits") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.max_retransmits) ||
          cfg.max_retransmits < 0)
        return usage(argv[0]);
    } else if (arg == "--max-rollbacks") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.max_rollbacks) ||
          cfg.max_rollbacks < 0)
        return usage(argv[0]);
    } else if (arg == "--snapshot-interval") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.snapshot_interval) ||
          cfg.snapshot_interval < 1)
        return usage(argv[0]);
    } else if (arg == "--ckpt-interval") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.ckpt_interval) ||
          cfg.ckpt_interval < 1)
        return usage(argv[0]);
    } else if (arg == "--kill-rank") {
      const char* v = value();
      KillSpec kill;
      if (v == nullptr || !parse_kill(v, &kill)) return usage(argv[0]);
      cfg.kills.push_back(kill);
    } else if (arg == "--death-deadline") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.death_deadline) ||
          cfg.death_deadline < 1)
        return usage(argv[0]);
    } else if (arg == "--min-survivors") {
      const char* v = value();
      if (v == nullptr || !parse_int(v, &cfg.min_survivors) ||
          cfg.min_survivors < 1)
        return usage(argv[0]);
    } else if (arg == "--report") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      cfg.report_path = v;
    } else if (arg == "--json") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      cfg.json_path = v;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  if (cfg.serve_crash) return run_serve_crash(cfg);
  if (cfg.sdc) return run_sdc_chaos(cfg);
  return cfg.campaign ? run_campaign_chaos(cfg) : run_solver_chaos(cfg);
}
