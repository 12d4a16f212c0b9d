// hemo_chaos: chaos harness for the resilience subsystem and the durable
// serving tier.  The scenarios are functions in src/chaos/scenarios.hpp,
// documented there; this file parses flags and renders each verdict as
// text, CSV (--report) and JSON (--json).
//
//   hemo_chaos [--scale S] [--ranks N] [--steps N] [--seed N]
//              [--kinds all|k1,k2,...] [--events N] [--periodic]
//              [--kill-rank R@S ...] [--min-survivors N]
//              [--report FILE|-] [--json FILE|-] [--quiet]
//       Network and rank-kill chaos (run_network_chaos).
//   hemo_chaos --sdc [common flags above] [--flips N] [--reexec-sample N]
//       Seeded in-memory bit flips against the RS006 sentinel
//       (run_sdc_chaos).
//   hemo_chaos --campaign [common flags above]
//       Checkpoint/restart through the hemo-rt job layer
//       (run_campaign_chaos).
//   hemo_chaos --serve-crash [--workers N] [--seed N]
//              [--report FILE|-] [--json FILE|-] [--quiet]
//       Crash/recovery of the serving tier (run_serve_crash).
//   hemo_chaos --list-kinds
//       Fault kinds: drop duplicate corrupt delay truncate stall
//       (transient, one-shot; what --kinds all draws from), rank-death
//       (permanent; via --kill-rank), and bit-flip (in-memory SDC; via
//       --sdc, or --kinds bit-flip to mix flips into a network chaos run —
//       either arms the sentinel).
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

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "base/format.hpp"
#include "base/parse.hpp"
#include "base/table.hpp"
#include "chaos/scenarios.hpp"
#include "geom/cylinder.hpp"

namespace {

using namespace hemo;

struct Cli {
  chaos::ChaosConfig chaos;
  chaos::ServeCrashConfig serve;
  bool sdc = false;
  bool campaign = false;
  bool serve_crash = false;
  std::string report_path;
  std::string json_path;
  bool quiet = false;
};

constexpr int kExitUsage = static_cast<int>(chaos::Verdict::kStructural);

int usage(const char* argv0) {
  const std::string pad(std::strlen(argv0), ' ');
  std::fprintf(
      stderr,
      "usage: %s [--scale S] [--ranks N] [--steps N] [--seed N]\n"
      "       %s [--kinds all|k1,k2,...] [--list-kinds] [--events N]\n"
      "       %s [--periodic] [--kill-rank R@S]... [--min-survivors N]\n"
      "       %s [--campaign] [--report FILE|-] [--json FILE|-] [--quiet]\n"
      "       %s --sdc [--flips N] [--reexec-sample N] [flags above]\n"
      "       %s --serve-crash [--workers N] [--seed N]\n"
      "       %s [--report FILE|-] [--json FILE|-] [--quiet]\n",
      argv0, pad.c_str(), pad.c_str(), pad.c_str(), argv0, argv0,
      pad.c_str());
  return kExitUsage;
}

/// Every kind --kinds accepts, in enum order: the transient set plus the
/// two opt-in kinds (which parse_fault_kind also recognizes).
std::string valid_kinds_text() {
  std::string out = "all";
  for (const resilience::FaultKind kind : resilience::kAllFaultKinds)
    out += ", " + std::string(resilience::fault_kind_name(kind));
  for (const resilience::FaultKind kind :
       {resilience::FaultKind::kRankDeath, resilience::FaultKind::kBitFlip})
    out += ", " + std::string(resilience::fault_kind_name(kind));
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
  return 0;
}

/// Digits only, within 64 bits.
bool parse_seed(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  for (const char c : text)
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  errno = 0;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return errno != ERANGE;
}

/// A number in [geom::kMinScale, geom::kMaxScale].
bool parse_scale(const std::string& text, double* out) {
  double v = 0.0;
  if (!parse_double(text, &v) || v < geom::kMinScale || v > geom::kMaxScale)
    return false;
  *out = v;
  return true;
}

/// "R@S" -> {rank R, step S}, both non-negative ints.
bool parse_kill(const std::string& text, chaos::KillSpec* out) {
  const std::size_t at = text.find('@');
  return at != std::string::npos &&
         parse_int(text.substr(0, at), &out->rank) && out->rank >= 0 &&
         parse_int(text.substr(at + 1), &out->step) && out->step >= 0;
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
  for (;;) {
    const std::size_t comma = text.find(',', pos);
    *bad_token = text.substr(pos, comma - pos);  // to the end when npos
    resilience::FaultKind kind;
    if (!resilience::parse_fault_kind(*bad_token, &kind)) return false;
    out->push_back(kind);
    if (comma == std::string::npos) return true;
    pos = comma + 1;
  }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Hands `write` stdout for "-" or the named file otherwise; does nothing
/// for an empty path.  `what` names the destination in the error message.
void emit(const std::string& path, const char* what,
          const std::function<void(std::ostream&)>& write) {
  if (path.empty()) return;
  if (path == "-") {
    write(std::cout);
    return;
  }
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "hemo_chaos: cannot open %s file '%s'\n", what,
                 path.c_str());
    return;
  }
  write(file);
}

void write_report(const Cli& cli, const std::vector<Table>& tables) {
  emit(cli.report_path, "report", [&](std::ostream& os) {
    for (const Table& t : tables) t.print_csv(os);
  });
}

const char* yes_no(bool v) { return v ? "yes" : "no"; }
const char* json_bool(bool v) { return v ? "true" : "false"; }

std::string mass_text(double mass) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", mass);
  return text;
}

std::string ratio_text(double ratio) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.4f", ratio);
  return text;
}

int render_network_chaos(const Cli& cli, const chaos::ChaosRun& r) {
  const chaos::ChaosConfig& cfg = cli.chaos;
  const chaos::FaultedRun& run = r.run;
  const resilience::RunStats& stats = run.stats;
  const int exit_code = static_cast<int>(r.verdict);

  Table injection({"Fault kind", "Planned", "Fired", "Recovered"});
  for (const chaos::EventCount& e : r.events)
    injection.add_row({std::string(resilience::fault_kind_name(e.kind)),
                       std::to_string(e.planned), std::to_string(e.fired),
                       run.survived ? std::to_string(e.fired) : "?"});

  // The recovery counters of both the table and the JSON.
  const std::pair<const char*, std::int64_t> counters[] = {
      {"recv_missing", stats.recv_missing},
      {"recv_wrong_size", stats.recv_wrong_size},
      {"crc_mismatches", stats.crc_mismatch},
      {"retransmits", stats.retransmits},
      {"stragglers_drained", stats.stragglers_drained},
      {"halo_audit_mismatches", stats.halo_audit_mismatches},
      {"health_errors", stats.health_errors},
      {"rollbacks", stats.rollbacks},
      {"snapshots", stats.snapshots},
  };
  Table recovery({"Metric", "Value"});
  recovery.add_row({"steps", std::to_string(cfg.steps)});
  recovery.add_row({"ranks", std::to_string(cfg.ranks)});
  recovery.add_row({"seed", std::to_string(cfg.seed)});
  recovery.add_row({"faults_injected",
                    std::to_string(run.log.total_injected())});
  for (const auto& [name, value] : counters)
    recovery.add_row({name, std::to_string(value)});
  recovery.add_row({"rank_deaths", std::to_string(stats.rank_deaths)});
  recovery.add_row({"shrinks", std::to_string(stats.shrinks)});
  recovery.add_row({"survivors", std::to_string(run.survivor_count)});
  recovery.add_row({"survived", yes_no(run.survived)});
  recovery.add_row({"bit_identical", yes_no(r.identical)});
  if (!cfg.kills.empty())
    recovery.add_row({"rerun_identical", yes_no(r.rerun_identical)});

  if (!cli.quiet) {
    injection.print_aligned(std::cout);
    std::cout << '\n';
    recovery.print_aligned(std::cout);
    if (!run.survived)
      std::cout << "\nUNRECOVERED: " << run.fault_message << '\n';
    else if (!r.identical)
      std::cout << "\nMISMATCH: recovered run diverged from the clean "
                   "reference\n";
    else if (!r.rerun_identical)
      std::cout << "\nMISMATCH: rerun with the same kill schedule did not "
                   "reproduce the recovery\n";
    else
      std::cout << "\nall injected faults recovered; final state "
                   "bit-identical to the clean run\n";
    for (const auto& d : stats.diagnostics)
      std::cout << "  [" << d.rule_id << "] " << d.file << ": " << d.message
                << '\n';
  }
  write_report(cli, {injection, recovery});

  // Configuration, per-kind event counts, recovery counters, shrink
  // provenance, and the verdict with the exit code.
  emit(cli.json_path, "json", [&](std::ostream& os) {
    os << "{\n";
    os << "  \"config\": {\"ranks\": " << cfg.ranks << ", \"steps\": "
       << cfg.steps << ", \"seed\": " << cfg.seed
       << ", \"decomp\": \"slab\", \"kills\": [";
    for (std::size_t k = 0; k < cfg.kills.size(); ++k)
      os << (k ? ", " : "") << "{\"rank\": " << cfg.kills[k].rank
         << ", \"step\": " << cfg.kills[k].step << "}";
    os << "]},\n";

    os << "  \"events\": [";
    for (std::size_t k = 0; k < r.events.size(); ++k)
      os << (k ? ", " : "") << "{\"kind\": \""
         << resilience::fault_kind_name(r.events[k].kind)
         << "\", \"planned\": " << r.events[k].planned
         << ", \"fired\": " << r.events[k].fired << "}";
    os << "],\n";

    os << "  \"recovery\": {";
    for (const auto& [name, value] : counters)
      os << "\"" << name << "\": " << value << ", ";
    os << "\"sdc_detected\": " << stats.sdc_detected
       << ", \"sdc_false_positive\": " << stats.sdc_false_positive
       << ", \"sdc_quarantines\": " << stats.sdc_quarantines << "},\n";

    os << "  \"shrink\": {\"rank_deaths\": " << stats.rank_deaths
       << ", \"shrinks\": " << stats.shrinks << ", \"dead_ranks\": [";
    for (std::size_t k = 0; k < stats.dead_ranks.size(); ++k)
      os << (k ? ", " : "") << stats.dead_ranks[k];
    os << "], \"recovery_step\": " << stats.last_recovery_step
       << ", \"survivor_count\": " << run.survivor_count << "},\n";

    os << "  \"verdict\": {\"survived\": " << json_bool(run.survived)
       << ", \"bit_identical\": " << json_bool(r.identical)
       << ", \"rerun_identical\": " << json_bool(r.rerun_identical)
       << ", \"final_mass\": " << mass_text(run.final_mass)
       << ", \"reference_mass\": " << mass_text(r.reference_mass)
       << ", \"fault\": \"" << json_escape(run.fault_message)
       << "\", \"exit_code\": " << exit_code << "}\n";
    os << "}\n";
  });
  return exit_code;
}

int render_sdc_chaos(const Cli& cli, const chaos::SdcRun& r) {
  const chaos::ChaosConfig& cfg = cli.chaos;
  const chaos::FaultedRun& run = r.run;
  const resilience::RunStats& stats = run.stats;
  const int exit_code = static_cast<int>(r.verdict);
  const std::string cov = ratio_text(r.coverage);

  Table summary({"Metric", "Value"});
  summary.add_row({"steps", std::to_string(cfg.steps)});
  summary.add_row({"ranks", std::to_string(cfg.ranks)});
  summary.add_row({"seed", std::to_string(cfg.seed)});
  summary.add_row({"flips_planned", std::to_string(cfg.flips)});
  summary.add_row({"flips_fired", std::to_string(r.flips.size())});
  summary.add_row({"flips_detected", std::to_string(r.detected)});
  summary.add_row({"flips_localized", std::to_string(r.localized)});
  summary.add_row({"coverage", cov});
  summary.add_row({"max_latency_steps", std::to_string(r.max_latency)});
  summary.add_row({"spurious_detections", std::to_string(r.spurious)});
  summary.add_row({"false_positives",
                   std::to_string(stats.sdc_false_positive)});
  summary.add_row({"quarantines", std::to_string(stats.sdc_quarantines)});
  summary.add_row({"rollbacks", std::to_string(stats.rollbacks)});
  summary.add_row({"snapshots", std::to_string(stats.snapshots)});
  summary.add_row({"survived", yes_no(run.survived)});
  summary.add_row({"bit_identical", yes_no(r.identical)});

  Table per_flip({"Step", "Point", "Q", "Bit", "Rank", "Tile", "Detected",
                  "Latency"});
  for (const chaos::FlipOutcome& o : r.flips) {
    const resilience::FaultEvent& e = o.event;
    per_flip.add_row({std::to_string(e.step), std::to_string(e.flip_point),
                      std::to_string(e.flip_q), std::to_string(e.flip_bit),
                      std::to_string(e.fired_rank),
                      std::to_string(e.fired_tile),
                      o.localized ? "localized"
                                  : (o.detected ? "rank-only" : "MISSED"),
                      o.latency < 0 ? "-" : std::to_string(o.latency)});
  }

  if (!cli.quiet) {
    per_flip.print_aligned(std::cout);
    std::cout << '\n';
    summary.print_aligned(std::cout);
    if (!run.survived)
      std::cout << "\nUNRECOVERED: " << run.fault_message << '\n';
    else if (r.verdict == chaos::Verdict::kSurvived)
      std::cout << "\nall injected flips detected, localized to their "
                   "{rank, tile}, and rolled back; final state "
                   "bit-identical to the clean run\n";
    else
      std::cout << "\nSDC GATE FAILED: coverage " << cov << ", spurious "
                << r.spurious << ", false positives "
                << stats.sdc_false_positive << ", bit_identical "
                << yes_no(r.identical) << '\n';
  }
  write_report(cli, {per_flip, summary});

  emit(cli.json_path, "json", [&](std::ostream& os) {
    os << "{\n";
    os << "  \"config\": {\"mode\": \"sdc\", \"ranks\": " << cfg.ranks
       << ", \"steps\": " << cfg.steps << ", \"seed\": " << cfg.seed
       << ", \"flips\": " << cfg.flips
       << ", \"tile_points\": " << r.options.sentinel.tile_points
       << ", \"check_interval\": " << r.options.sentinel.check_interval
       << ", \"reexec_sample\": " << r.options.sentinel.reexec_sample
       << ", \"quarantine_threshold\": " << resilience::kQuarantineThreshold
       << ", \"snapshot_interval\": "
       << r.options.recovery.checkpoint_interval << "},\n";

    os << "  \"injection\": {\"planned\": " << cfg.flips
       << ", \"fired\": " << r.flips.size() << "},\n";

    os << "  \"detection\": {\"checks\": " << stats.sdc_checks
       << ", \"detected\": " << stats.sdc_detected
       << ", \"flips_detected\": " << r.detected
       << ", \"flips_localized\": " << r.localized
       << ", \"coverage\": " << cov
       << ", \"localization\": " << ratio_text(r.localization)
       << ", \"max_latency_steps\": " << r.max_latency
       << ", \"spurious\": " << r.spurious
       << ", \"false_positives\": " << stats.sdc_false_positive
       << ", \"quarantines\": " << stats.sdc_quarantines << "},\n";

    os << "  \"recovery\": {\"rollbacks\": " << stats.rollbacks
       << ", \"snapshots\": " << stats.snapshots
       << ", \"shrinks\": " << stats.shrinks
       << ", \"health_errors\": " << stats.health_errors
       << ", \"survivor_count\": " << run.survivor_count << "},\n";

    os << "  \"flips\": [";
    for (std::size_t k = 0; k < r.flips.size(); ++k) {
      const chaos::FlipOutcome& o = r.flips[k];
      const resilience::FaultEvent& e = o.event;
      os << (k ? ",\n    " : "\n    ") << "{\"step\": " << e.step
         << ", \"point\": " << e.flip_point << ", \"q\": " << e.flip_q
         << ", \"bit\": " << e.flip_bit << ", \"rank\": " << e.fired_rank
         << ", \"tile\": " << e.fired_tile
         << ", \"detected\": " << json_bool(o.detected)
         << ", \"localized\": " << json_bool(o.localized)
         << ", \"latency_steps\": " << o.latency << "}";
    }
    os << (r.flips.empty() ? "" : "\n  ") << "],\n";

    os << "  \"verdict\": {\"survived\": " << json_bool(run.survived)
       << ", \"coverage_ok\": " << json_bool(r.coverage >= 0.99)
       << ", \"localization_ok\": " << json_bool(r.localization >= 0.99)
       << ", \"latency_ok\": " << json_bool(r.latency_ok)
       << ", \"clean\": " << json_bool(r.clean)
       << ", \"bit_identical\": " << json_bool(r.identical)
       << ", \"final_mass\": " << mass_text(run.final_mass)
       << ", \"reference_mass\": " << mass_text(r.reference_mass)
       << ", \"fault\": \"" << json_escape(run.fault_message)
       << "\", \"exit_code\": " << exit_code << "}\n";
    os << "}\n";
  });
  return exit_code;
}

int render_campaign_chaos(const Cli& cli, const chaos::CampaignRun& r) {
  Table table({"Metric", "Value"});
  table.add_row({"steps", std::to_string(cli.chaos.steps)});
  table.add_row({"ranks", std::to_string(cli.chaos.ranks)});
  table.add_row({"attempts", std::to_string(r.attempts)});
  table.add_row({"fault_step", std::to_string(r.fault_step)});
  table.add_row({"resume_step",
                 r.resume_step < 0 ? "-" : std::to_string(r.resume_step)});
  table.add_row({"survived", yes_no(r.survived)});
  table.add_row({"bit_identical", yes_no(r.identical)});

  if (!cli.quiet) {
    table.print_aligned(std::cout);
    if (r.survived && r.identical)
      std::cout << "\ncampaign point failed structurally, resumed from its "
                   "checkpoint, and matched the uninterrupted run "
                   "bit-for-bit\n";
    else
      std::cout << "\ncampaign resume FAILED\n";
  }
  write_report(cli, {table});
  return static_cast<int>(r.verdict);
}

int render_serve_crash(const Cli& cli, const chaos::ServeCrashRun& r) {
  if (!r.error.empty()) {
    std::fprintf(stderr, "hemo_chaos: %s\n", r.error.c_str());
    return static_cast<int>(r.verdict);
  }
  const int exit_code = static_cast<int>(r.verdict);

  Table table({"Kill point", "Records", "Crash", "Replayed", "Executed",
               "CSV identical", "Terminal"});
  for (const chaos::KillPointOutcome& o : r.outcomes)
    table.add_row({o.label, std::to_string(o.crash_after),
                   std::to_string(o.crash_exit),
                   std::to_string(o.replayed) + "/" +
                       std::to_string(o.expected_replayed),
                   std::to_string(o.executions),
                   yes_no(o.csv_identical), yes_no(o.journal_terminal)});

  if (!cli.quiet) {
    table.print_aligned(std::cout);
    if (r.verdict == chaos::Verdict::kSurvived)
      std::cout << "\nall " << r.outcomes.size()
                << " kill points recovered byte-identically; journaled "
                   "points were never re-executed\n";
    else
      for (const chaos::KillPointOutcome& o : r.outcomes)
        if (!o.ok())
          std::cout << "\nFAILED " << o.label << ": "
                    << (o.note.empty() ? "recovered output diverged"
                                       : o.note)
                    << '\n';
  }
  write_report(cli, {table});

  emit(cli.json_path, "json", [&](std::ostream& os) {
    os << "{\n  \"config\": {\"mode\": \"serve-crash\", \"workers\": "
       << cli.serve.workers << ", \"seed\": " << cli.serve.seed
       << ", \"points\": " << r.total_points << ", \"series\": [\""
       << json_escape(r.series) << "\"]},\n";

    os << "  \"kill_points\": [";
    for (std::size_t k = 0; k < r.outcomes.size(); ++k) {
      const chaos::KillPointOutcome& o = r.outcomes[k];
      os << (k ? ",\n    " : "\n    ") << "{\"label\": \"" << o.label
         << "\", \"crash_after_records\": " << o.crash_after
         << ", \"crash_exit\": " << o.crash_exit
         << ", \"recover_exit\": " << o.recover_exit
         << ", \"resumed\": " << o.resumed
         << ", \"replayed\": " << o.replayed
         << ", \"expected_replayed\": " << o.expected_replayed
         << ", \"executions\": " << o.executions
         << ", \"csv_identical\": " << json_bool(o.csv_identical)
         << ", \"dedup_ok\": " << json_bool(o.dedup_ok)
         << ", \"journal_terminal\": " << json_bool(o.journal_terminal)
         << ", \"ok\": " << json_bool(o.ok()) << "}";
    }
    os << "\n  ],\n";

    os << "  \"verdict\": {\"survived\": "
       << json_bool(r.verdict == chaos::Verdict::kSurvived)
       << ", \"exit_code\": " << exit_code << "}\n}\n";
  });
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  const struct {
    const char* flag;
    bool* field;
  } bool_flags[] = {
      {"--quiet", &cli.quiet},       {"--periodic", &cli.chaos.periodic},
      {"--campaign", &cli.campaign}, {"--sdc", &cli.sdc},
      {"--serve-crash", &cli.serve_crash},
  };
  const struct {
    const char* flag;
    int* field;
    int minimum;
  } int_flags[] = {
      {"--ranks", &cli.chaos.ranks, 1},
      {"--steps", &cli.chaos.steps, 1},
      {"--events", &cli.chaos.events_per_kind, 0},
      {"--min-survivors", &cli.chaos.min_survivors, 1},
      {"--flips", &cli.chaos.flips, 0},
      {"--reexec-sample", &cli.chaos.reexec_sample, 0},
      {"--workers", &cli.serve.workers, 1},
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Consumes the flag's value; false when the command line ends first.
    std::string value;
    const auto take = [&] {
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };
    if (arg == "--list-kinds") return list_kinds();
    bool matched = false;
    for (const auto& f : bool_flags)
      if (arg == f.flag) *f.field = matched = true;
    for (const auto& f : int_flags) {
      if (arg != f.flag) continue;
      if (!take() || !parse_int(value, f.field) || *f.field < f.minimum)
        return usage(argv[0]);
      matched = true;
    }
    if (matched) continue;
    if (arg == "--seed") {
      if (!take() || !parse_seed(value, &cli.chaos.seed))
        return usage(argv[0]);
      cli.serve.seed = cli.chaos.seed;
    } else if (arg == "--scale") {
      if (!take() || !parse_scale(value, &cli.chaos.scale))
        return usage(argv[0]);
    } else if (arg == "--kinds") {
      if (!take()) return usage(argv[0]);
      std::string bad_token;
      if (!parse_kinds(value, &cli.chaos.kinds, &bad_token)) {
        std::fprintf(stderr,
                     "hemo_chaos: --kinds: unknown fault kind '%s' "
                     "(valid: %s)\n",
                     bad_token.c_str(), valid_kinds_text().c_str());
        return kExitUsage;
      }
    } else if (arg == "--kill-rank") {
      chaos::KillSpec kill;
      if (!take() || !parse_kill(value, &kill)) return usage(argv[0]);
      cli.chaos.kills.push_back(kill);
    } else if (arg == "--report" || arg == "--json") {
      if (!take()) return usage(argv[0]);
      (arg == "--report" ? cli.report_path : cli.json_path) = value;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  for (const chaos::KillSpec& kill : cli.chaos.kills) {
    const bool rank_ok = kill.rank < cli.chaos.ranks;
    if (rank_ok && kill.step < cli.chaos.steps) continue;
    std::fprintf(stderr,
                 "hemo_chaos: --kill-rank %d@%d: %s out of range for %s %d\n",
                 kill.rank, kill.step, rank_ok ? "step" : "rank",
                 rank_ok ? "--steps" : "--ranks",
                 rank_ok ? cli.chaos.steps : cli.chaos.ranks);
    return kExitUsage;
  }

  if (cli.serve_crash)
    return render_serve_crash(cli, chaos::run_serve_crash(cli.serve));
  if (cli.sdc) return render_sdc_chaos(cli, chaos::run_sdc_chaos(cli.chaos));
  if (!cli.campaign)
    return render_network_chaos(cli, chaos::run_network_chaos(cli.chaos));
  if (cli.chaos.ranks < 2) {
    std::fprintf(stderr, "--campaign needs at least 2 ranks\n");
    return kExitUsage;
  }
  return render_campaign_chaos(cli, chaos::run_campaign_chaos(cli.chaos));
}
