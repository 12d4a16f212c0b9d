#pragma once
// Chaos scenarios for the resilience subsystem and the durable serving
// tier.  Each scenario is one function: it takes a plain config, runs, and
// returns its verdict record.  None of them prints; tools/hemo_chaos.cpp
// turns flags into these configs and renders the records as text, CSV and
// JSON.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "resilience/fault.hpp"
#include "resilience/faulty_network.hpp"
#include "resilience/policy.hpp"

namespace hemo::chaos {

/// Outcome class of a scenario.  The values are hemo_chaos's exit codes.
enum class Verdict : int {
  kSurvived = 0,    // every fault recovered, final state bit-identical
  kStructural = 2,  // the recovery ladder was exhausted, or the scenario
                    // could not exercise what it tests
  kDivergence = 3,  // it finished, but its result differs from the
                    // reference (or, for kill runs, from its own rerun)
};

/// One permanent rank death: `rank` dies at `step`.
struct KillSpec {
  int rank = 0;
  int step = 0;
};

/// The distributed cylinder run the solver scenarios perturb, and what to
/// perturb it with.  Kills must name a rank below `ranks` and a step below
/// `steps`.
struct ChaosConfig {
  double scale = 1.0;  // in [geom::kMinScale, geom::kMaxScale]
  int ranks = 4;
  int steps = 40;
  std::uint64_t seed = 7;
  bool periodic = false;  // periodic ends + body force, else inlet/outlet

  // run_network_chaos: kinds drawn `events_per_kind` times each (kBitFlip
  // among them arms the sentinel), and permanent kills (arm the shrink
  // rung, floored at `min_survivors`).
  std::vector<resilience::FaultKind> kinds{
      std::begin(resilience::kAllFaultKinds),
      std::end(resilience::kAllFaultKinds)};
  int events_per_kind = 1;
  std::vector<KillSpec> kills;
  int min_survivors = 1;

  // run_sdc_chaos: seeded bit flips, and sentinel tiles re-executed per
  // rank per step.
  int flips = 8;
  int reexec_sample = 0;
};

/// Everything observed in one faulted run, detached from its solver.
struct FaultedRun {
  bool survived = false;
  std::string fault_message;   // the SolverFault, when !survived
  resilience::RunStats stats;
  resilience::FaultPlan plan;  // after the run: fired flags, flip targets
  resilience::FaultLog log;
  std::vector<double> state;   // final global state; empty unless survived
  double final_mass = 0.0;
  int survivor_count = 0;
};

/// Planned and fired events of one fault kind.
struct EventCount {
  resilience::FaultKind kind = resilience::FaultKind::kDrop;
  int planned = 0;
  int fired = 0;
};

struct ChaosRun {
  FaultedRun run;
  std::vector<EventCount> events;  // config kinds, then rank-death if killed
  double reference_mass = 0.0;     // of the clean run
  bool identical = false;          // survived, and equal to the clean run
  bool rerun_identical = true;     // kill runs: the rerun reproduced it
  Verdict verdict = Verdict::kStructural;
};

/// Runs the distributed cylinder solver twice — once clean, once with a
/// seeded fault schedule (plus any permanent kills) injected into its
/// network — and scores the faulted run against the clean one.  A run with
/// kills must shrink onto the survivors; it is repeated with the same
/// schedule, so the verdict also certifies that recovery is deterministic.
ChaosRun run_network_chaos(const ChaosConfig& cfg);

/// One fired flip, scored against the sentinel's detections.
struct FlipOutcome {
  resilience::FaultEvent event;  // with fired_rank and fired_tile
  bool detected = false;         // some detection on the rank it hit
  bool localized = false;        // ...naming the exact tile it hit
  std::int64_t latency = -1;     // steps to the first localization
};

struct SdcRun {
  FaultedRun run;
  resilience::Options options;     // as armed for the run
  std::vector<FlipOutcome> flips;  // the fired flips, in plan order
  int detected = 0;
  int localized = 0;
  int spurious = 0;  // detections no fired flip explains
  std::int64_t max_latency = 0;
  bool identical = false;
  double reference_mass = 0.0;
  double coverage = 1.0;      // detected / fired
  double localization = 1.0;  // localized / fired
  bool latency_ok = false;    // every flip caught within a snapshot interval
  bool clean = false;         // no spurious detection, no false positive
  Verdict verdict = Verdict::kStructural;
};

/// Silent-data-corruption gate for the RS006 sentinel: seeded bit flips
/// (FaultPlan::bit_flips) land directly in live distribution slots — the
/// wire never sees them.  Every fired flip must be detected, localized to
/// the {rank, tile} it hit within the snapshot interval, and rolled back
/// to a final state bit-identical to the clean run, with no spurious
/// detection and no false positive.
SdcRun run_sdc_chaos(const ChaosConfig& cfg);

struct CampaignRun {
  int attempts = 0;
  std::int64_t fault_step = 0;
  std::int64_t resume_step = -1;  // -1: no attempt resumed from disk
  bool survived = false;
  bool identical = false;
  Verdict verdict = Verdict::kStructural;
};

/// Checkpoint/restart through the hemo-rt job layer: the job checkpoints
/// every 10 steps, attempt 1 dies on an unrecoverable stall (a structured
/// SolverFault), and the retry resumes from the last on-disk checkpoint
/// and must match the clean run.  Needs cfg.ranks >= 2.  Writes and
/// removes a checkpoint file in the working directory.
CampaignRun run_campaign_chaos(const ChaosConfig& cfg);

struct ServeCrashConfig {
  int workers = 4;
  std::uint64_t seed = 7;
};

struct KillPointOutcome {
  std::string label;
  std::size_t crash_after = 0;
  int crash_exit = 0;
  int recover_exit = 0;
  // What the recovery run reports: requests resumed from the journal,
  // points delivered from it, and points (re-)executed.
  std::uint64_t resumed = 0;
  std::uint64_t replayed = 0;
  std::uint64_t executions = 0;
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

struct ServeCrashRun {
  std::string error;  // set when the golden run failed; nothing else ran
  std::string series;
  std::size_t total_points = 0;
  std::vector<KillPointOutcome> outcomes;
  Verdict verdict = Verdict::kStructural;
};

/// Crash/recovery gate for the durable serving tier.  A golden child
/// serves a campaign uninterrupted.  Then, at each of three kill points —
/// pre-admission, mid-campaign and pre-terminal-record — a child serves it
/// with its journal armed to _exit(137) after the Nth record, and a
/// recovery child replays the journal and finishes the request.  Each
/// recovered CSV must be byte-identical to the golden one, and the dedup
/// counters must show journaled points delivered from the log, never
/// re-executed.  Every server runs in a forked child, so call this from a
/// process that has started no threads.  Writes and removes its journal
/// and CSV files in the working directory.
ServeCrashRun run_serve_crash(const ServeCrashConfig& cfg);

}  // namespace hemo::chaos
