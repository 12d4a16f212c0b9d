#pragma once
// Detection and recovery policies for the resilient distributed solver.
//
// Detection: per-step numerical-health guards — non-finite scan, mass
// guard, velocity-magnitude ceiling (kMaxVelocity), halo traffic audit —
// surfaced as analysis::Diagnostic records with RS### rule ids.  Every
// guard is always on.  The mass guard takes its closed-system form when the
// global lattice has no inlet or outlet point, and its open-system form
// (kMassStepRel) otherwise.
//
// Recovery (RecoveryPolicy + ShrinkPolicy): the escalation ladder the
// solver walks when a step goes wrong:
//     retransmit the halo  ->  roll back to a checkpoint
//       ->  declare the silent rank dead and shrink onto the survivors
//       ->  SolverFault.
// Every rung is bounded, so a persistent fault degrades into a *structured*
// failure the campaign layer can retry or resume from a checkpoint —
// never an abort.  The shrink rung (opt-in) handles the one fault the
// transient ladder cannot: a device that is permanently gone.
//
// Threshold scaling: the closed-system mass tolerance is a function of
// lattice size and step count, not a constant — see DESIGN.md ("Why
// detection thresholds scale with lattice size and step count").

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "base/types.hpp"

namespace hemo::resilience {

// ---------------------------------------------------------------------------
// Detection.
// ---------------------------------------------------------------------------

/// Rule ids used by the health guards (same Diagnostic plumbing as the
/// hemo-lint LC/HL rules):
///   RS001 non-finite distribution value        (error)
///   RS002 global mass drift beyond tolerance,  (error)
///         or a non-finite global mass
///   RS003 velocity-magnitude ceiling exceeded  (error)
///   RS004 halo traffic disagrees with the plan (warning; auto-recovered)
///   RS005 rank declared dead; domain shrunk    (warning; auto-recovered
///                                               onto the survivors)
///   RS006 silent data corruption in a tile     (error; rolled back, or
///                                               the rank quarantined)
///
/// RS002 follows the lattice.  With no inlet or outlet point the system is
/// closed (periodic ends, body-force driven): collisions and bounce-back
/// conserve mass to rounding, so the guard holds total mass to the
/// accumulated-rounding tolerance of conserved_mass_tolerance() — drift
/// beyond it is corruption.  Open systems (inlet/outlet) change mass
/// physically every step by the boundary fluxes, so for them the guard
/// bounds the relative per-step jump by kMassStepRel instead.

/// Open-system mass guard: a blow-up or an exponent-flip corruption moves
/// total mass by orders of magnitude in one step, physics moves it by
/// ~u*A/V, so a relative jump beyond this in one step is corruption.
inline constexpr double kMassStepRel = 0.05;

/// Compressibility ceiling: |u| must stay well below the lattice speed of
/// sound (1/sqrt(3) ~ 0.577); production LBM keeps |u| < ~0.1, so 0.4 only
/// fires on genuine blow-up.
inline constexpr double kMaxVelocity = 0.4;

/// Absolute tolerance on |mass(t) - mass(0)| for a *closed* system of
/// `n_values` summed distribution values after `steps` steps.  Each of the
/// n_values additions in the mass reduction carries O(eps) relative error
/// and the per-step collision error accumulates as a random walk, hence
/// the sqrt(steps) factor; the leading constant absorbs the kQ-term
/// dot-products inside the kernel.  See DESIGN.md for the derivation.
inline double conserved_mass_tolerance(std::int64_t n_values,
                                       std::int64_t steps) {
  return 16.0 * std::numeric_limits<double>::epsilon() *
         static_cast<double>(n_values) *
         std::sqrt(static_cast<double>(steps + 1));
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

/// Every halo message of a resilient run carries a CRC-32 frame word, so
/// in-flight corruption is detected at unpack time and fixed by
/// retransmission before it can enter the state.
struct RecoveryPolicy {
  /// Halo-level: failed receives (missing, wrong size, CRC mismatch) are
  /// answered by repacking from the sender's intact state, up to this many
  /// times per exchange per step.
  int max_retransmits = 3;

  /// Step-level: how often to snapshot the full distribution state in
  /// memory, and how many rollbacks to grant before giving up.  A rollback
  /// restores the snapshot, resets the network, and replays.
  int checkpoint_interval = 8;
  int max_rollbacks = 4;
};

/// Consecutive failed attempts (original + rollback replays) blamed on the
/// same unique rank before it is declared dead.  The first failure is
/// always treated as transient (rollback + replay); a permanent death
/// re-fails the replay immediately and hits the deadline.
inline constexpr int kDeathDeadline = 2;

/// Elastic shrink-recovery: the rung above rollback.  A deadline-based
/// failure detector watches for a rank whose outbound traffic has gone
/// completely silent (every receive from it exhausts the retransmit
/// budget with nothing arriving — not corruption, absence).  A rank that
/// stays uniquely suspect for kDeathDeadline consecutive failed step
/// attempts — or that is still suspect when the rollback budget runs
/// out — is escalated from "transient" to "dead": the solver re-bisects
/// the domain over the survivors, redistributes the last checkpointed
/// state, and resumes.  Recovery is deterministic: the same kill schedule
/// produces bit-identical final state across reruns.
struct ShrinkPolicy {
  bool enabled = false;

  /// The solver refuses to shrink below this many live ranks and raises a
  /// SolverFault instead (a campaign may consider a 1-device "parallel"
  /// run meaningless, or keep going to the bitter end).
  int min_survivors = 1;
};

/// SDC sentinel (RS006): tile-granular detection of silent in-memory
/// corruption — the fault class the loud guards cannot see.  A flipped
/// mantissa bit in one distribution slot stays finite, locally plausible,
/// and below every RS001-RS003 threshold; the sentinel catches it by
/// digesting every tile's raw bit patterns at the end of each step and
/// verifying the digests before the next step consumes the state (once a
/// corrupted value streams into its neighbors it is consistent with every
/// later digest and undetectable by hashing).  A mismatch is localized to
/// {rank, tile, step} and escalated through the existing ladder: snapshot
/// rollback first, rank quarantine via the RS005 shrink path after
/// repeated hits on the same rank (a device whose memory keeps flipping
/// bits is failing, not unlucky).
struct SentinelPolicy {
  bool enabled = false;

  /// Points per digest tile — the localization granularity.  Smaller
  /// tiles localize more precisely and re-execute cheaper, at more
  /// digest-table overhead per step.  DistributedSolver's step launch runs
  /// one work-item per tile, so keep it well below a rank's owned points
  /// divided by the engine threads, or workers sit idle (DESIGN.md §13).
  std::int64_t tile_points = 256;

  /// Verify recorded digests every N steps.  1 (the default) checks every
  /// record/verify window and detects a flip before anything consumes it;
  /// larger intervals trade detection latency for overhead.  Digests are
  /// always verified before a snapshot is taken, so rollback targets are
  /// verified-clean at any interval.
  int check_interval = 1;

  /// Tiles per rank per step cross-checked by deterministic duplicate
  /// re-execution of stream_collide on a shadow buffer (two independent
  /// re-executions vote against the live result).  Catches compute SDC —
  /// a flip inside the arithmetic — which the memory digests cannot see
  /// because record happens after the corrupted result was written.
  /// 0 disables sampling.
  int reexec_sample = 0;
};

/// RS006 detections attributed to one rank before it is quarantined
/// through the shrink path (requires ShrinkPolicy::enabled and the survivor
/// floor; otherwise the sentinel keeps rolling back).
inline constexpr int kQuarantineThreshold = 3;

struct Options {
  RecoveryPolicy recovery;
  ShrinkPolicy shrink;
  SentinelPolicy sentinel;
};

/// Localization record of one RS006 detection: which tile of which rank
/// mismatched its recorded digest, at which step, and how many steps the
/// corruption sat undetected (verify step minus record step; 0 means the
/// very next boundary caught it).
struct SdcDetection {
  Rank rank = -1;
  std::int64_t tile = -1;
  std::int64_t step = -1;          // step the mismatch was found at
  std::int64_t latency_steps = 0;  // step - digest record step
  bool reexec = false;  // found by duplicate re-execution, not a digest
};

/// Counters and detection records of a resilient run.
struct RunStats {
  std::int64_t recv_missing = 0;     // RecvError kMissing observed
  std::int64_t recv_wrong_size = 0;  // RecvError kWrongSize observed
  std::int64_t crc_mismatch = 0;     // frame checksum failures
  std::int64_t retransmits = 0;      // halo repack+resend actions
  std::int64_t stragglers_drained = 0;  // duplicate/late messages discarded
  std::int64_t halo_audit_mismatches = 0;  // RS004 detections
  std::int64_t health_errors = 0;    // RS001-RS003 detections
  std::int64_t rollbacks = 0;        // checkpoint restorations
  std::int64_t snapshots = 0;        // in-memory checkpoints taken

  // Shrink provenance (RS005): which ranks were declared permanently dead,
  // in death order, and where the run last re-decomposed and resumed.
  std::int64_t rank_deaths = 0;           // ranks escalated to dead
  std::int64_t shrinks = 0;               // successful re-decompositions
  std::vector<Rank> dead_ranks;           // death order
  std::int64_t last_recovery_step = -1;   // step the last shrink resumed at

  // SDC sentinel (RS006): tile digests verified, corruptions detected,
  // detections the sentinel itself retracted (a mismatch that did not
  // reproduce on immediate re-digest — checker fault, not state fault;
  // never escalated), and ranks quarantined after repeated detections.
  std::int64_t sdc_checks = 0;
  std::int64_t sdc_detected = 0;
  std::int64_t sdc_false_positive = 0;
  std::int64_t sdc_quarantines = 0;
  std::vector<SdcDetection> sdc_detections;  // occurrence order

  /// Detection records (RS### diagnostics), in occurrence order.
  std::vector<analysis::Diagnostic> diagnostics;

  std::int64_t faults_detected() const {
    return recv_missing + recv_wrong_size + crc_mismatch +
           halo_audit_mismatches + health_errors + rank_deaths +
           sdc_detected;
  }
  std::int64_t recoveries() const {
    return retransmits + stragglers_drained + rollbacks + shrinks;
  }
};

/// Structured failure of a resilient run: every rung of the recovery
/// ladder was exhausted.  Carries the diagnostics that condemned the step,
/// so the campaign layer can report *why* a point failed and decide to
/// resume it from its last on-disk checkpoint.
class SolverFault : public std::runtime_error {
 public:
  SolverFault(const std::string& what,
              std::vector<analysis::Diagnostic> diagnostics);

  const std::vector<analysis::Diagnostic>& diagnostics() const {
    return diagnostics_;
  }

 private:
  std::vector<analysis::Diagnostic> diagnostics_;
};

}  // namespace hemo::resilience
