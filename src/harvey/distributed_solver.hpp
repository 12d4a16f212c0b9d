#pragma once
// DistributedSolver: multi-rank LBM over the in-process message-passing
// network.  Every rank owns a contiguous sub-lattice (from a Partition)
// and exchanges exactly the crossing distribution values each step — the
// same halo pattern whose byte volumes drive the paper's performance model
// (Section 6, Eq. 2).  A rank keeps what it receives in one ghost region
// after its rows, each payload in wire order, so a receive is one copy and
// a border point's slot table reads the region directly.
//
// The implementation is bit-identical to the single-domain reference
// Solver, which the tests verify for a range of rank counts; the message
// ledger it produces is what the cluster simulator prices.
//
// Resilience (opt-in via enable_resilience): halo messages carry CRC-32
// frames, failed or corrupted receives are answered by retransmission from
// the sender's intact state, per-step numerical-health guards (RS001-RS005)
// watch the state (the RS002 mass guard takes its closed-system form when
// the global lattice has no inlet or outlet point), and a bounded rollback
// ladder restores an in-memory snapshot when retransmission cannot help.
// When every rung is exhausted the solver raises a structured
// resilience::SolverFault instead of aborting.  On-disk checkpoints
// (CRC-checked io::Blob files) let a campaign resume a failed point from
// its last good step.
//
// A step is one launch over the (rank, tile) spans of the step plan, after
// the halo exchange.  With the SDC sentinel on, a step that verifies its
// input is two launches instead, with the verdict and the exchange between
// them.  The first digests every tile's input, steps the interior tiles
// (no point reads the ghost region) from cache and packs every exchange's
// framed payload into a staging slot; the sentinel's verdict and the
// snapshot then come before any halo message is sent, since the pack reads
// the border points; the second launch, after the exchange, steps the
// border tiles.  Each rank numbers its border points last, so its border
// tiles are the few that hold its tail, and only their input is read
// twice.
//
// The step plan is the one table of tiles: the audits, the sentinel's
// record and verify digests, the re-execution samples and a bit flip's
// ground-truth tile all index it, and plan_step() alone computes where a
// tile begins and ends.
//
// Elastic shrink-recovery (opt-in via ShrinkPolicy): when a rank's
// outbound traffic goes permanently silent — every receive from it
// exhausts the retransmit budget with *nothing* arriving, step after
// rolled-back step — the deadline failure detector escalates it from
// "transient" to "dead".  The solver then re-runs the recursive load
// bisection over the surviving rank set (original rank ids are kept; dead
// ranks simply own zero points), rebuilds the halo exchanges, scatters the
// last CRC-checked checkpoint state onto the new decomposition, and
// resumes stepping.  Because replayed steps recompute the identical
// lattice update on the survivors, the final state is bit-identical to an
// unfaulted run — and therefore to any rerun with the same kill schedule.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "comm/network.hpp"
#include "hal/model.hpp"
#include "decomp/partition.hpp"
#include "lbm/kernels.hpp"
#include "lbm/solver.hpp"
#include "lbm/sparse_lattice.hpp"
#include "lbm/step_engine.hpp"
#include "resilience/fault.hpp"
#include "resilience/policy.hpp"
#include "resilience/sentinel.hpp"

namespace hemo::harvey {

class DistributedSolver {
  // Tests compare the audits made inside the step launches against a
  // separate audit of the committed state, and the plan's border flags
  // against the partition.
  friend struct DistributedSolverPeer;

 public:
  /// Runs the pull pattern only: `options.propagation` must be kPullSoA.
  /// AA in place would need AA's own exchange entries and, after each odd
  /// step, a reverse send of the ghost region it wrote.
  DistributedSolver(std::shared_ptr<const lbm::SparseLattice> global,
                    decomp::Partition partition, lbm::SolverOptions options);
  ~DistributedSolver();

  void step();

  /// Advances `steps` net steps.  Under resilience a step may be undone by
  /// a rollback and replayed, so this loops until the step counter has
  /// actually advanced by `steps`.
  void run(int steps);

  /// Debug hook: statically validates the decomposed state before any
  /// time-stepping — global lattice consistency (hemo::analysis lattice
  /// checker), the partition, and the precomputed halo exchanges (pack
  /// slots must be owned by the sender, and each payload must land inside
  /// the receiver's ghost region; rule LC009), plus the cross-exchange
  /// CRC-auditability check (no slot is landed on by two payloads; rule
  /// LC010).  Returns every diagnostic found; an empty vector means the
  /// solver state is safe to step.
  std::vector<analysis::Diagnostic> validate() const;

  int n_ranks() const { return partition_.n_ranks; }

  /// Live ranks: n_ranks() minus those declared permanently dead by the
  /// shrink rung.  Degraded-mode efficiency is computed against this.
  int survivor_count() const;
  bool rank_alive(Rank r) const;

  std::int64_t step_count() const { return steps_done_; }
  const comm::Network& network() const { return *network_; }
  const decomp::Partition& partition() const { return partition_; }

  /// Replaces the message-passing substrate, e.g. with a fault-injecting
  /// resilience::FaultyNetwork.  Only allowed before the first step; the
  /// replacement must be sized for the same rank count.
  void set_network(std::unique_ptr<comm::Network> network);

  /// The communicating (src, dst) rank pairs of the halo plan, in
  /// deterministic order — the edge set fault plans draw from.
  std::vector<std::pair<Rank, Rank>> exchange_pairs() const;

  // -- Resilience -----------------------------------------------------------

  /// Turns on CRC halo frames, retransmission, health guards and rollback
  /// per `options`.  Records the current mass as the conservation
  /// reference.  May be called before any stepping only.
  void enable_resilience(const resilience::Options& options);
  const resilience::RunStats& resilience_stats() const { return stats_; }

  /// Registers a fault plan whose kBitFlip events this solver applies to
  /// its own live distribution state at the start of each step, with or
  /// without resilience — in-memory SDC injection, the fault class the
  /// FaultyNetwork cannot reach.  The solver resolves each event's global
  /// point to its owner rank at fire time, flips the requested bit, and
  /// records the ground truth (fired_rank, and as fired_tile the rank's
  /// step-plan tile holding the point) on the event so a chaos harness can
  /// score the sentinel's localization.  Non-owning — typically the same
  /// plan a FaultyNetwork holds, so the one-shot fired flags are shared and
  /// a rollback replay re-fires neither network nor memory faults.  Pass
  /// nullptr to detach.
  void set_fault_injection(resilience::FaultPlan* plan) {
    injected_faults_ = plan;
  }

  // -- Checkpoint / restart -------------------------------------------------

  /// Writes a CRC-checked checkpoint (lbm/checkpoint.hpp) of the step
  /// counter and the global_distributions() rows.  It records no
  /// decomposition, so it restores bit-identically at any rank count, after
  /// a shrink, or into an lbm::Solver, and theirs restore here.  The
  /// restore is all or nothing: a file that fails any check throws
  /// io::BlobError and leaves the solver as it was.
  void save_checkpoint(const std::string& path) const;
  void restore_checkpoint(const std::string& path);

  /// Post-collision distributions reassembled into the global point
  /// ordering (q-major SoA over the global lattice).
  std::vector<double> global_distributions() const;

  /// Updates the prescribed inlet velocity on every rank (pulsatile
  /// inflow support).
  void set_inlet_velocity(double velocity);

  /// Routes subsequent per-rank kernel execution through a programming-
  /// model dialect (the study's actual execution mode: MPI ranks each
  /// driving a device through CUDA/HIP/SYCL/Kokkos).  Without a model the
  /// kernels run as plain host loops; results are bit-identical either
  /// way, which the tests assert.
  void set_execution_model(hal::Model model);

  lbm::Moments global_moments(PointIndex global_index) const;
  /// Sum of the audit tiles' masses in (rank, tile) order: the solver's
  /// one mass reduction, deterministic for every dialect and thread count.
  double total_mass() const;

  /// Points owned by one rank (count, for balance statistics).
  std::int64_t owned_count(Rank r) const;

 private:
  /// One rank's sub-lattice.  Its arrays hold kQ rows of its `owned`
  /// points, in the order build_decomposition() chose: its interior
  /// points, then from first_border its border points (an upstream
  /// neighbour on another rank), each group in ascending global index.
  /// owned_global[li] and local_of_ are inverses.  After the rows comes the
  /// ghost region: each inbound exchange's payload in exchanges_ order
  /// (ascending source), entries in wire order.  Only border points read
  /// the region, and since lattice links run both ways they are also the
  /// points the exchanges pack.
  struct RankState {
    std::vector<PointIndex> owned_global;  // global index of local point i
    std::vector<std::uint8_t> node_type;   // per owned point
    std::vector<double> f_a, f_b;          // rows, then the ghost region
    lbm::StepEngine engine;  // steps the owned points of f_a/f_b
    std::int64_t owned = 0;  // points; the rows' stride
    std::int64_t first_border = 0;  // border points: [first_border, owned)

    /// The post-collision state of the last completed step.
    double* current() const { return engine.live(); }
    /// The other pull buffer: the next step overwrites it.
    double* spare() {
      return current() == f_a.data() ? f_b.data() : f_a.data();
    }
    /// Values in the rows, kQ * owned; the ghost region starts here.
    std::size_t row_values() const {
      return lbm::kQ * static_cast<std::size_t>(owned);
    }
  };

  /// One direction of a halo exchange, precomputed: which slots to pack on
  /// the sender, and where in the receiver's ghost region the payload
  /// lands.
  struct Exchange {
    Rank src = 0;
    Rank dst = 0;
    // Entry k: the sender's f[q_k][src_local_k] -> the receiver's value
    // landing + k.
    std::vector<int> q;
    std::vector<std::int64_t> src_local;
    std::int64_t landing = 0;  // flat index into the receiver's arrays
  };

  /// In-memory rollback target: every rank's rows (each replay's exchange
  /// refills the ghost regions) plus the counters needed to replay them.
  struct Snapshot {
    std::int64_t step = -1;
    double prev_mass = 0.0;
    std::vector<std::vector<double>> state;  // per rank, its rows
  };

  /// One tile: owned points [begin, end) of a rank.  The tiles are the
  /// sentinel's (SentinelPolicy::tile_points), so one audit over them also
  /// yields every digest the sentinel records or verifies.  A border tile
  /// holds a point that reads the ghost region (end > first_border), so it
  /// can be stepped only after the halo exchange; an interior tile reads
  /// owned slots only.
  struct TileSpan {
    Rank rank = 0;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    bool border = false;
  };

  /// The step-wide work plan of the current decomposition: every tile of
  /// every rank, the work-items of the step and audit launches.  Dead ranks
  /// own no points and contribute nothing.
  struct StepPlan {
    std::vector<TileSpan> tiles;  // (rank, tile) order
    // Rank r's tiles are tiles[rank_first_tile[r], rank_first_tile[r + 1]).
    std::vector<std::size_t> rank_first_tile;
    std::vector<std::size_t> border_tiles;  // indices into tiles, ascending
  };

  /// The tiles one step launch runs (see resilient_step).
  enum class TilePass {
    kAll,       // step every tile
    kInterior,  // digest every tile's input, step the interior ones, and
                // stage every exchange's payload
    kBorder,    // step the border tiles
  };

  /// One halo edge that failed past the retransmit budget, and whether
  /// every failure was pure absence (kMissing) — the signature of a silent
  /// rank, as opposed to corruption or truncation.
  struct FailedEdge {
    Rank src = -1;
    Rank dst = -1;
    bool missing_only = true;
  };

  void exchange_halos();
  /// One launch over the tiles of `pass`.  A stepped tile writes only its
  /// own rank's slots of its own points.  Under resilience its work-item
  /// then audits the tile it just wrote, health partials included, into
  /// step_audits_: the audit of the state the step commits, read from
  /// cache instead of from memory.  kInterior first digests each tile's
  /// input into input_digests_, the sentinel's verify digests, and its
  /// last work-items pack each exchange into staged_payloads_: a pack
  /// reads owned slots of the input, which no tile writes.
  void step_tiles(TilePass pass);
  /// Completes the step every tile of which ran: the live buffers swap.
  void commit_step();

  /// Rebuilds plan_ for the current decomposition and audit tile size.
  void plan_step();
  // State audit: one launch over every (rank, tile) of the live ranks.
  /// Digests every tile of the current state under the execution model
  /// (the audits' RS001/RS003 partials stay empty: only a step launch
  /// feeds the guards).
  std::vector<resilience::TileAudit> audit_state() const;
  /// RS001-RS003 diagnostics of an audit of the current state.
  std::vector<analysis::Diagnostic> health_of(
      const std::vector<resilience::TileAudit>& audits) const;
  static double mass_of(const std::vector<resilience::TileAudit>& audits);
  /// Rank r's share of a per-tile table in plan_.tiles order.
  template <class T>
  std::span<const T> rank_share(const std::vector<T>& per_tile,
                                Rank r) const;

  /// Builds local_of_, ranks_ and exchanges_ from the current partition_,
  /// each rank's border points last.  Called by the constructor and
  /// again by shrink_to_survivors() after the partition was re-bisected over
  /// the survivors.  Dead ranks own zero points and take part in no
  /// exchange.
  void build_decomposition();

  // Halo machinery.
  /// The one packer: gathers exchange e's values from its source rank's
  /// current state, plus the CRC-32 frame word when resilience is on.
  std::vector<double> pack_payload(const Exchange& e) const;
  /// Sends every exchange's payload in exchanges_ order: the staged ones
  /// when a verifying launch packed them, else packed here.
  void post_all_halos();
  bool receive_exchange(const Exchange& e, bool* missing_only);
  bool resilient_exchange(Rank* suspect);
  void drain_stragglers();
  void record(const char* rule, analysis::Severity severity,
              const std::string& where, const std::string& message);
  void take_snapshot();
  /// Copies every rank's live array into the snapshot (`to_snapshot`) or
  /// back, as one launch over (rank, q-row) copies.
  void copy_snapshot_rows(bool to_snapshot);
  void rollback_or_fault(const std::string& why);
  std::int64_t total_values() const;
  void resilient_step();

  // SDC sentinel (RS006) machinery.
  bool sentinel_on() const {
    return resilience_.has_value() && resilience_->sentinel.enabled;
  }
  /// Records the audits' digests as the state of steps_done_.
  void sentinel_record(const std::vector<resilience::TileAudit>& audits);
  /// Duplicate re-execution vote-compare over sampled tiles (runs after
  /// commit_step, while the step's input still survives in each rank
  /// engine's second buffer).
  /// Same return contract as handle_sdc.
  bool reexec_vote_sample();
  /// Shared escalation for both detection paths: records RS006 per
  /// mismatching tile (indices into plan_.tiles), then quarantines the
  /// offending rank (repeat offender + shrink possible) or rolls back.
  /// Returns true when it escalated a detection: the step attempt is over
  /// and the caller must return.
  bool handle_sdc(const std::vector<std::size_t>& found, bool reexec);
  void apply_due_bit_flips();

  // Elastic shrink-recovery.
  Rank diagnose_dead_rank(const std::vector<FailedEdge>& failed) const;
  bool can_shrink() const;
  void shrink_to_survivors(Rank dead);

  /// The one (rank, local) <-> global walk, over direction q: visit(slot,
  /// g) for each slot of row q of the per-rank arrays (per_rank[r] holding
  /// kQ rows of owned values), rank by rank in local order, with g the
  /// point's global index.  The ghost region is not visited.
  template <class Visit>
  void walk_row(std::span<double* const> per_rank, int q, Visit visit) const;
  /// Each rank's live array, by rank.
  std::vector<double*> live_arrays() const;

  std::shared_ptr<const lbm::SparseLattice> global_;
  decomp::Partition partition_;
  lbm::SolverOptions options_;
  std::unique_ptr<comm::Network> network_;
  std::vector<RankState> ranks_;
  // Global point g lives in local slot local_of_[g] of its owner rank
  // partition_.owner[g]: the one global -> local table.
  std::vector<std::int64_t> local_of_;
  std::vector<Exchange> exchanges_;  // sorted by (src, dst)
  StepPlan plan_;
  // Per tile, in plan_.tiles order: the audits of the last resilient step
  // launch(es), and the digests of the input of the last kInterior launch.
  std::vector<resilience::TileAudit> step_audits_;
  std::vector<lbm::TileDigest> input_digests_;
  // The framed payloads the last kInterior launch packed, in exchanges_
  // order, until post_all_halos() sends them; empty when none are staged.
  // A detection, rollback or shrink drops them with the step attempt.
  std::vector<std::vector<double>> staged_payloads_;
  std::int64_t steps_done_ = 0;
  std::optional<hal::Model> model_;
  bool owns_kokkos_runtime_ = false;

  std::optional<resilience::Options> resilience_;
  resilience::RunStats stats_;
  Snapshot snapshot_;
  int rollbacks_used_ = 0;
  double initial_mass_ = 0.0;
  double prev_mass_ = 0.0;
  bool closed_system_ = false;  // no inlet/outlet point: RS002 holds mass

  // SDC sentinel state.  recorded_ holds the digests of the state of step
  // recorded_step_, in plan_.tiles order.  sdc_hits_[r] accumulates RS006
  // detections blamed on rank r across the whole run (not per step): a
  // device whose memory keeps flipping bits is failing, not unlucky, and
  // reaching resilience::kQuarantineThreshold escalates it to the shrink
  // path.
  resilience::FaultPlan* injected_faults_ = nullptr;  // non-owning
  std::vector<lbm::TileDigest> recorded_;
  std::int64_t recorded_step_ = -1;
  std::vector<int> sdc_hits_;
  std::vector<double> reexec_scratch_a_, reexec_scratch_b_;

  // Failure detector: alive_[r] is cleared forever when rank r is declared
  // dead; suspect_rank_/suspect_count_ track the deadline escalation (how
  // many consecutive failed step attempts blamed the same unique rank).
  std::vector<char> alive_;
  Rank suspect_rank_ = -1;
  int suspect_count_ = 0;
};

}  // namespace hemo::harvey
