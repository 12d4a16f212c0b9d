#pragma once
// Deterministic fault schedules for chaos testing the distributed solver.
// A FaultPlan is a list of FaultEvents keyed by (step, src rank, dst rank);
// the FaultyNetwork decorator consults it on every send/receive and marks
// events as fired when applied.  Events are one-shot: a rollback that
// replays a step does not re-trigger the fault it recovered from, exactly
// like a transient soft fault in a real interconnect.
//
// Plans are seeded and fully deterministic (SplitMix64), so a chaos run is
// reproducible bit-for-bit from its seed — the property the hemo_chaos
// survival report and the CI chaos-smoke gate rely on.

#include <cstdint>
#include <string_view>
#include <vector>

#include "base/types.hpp"

namespace hemo::resilience {

enum class FaultKind {
  kDrop = 0,   // message vanishes on the wire
  kDuplicate,  // message is delivered twice
  kCorrupt,    // one payload double gets its bits flipped
  kDelay,      // message arrives one receive-poll late (reordering)
  kTruncate,   // message loses its tail values
  kStall,      // a rank stops sending for several polls
  kRankDeath,  // a rank dies PERMANENTLY: all of its traffic black-holed
               // from the event step onward (never clears, survives
               // rollbacks) — the failure mode shrink-recovery targets
  kBitFlip,    // in-memory SDC: one bit of one live distribution slot is
               // flipped at the start of the event step.  Applied by the
               // SOLVER (set_fault_injection), not the network — the wire
               // never sees it; only the SDC sentinel can.  One-shot and
               // rollback-surviving like the transient kinds.
};

/// The transient (one-shot) kinds: what "--kinds all" and random chaos
/// plans draw from.  kRankDeath is deliberately excluded — a permanent
/// kill changes the run's decomposition and is opted into explicitly
/// (hemo_chaos --kill-rank, FaultPlan::kill_rank).  kBitFlip is excluded
/// for the same reason: it is not a network fault at all, and is opted
/// into via hemo_chaos --sdc / FaultPlan::bit_flips.
inline constexpr FaultKind kAllFaultKinds[] = {
    FaultKind::kDrop,     FaultKind::kDuplicate, FaultKind::kCorrupt,
    FaultKind::kDelay,    FaultKind::kTruncate,  FaultKind::kStall};

std::string_view fault_kind_name(FaultKind kind);

/// Parses "drop", "corrupt", ... back into a kind; returns false on an
/// unknown name.
bool parse_fault_kind(std::string_view name, FaultKind* out);

struct FaultEvent {
  std::int64_t step = 0;  // solver step the event triggers on
  Rank src = 0;           // sending rank (the stalled rank for kStall)
  Rank dst = 0;           // receiving rank (ignored for kStall)
  FaultKind kind = FaultKind::kDrop;

  // Kind-specific parameters.
  int payload_index = 0;                       // kCorrupt: value to damage
  std::uint64_t xor_mask = 0x7FF0000000000000ull;  // kCorrupt: bit flips
  int truncate_by = 1;                         // kTruncate: values removed
  int stall_polls = 1;  // kStall: receive polls the rank stays silent for

  // kBitFlip parameters: which GLOBAL lattice point, which of its kQ
  // distribution slots, and which of the 64 bits to flip.  The injecting
  // solver resolves the global point to (owner rank, local slot) at fire
  // time and records the ground truth below, so a chaos harness can score
  // the sentinel's localization against what actually happened.
  std::int64_t flip_point = 0;  // global point index
  int flip_q = 0;               // distribution direction [0, kQ)
  int flip_bit = 0;             // bit position [0, 64)
  Rank fired_rank = -1;         // owner rank the flip landed on
  std::int64_t fired_tile = -1;  // digest tile (local index / tile_points)

  bool fired = false;  // set by the network when the event is applied
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Seeded random plan: `events_per_kind` events of each requested kind,
  /// spread over steps [0, steps) and the given communicating (src, dst)
  /// edges.  Deterministic in all arguments.
  static FaultPlan random(std::uint64_t seed, std::int64_t steps,
                          const std::vector<std::pair<Rank, Rank>>& edges,
                          const std::vector<FaultKind>& kinds,
                          int events_per_kind);

  /// Appends `event`, the one way into a plan.  A kBitFlip event must name
  /// a direction in [0, kQ) and a bit in [0, 64) (precondition): the
  /// injecting solver indexes and shifts by them.
  void add(const FaultEvent& event);

  /// Convenience: schedules a permanent kRankDeath of `rank` at `step`.
  void kill_rank(Rank rank, std::int64_t step);

  /// Seeded in-memory SDC campaign: `count` kBitFlip events, each picking
  /// a step in [0, steps), a global point in [0, n_points), a direction in
  /// [0, kQ) and a bit in [0, 64).  Low mantissa bits through the sign bit
  /// are all fair game — the sentinel digests exact bit patterns, so even
  /// a flip of the lowest mantissa bit must be caught.  Deterministic in
  /// all arguments.
  static FaultPlan bit_flips(std::uint64_t seed, std::int64_t steps,
                             std::int64_t n_points, int count);

  /// First unfired non-stall transient event matching a send on
  /// (step, src, dst), or nullptr.  Does not mark the event fired — the
  /// network does, once the fault is actually applied.  kBitFlip events
  /// are never matched here: they are solver-side, not wire-side.
  FaultEvent* match_send(std::int64_t step, Rank src, Rank dst);

  /// First unfired kBitFlip event scheduled for exactly this step, or
  /// nullptr.  The injecting solver marks it fired once the bit is
  /// flipped; the fired flag survives rollback (the replayed step does
  /// not re-corrupt), matching the network kinds' one-shot semantics.
  FaultEvent* match_bit_flip(std::int64_t step);

  /// First unfired stall event for the sending rank at this step.
  FaultEvent* match_stall(std::int64_t step, Rank src);

  /// First unfired kRankDeath event whose step has been reached (event
  /// step <= `step` — a permanent kill does not need traffic on its exact
  /// step to take effect).  nullptr when no rank is due to die.
  FaultEvent* match_rank_death(std::int64_t step);

  const std::vector<FaultEvent>& events() const { return events_; }

  int total() const { return static_cast<int>(events_.size()); }
  int count(FaultKind kind) const;
  int fired_count() const;
  int fired_count(FaultKind kind) const;
  /// Events that never triggered (their step/edge saw no traffic).
  int unfired_count() const { return total() - fired_count(); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace hemo::resilience
