#include "resilience/fault.hpp"

#include "base/contracts.hpp"
#include "base/rng.hpp"
#include "lbm/d3q19.hpp"

namespace hemo::resilience {

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kStall: return "stall";
    case FaultKind::kRankDeath: return "rank-death";
    case FaultKind::kBitFlip: return "bit-flip";
  }
  return "?";
}

bool parse_fault_kind(std::string_view name, FaultKind* out) {
  for (const FaultKind kind : kAllFaultKinds) {
    if (name == fault_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  for (const FaultKind kind : {FaultKind::kRankDeath, FaultKind::kBitFlip}) {
    if (name == fault_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

void FaultPlan::add(const FaultEvent& event) {
  if (event.kind == FaultKind::kBitFlip) {
    HEMO_EXPECTS(event.flip_q >= 0 && event.flip_q < lbm::kQ);
    HEMO_EXPECTS(event.flip_bit >= 0 && event.flip_bit < 64);
  }
  events_.push_back(event);
}

void FaultPlan::kill_rank(Rank rank, std::int64_t step) {
  FaultEvent e;
  e.kind = FaultKind::kRankDeath;
  e.step = step;
  e.src = rank;
  add(e);
}

FaultPlan FaultPlan::random(std::uint64_t seed, std::int64_t steps,
                            const std::vector<std::pair<Rank, Rank>>& edges,
                            const std::vector<FaultKind>& kinds,
                            int events_per_kind) {
  HEMO_EXPECTS(steps >= 1);
  HEMO_EXPECTS(!edges.empty());
  HEMO_EXPECTS(events_per_kind >= 0);
  SplitMix64 rng(seed);
  FaultPlan plan;
  for (const FaultKind kind : kinds) {
    for (int k = 0; k < events_per_kind; ++k) {
      FaultEvent e;
      e.kind = kind;
      e.step = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(steps)));
      const auto& edge = edges[rng.next_below(edges.size())];
      e.src = edge.first;
      e.dst = edge.second;
      switch (kind) {
        case FaultKind::kCorrupt:
          e.payload_index = static_cast<int>(rng.next_below(64));
          // Flip one high exponent bit and one mantissa bit: large enough
          // to be visible, small enough to exercise the CRC (not only the
          // NaN scan).
          e.xor_mask = (1ull << (52 + rng.next_below(11))) |
                       (1ull << rng.next_below(52));
          break;
        case FaultKind::kTruncate:
          e.truncate_by = 1 + static_cast<int>(rng.next_below(4));
          break;
        case FaultKind::kStall:
          // 1-6 silent polls: short stalls recover by waiting/retransmit,
          // long ones exhaust the budget and exercise the rollback path.
          e.stall_polls = 1 + static_cast<int>(rng.next_below(6));
          break;
        case FaultKind::kBitFlip:
          // random() knows the communication graph, not the lattice
          // extent, so the flip stays on global point 0; direction and
          // bit are drawn.  bit_flips() below is the real SDC campaign.
          e.flip_q = static_cast<int>(rng.next_below(lbm::kQ));
          e.flip_bit = static_cast<int>(rng.next_below(64));
          break;
        default:
          break;
      }
      plan.add(e);
    }
  }
  return plan;
}

FaultPlan FaultPlan::bit_flips(std::uint64_t seed, std::int64_t steps,
                               std::int64_t n_points, int count) {
  HEMO_EXPECTS(steps >= 1);
  HEMO_EXPECTS(n_points >= 1);
  HEMO_EXPECTS(count >= 0);
  SplitMix64 rng(seed);
  FaultPlan plan;
  for (int k = 0; k < count; ++k) {
    FaultEvent e;
    e.kind = FaultKind::kBitFlip;
    e.step = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(steps)));
    e.flip_point = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(n_points)));
    e.flip_q = static_cast<int>(rng.next_below(lbm::kQ));
    e.flip_bit = static_cast<int>(rng.next_below(64));
    plan.add(e);
  }
  return plan;
}

FaultEvent* FaultPlan::match_send(std::int64_t step, Rank src, Rank dst) {
  for (FaultEvent& e : events_) {
    if (e.fired || e.kind == FaultKind::kStall ||
        e.kind == FaultKind::kRankDeath || e.kind == FaultKind::kBitFlip)
      continue;
    if (e.step == step && e.src == src && e.dst == dst) return &e;
  }
  return nullptr;
}

FaultEvent* FaultPlan::match_bit_flip(std::int64_t step) {
  for (FaultEvent& e : events_) {
    if (e.fired || e.kind != FaultKind::kBitFlip) continue;
    if (e.step == step) return &e;
  }
  return nullptr;
}

FaultEvent* FaultPlan::match_rank_death(std::int64_t step) {
  for (FaultEvent& e : events_) {
    if (e.fired || e.kind != FaultKind::kRankDeath) continue;
    if (e.step <= step) return &e;
  }
  return nullptr;
}

FaultEvent* FaultPlan::match_stall(std::int64_t step, Rank src) {
  for (FaultEvent& e : events_) {
    if (e.fired || e.kind != FaultKind::kStall) continue;
    if (e.step == step && e.src == src) return &e;
  }
  return nullptr;
}

int FaultPlan::count(FaultKind kind) const {
  int n = 0;
  for (const FaultEvent& e : events_)
    if (e.kind == kind) ++n;
  return n;
}

int FaultPlan::fired_count() const {
  int n = 0;
  for (const FaultEvent& e : events_)
    if (e.fired) ++n;
  return n;
}

int FaultPlan::fired_count(FaultKind kind) const {
  int n = 0;
  for (const FaultEvent& e : events_)
    if (e.fired && e.kind == kind) ++n;
  return n;
}

}  // namespace hemo::resilience
