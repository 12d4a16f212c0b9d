#include "harvey/distributed_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "analysis/lattice_check.hpp"
#include "base/contracts.hpp"
#include "base/rng.hpp"
#include "hal/launch.hpp"
#include "io/blob.hpp"
#include "lbm/checkpoint.hpp"

namespace hemo::harvey {

namespace {

/// Validates the CRC frame word a resilient sender appended to a halo
/// payload.  The frame is a crc32 of the data bytes stored as a double
/// (exact: crc < 2^32 < 2^53); corruption of either the data or the frame
/// itself fails the comparison.  NaN-safe: a damaged frame word that is no
/// longer a valid integral double simply reads as "mismatch".
bool frame_ok(const std::vector<double>& payload) {
  const double tail = payload.back();
  if (!(tail >= 0.0 && tail < 4294967296.0)) return false;
  const auto stored = static_cast<std::uint32_t>(tail);
  const std::uint32_t actual =
      io::crc32(payload.data(), (payload.size() - 1) * sizeof(double));
  return stored == actual;
}

}  // namespace

DistributedSolver::~DistributedSolver() {
  if (owns_kokkos_runtime_) hal::kokkosx::finalize();
}

DistributedSolver::DistributedSolver(
    std::shared_ptr<const lbm::SparseLattice> global,
    decomp::Partition partition, lbm::SolverOptions options)
    : global_(std::move(global)),
      partition_(std::move(partition)),
      options_(options),
      network_(std::make_unique<comm::Network>(partition_.n_ranks)) {
  HEMO_EXPECTS(global_ != nullptr);
  HEMO_EXPECTS(partition_.owner.size() ==
               static_cast<std::size_t>(global_->size()));
  HEMO_EXPECTS(options_.tau > 0.5);
  HEMO_EXPECTS(options_.propagation == lbm::Propagation::kPullSoA);

  closed_system_ = std::none_of(
      global_->node_types().begin(), global_->node_types().end(),
      [](lbm::NodeType t) { return t != lbm::NodeType::kBulk; });
  alive_.assign(static_cast<std::size_t>(partition_.n_ranks), 1);
  build_decomposition();
  initial_mass_ = prev_mass_ = total_mass();
}

void DistributedSolver::build_decomposition() {
  const int R = partition_.n_ranks;
  ranks_.assign(static_cast<std::size_t>(R), RankState{});
  exchanges_.clear();

  // A border point has an upstream neighbour on another rank: its step
  // reads the ghost region.
  const std::size_t n = partition_.owner.size();
  std::vector<char> border(n, 0);
  for (std::size_t g = 0; g < n; ++g) {
    const Rank r = partition_.owner[g];
    HEMO_EXPECTS(r >= 0 && r < R);
    for (int q = 1; q < lbm::kQ && !border[g]; ++q) {
      const PointIndex up = global_->neighbor(q, static_cast<PointIndex>(g));
      border[g] = up != kSolidNeighbor &&
                  partition_.owner[static_cast<std::size_t>(up)] != r;
    }
  }

  // The local order: a rank's interior points, then its border points, each
  // group in ascending global index.  The statement in this loop is the only
  // place that decides it; every global -> local lookup reads local_of_.
  // Each pass opens with first_border at the points numbered so far, so it
  // ends at the count of interior points.
  local_of_.resize(n);
  for (const char border_pass : {0, 1}) {
    for (RankState& rs : ranks_) rs.first_border = rs.owned;
    for (std::size_t g = 0; g < n; ++g) {
      if (border[g] != border_pass) continue;
      RankState& rs = ranks_[static_cast<std::size_t>(partition_.owner[g])];
      local_of_[g] = rs.owned++;
      rs.owned_global.push_back(static_cast<PointIndex>(g));
    }
  }

  for (Rank d = 0; d < R; ++d) {
    RankState& rs = ranks_[static_cast<std::size_t>(d)];
    // A dead rank legitimately owns nothing after a shrink; an *alive*
    // rank with no points means the partition is broken.
    HEMO_EXPECTS(rs.owned > 0 || !alive_[static_cast<std::size_t>(d)]);

    // The ghost region holds the inbound payloads in ascending source
    // order, so source s's payload starts at region value base[s]: count
    // each source's off-rank links over the border points.
    std::vector<std::int64_t> base(static_cast<std::size_t>(R) + 1, 0);
    for (std::int64_t li = rs.first_border; li < rs.owned; ++li) {
      const PointIndex gi = rs.owned_global[static_cast<std::size_t>(li)];
      for (int q = 1; q < lbm::kQ; ++q) {
        const PointIndex up = global_->neighbor(q, gi);
        if (up == kSolidNeighbor) continue;
        const Rank s = partition_.owner[static_cast<std::size_t>(up)];
        if (s != d) ++base[static_cast<std::size_t>(s) + 1];
      }
    }
    std::partial_sum(base.begin(), base.end(), base.begin());
    const std::int64_t region = base.back();

    // One walk: local adjacency, node types and the exchanges into d,
    // entries in (local index, q) order.  Only border points add entries,
    // and they are in ascending global index, so an exchange's entries and
    // payload bytes do not depend on where the interior points are
    // numbered.  Entry k of the exchange from s is region value
    // base[s] + k, which the adjacency names as owned + base[s] + k.  The
    // engine keeps its own 32-bit slot table built from the adjacency, so
    // the adjacency itself is dropped once the engine exists.
    const auto rows = static_cast<std::size_t>(lbm::kQ) *
                      static_cast<std::size_t>(rs.owned);
    std::vector<PointIndex> adjacency(rows, kSolidNeighbor);
    rs.node_type.resize(static_cast<std::size_t>(rs.owned));
    std::vector<Exchange> into(static_cast<std::size_t>(R));  // by source
    for (std::int64_t li = 0; li < rs.owned; ++li) {
      const PointIndex gi = rs.owned_global[static_cast<std::size_t>(li)];
      rs.node_type[static_cast<std::size_t>(li)] =
          static_cast<std::uint8_t>(global_->node_type(gi));
      for (int q = 0; q < lbm::kQ; ++q) {
        const PointIndex up = global_->neighbor(q, gi);
        if (up == kSolidNeighbor) continue;
        const Rank s = partition_.owner[static_cast<std::size_t>(up)];
        const std::int64_t on_owner = local_of_[static_cast<std::size_t>(up)];
        std::int64_t slot = on_owner;
        if (s != d) {
          Exchange& e = into[static_cast<std::size_t>(s)];
          slot = rs.owned + base[static_cast<std::size_t>(s)] +
                 static_cast<std::int64_t>(e.q.size());
          e.q.push_back(q);
          e.src_local.push_back(on_owner);
        }
        adjacency[static_cast<std::size_t>(q) *
                      static_cast<std::size_t>(rs.owned) +
                  static_cast<std::size_t>(li)] = slot;
      }
    }
    for (Rank s = 0; s < R; ++s) {
      Exchange& e = into[static_cast<std::size_t>(s)];
      e.src = s;
      e.dst = d;
      e.landing = static_cast<std::int64_t>(rows) +
                  base[static_cast<std::size_t>(s)];
      if (!e.q.empty()) exchanges_.push_back(std::move(e));
    }

    // The rows start at equilibrium, as the single-domain solver's do; the
    // first exchange fills the region before any kernel reads it.
    rs.f_a.resize(rows + static_cast<std::size_t>(region));
    rs.f_b.resize(rs.f_a.size());
    rs.engine = lbm::StepEngine(
        options_.propagation,
        {rs.f_a.data(), rs.f_b.data(), adjacency.data(),
         rs.node_type.data(), rs.owned, region});
    rs.engine.fill_equilibrium(options_, model_);
  }
  std::ranges::sort(exchanges_, {}, [](const Exchange& e) {
    return std::pair(e.src, e.dst);
  });
  plan_step();
}

void DistributedSolver::set_network(std::unique_ptr<comm::Network> network) {
  HEMO_EXPECTS(network != nullptr);
  HEMO_EXPECTS(network->n_ranks() == partition_.n_ranks);
  HEMO_EXPECTS(steps_done_ == 0);
  network_ = std::move(network);
}

std::vector<std::pair<Rank, Rank>> DistributedSolver::exchange_pairs() const {
  std::vector<std::pair<Rank, Rank>> pairs;
  pairs.reserve(exchanges_.size());
  for (const Exchange& e : exchanges_) pairs.emplace_back(e.src, e.dst);
  return pairs;
}

void DistributedSolver::exchange_halos() {
  // Post every send, then drain every receive: the classic halo-exchange
  // schedule (non-blocking sends + receives in MPI terms).
  post_all_halos();
  for (const Exchange& e : exchanges_)
    std::ranges::copy(network_->receive(e.dst, e.src, e.q.size()),
                      ranks_[static_cast<std::size_t>(e.dst)].current() +
                          e.landing);
  HEMO_ASSERT(network_->drained());
}

void DistributedSolver::set_execution_model(hal::Model model) {
  if (hal::acquire_kokkos_runtime(model)) owns_kokkos_runtime_ = true;
  model_ = model;
}

void DistributedSolver::step_tiles(TilePass pass) {
  // One launch runs every live rank's tiles of the pass.  A tile writes
  // only its own rank's slots of its own points, so the result does not
  // depend on how the launch is chunked across engine workers; the audit of
  // a tile reads exactly the points its work-item just wrote.
  std::vector<lbm::StepEngine::BlockStep> rank_steps;
  rank_steps.reserve(ranks_.size());
  for (const RankState& rs : ranks_)
    rank_steps.push_back(rs.engine.blocks(options_));
  const lbm::StepEngine::BlockStep* steps = rank_steps.data();
  const TileSpan* tiles = plan_.tiles.data();
  const RankState* ranks = ranks_.data();
  const bool border_only = pass == TilePass::kBorder;
  const std::size_t* border_tiles = plan_.border_tiles.data();
  lbm::TileDigest* inputs =
      pass == TilePass::kInterior ? input_digests_.data() : nullptr;
  resilience::TileAudit* audits =
      resilience_.has_value() ? step_audits_.data() : nullptr;
  const Vec3 force = options_.body_force;
  const auto tile_items = static_cast<std::int64_t>(
      border_only ? plan_.border_tiles.size() : plan_.tiles.size());
  // The last work-items of a kInterior launch pack the exchanges: a rank's
  // border points are its last tiles, so the digests have usually just
  // brought a pack's input into cache.
  std::int64_t packs = 0;
  if (pass == TilePass::kInterior) {
    staged_payloads_.assign(exchanges_.size(), {});
    packs = static_cast<std::int64_t>(exchanges_.size());
  }
  std::vector<double>* staged = staged_payloads_.data();
  const Exchange* exchanges = exchanges_.data();
  hal::launch(model_, tile_items + packs, [=, this](std::int64_t i) {
    if (i >= tile_items) {
      staged[i - tile_items] = pack_payload(exchanges[i - tile_items]);
      return;
    }
    const std::size_t k = border_only ? border_tiles[i]
                                      : static_cast<std::size_t>(i);
    const TileSpan& t = tiles[k];
    const RankState& rs = ranks[t.rank];
    if (inputs != nullptr) {
      inputs[k] = lbm::tile_digest(rs.current(), rs.owned, t.begin, t.end);
      if (t.border) return;  // its region is not exchanged yet
    }
    // A border tile's input was last read by its digest, before the
    // exchange: fetch its rows ahead of the gather, as the digest does for
    // an interior tile.
    if (border_only)
      lbm::prefetch_tile(rs.current(), rs.owned, t.begin, t.end);
    const lbm::StepEngine::BlockStep& s = steps[t.rank];
    s.range(t.begin, t.end);
    if (audits != nullptr)
      audits[k] = resilience::audit_tile(s.output(), rs.owned, t.begin, t.end,
                                         force.x, force.y, force.z);
  });
}

void DistributedSolver::commit_step() {
  for (RankState& rs : ranks_)
    if (rs.owned > 0) rs.engine.commit();  // dead ranks idle
  ++steps_done_;
}

void DistributedSolver::plan_step() {
  const std::int64_t tile_points =
      resilience_.has_value() ? resilience_->sentinel.tile_points
                              : resilience::SentinelPolicy{}.tile_points;
  plan_ = StepPlan{};
  plan_.rank_first_tile.assign(1, 0);
  for (Rank r = 0; r < partition_.n_ranks; ++r) {
    const RankState& rs = ranks_[static_cast<std::size_t>(r)];
    for (std::int64_t begin = 0; begin < rs.owned; begin += tile_points) {
      const std::int64_t end = std::min(begin + tile_points, rs.owned);
      const bool is_border = end > rs.first_border;
      if (is_border) plan_.border_tiles.push_back(plan_.tiles.size());
      plan_.tiles.push_back(TileSpan{r, begin, end, is_border});
    }
    plan_.rank_first_tile.push_back(plan_.tiles.size());
  }
  step_audits_.assign(plan_.tiles.size(), resilience::TileAudit{});
  input_digests_.assign(plan_.tiles.size(), lbm::TileDigest{});
}

// ---------------------------------------------------------------------------
// State audit: the health guards, the mass reduction and the sentinel
// digests all read one pass over the (rank, tile) grid.
// ---------------------------------------------------------------------------

std::vector<resilience::TileAudit> DistributedSolver::audit_state() const {
  std::vector<resilience::TileAudit> audits(plan_.tiles.size());
  resilience::TileAudit* out = audits.data();
  const TileSpan* tiles = plan_.tiles.data();
  const RankState* ranks = ranks_.data();
  // Each index writes only its own slot of `audits`, so the launch is
  // race-free and its result does not depend on how it is chunked.
  hal::launch(model_, static_cast<std::int64_t>(plan_.tiles.size()),
              [=](std::int64_t k) {
                const TileSpan& t = tiles[k];
                const RankState& rs = ranks[t.rank];
                out[k].digest =
                    lbm::tile_digest(rs.current(), rs.owned, t.begin, t.end);
              });
  return audits;
}

double DistributedSolver::mass_of(
    const std::vector<resilience::TileAudit>& audits) {
  double mass = 0.0;
  for (const resilience::TileAudit& a : audits) mass += a.digest.mass;
  return mass;
}

template <class T>
std::span<const T> DistributedSolver::rank_share(const std::vector<T>& per_tile,
                                                 Rank r) const {
  const std::size_t first = plan_.rank_first_tile[static_cast<std::size_t>(r)];
  const std::size_t last =
      plan_.rank_first_tile[static_cast<std::size_t>(r) + 1];
  return std::span<const T>(per_tile).subspan(first, last - first);
}

void DistributedSolver::step() {
  if (resilience_.has_value()) {
    resilient_step();
    return;
  }
  if (injected_faults_ != nullptr) apply_due_bit_flips();
  network_->begin_step(steps_done_);
  exchange_halos();
  step_tiles(TilePass::kAll);
  commit_step();
}

void DistributedSolver::run(int steps) {
  HEMO_EXPECTS(steps >= 0);
  // A rollback moves steps_done_ backwards, so count net progress rather
  // than loop iterations.
  const std::int64_t target = steps_done_ + steps;
  while (steps_done_ < target) step();
}

// ---------------------------------------------------------------------------
// Resilience: CRC frames, retransmission, health guards, rollback.
// ---------------------------------------------------------------------------

void DistributedSolver::enable_resilience(const resilience::Options& options) {
  HEMO_EXPECTS(options.recovery.max_retransmits >= 0);
  HEMO_EXPECTS(options.recovery.checkpoint_interval >= 1);
  HEMO_EXPECTS(options.recovery.max_rollbacks >= 0);
  HEMO_EXPECTS(options.sentinel.tile_points >= 1);
  HEMO_EXPECTS(options.sentinel.check_interval >= 1);
  HEMO_EXPECTS(options.sentinel.reexec_sample >= 0);
  resilience_ = options;
  stats_ = resilience::RunStats{};
  rollbacks_used_ = 0;
  snapshot_ = Snapshot{};
  plan_step();  // the audit tiles are the sentinel's
  const std::vector<resilience::TileAudit> audits = audit_state();
  initial_mass_ = prev_mass_ = mass_of(audits);

  sdc_hits_.assign(static_cast<std::size_t>(partition_.n_ranks), 0);
  if (sentinel_on()) {
    // Anchor the sentinel: digest the initial state and snapshot it, so a
    // corruption landing before the first checkpoint boundary still has a
    // verified-clean rollback target.
    sentinel_record(audits);
    take_snapshot();
  }
}

std::int64_t DistributedSolver::total_values() const {
  return static_cast<std::int64_t>(lbm::kQ) * global_->size();
}

void DistributedSolver::record(const char* rule, analysis::Severity severity,
                               const std::string& where,
                               const std::string& message) {
  stats_.diagnostics.push_back(
      analysis::Diagnostic{rule, severity, where, 0, message, ""});
}

std::vector<double> DistributedSolver::pack_payload(const Exchange& e) const {
  // Resilient runs append the CRC-32 frame word; plain runs send the bare
  // halo values.
  const bool frames = resilience_.has_value();
  std::vector<double> payload(e.q.size() + (frames ? 1 : 0));
  const RankState& src = ranks_[static_cast<std::size_t>(e.src)];
  for (std::size_t k = 0; k < e.q.size(); ++k)
    payload[k] = src.current()[static_cast<std::size_t>(e.q[k]) *
                                   static_cast<std::size_t>(src.owned) +
                               static_cast<std::size_t>(e.src_local[k])];
  if (frames)
    payload.back() = static_cast<double>(
        io::crc32(payload.data(), e.q.size() * sizeof(double)));
  return payload;
}

void DistributedSolver::post_all_halos() {
  // The step's input has not changed since a verifying launch staged the
  // payloads, so they hold the bytes a pack here would.
  const bool staged = !staged_payloads_.empty();
  HEMO_ASSERT(!staged || staged_payloads_.size() == exchanges_.size());
  for (std::size_t x = 0; x < exchanges_.size(); ++x) {
    const Exchange& e = exchanges_[x];
    network_->send(e.src, e.dst,
                   staged ? std::move(staged_payloads_[x]) : pack_payload(e));
  }
  staged_payloads_.clear();
}

bool DistributedSolver::receive_exchange(const Exchange& e,
                                         bool* missing_only) {
  const std::size_t expected = e.q.size() + 1;  // + the CRC frame word
  const int budget = resilience_->recovery.max_retransmits;
  if (missing_only) *missing_only = true;
  int used = 0;
  for (;;) {
    bool have_payload = false;
    std::vector<double> payload;
    try {
      payload = network_->receive(e.dst, e.src, expected);
      have_payload = true;
    } catch (const comm::RecvError& err) {
      if (err.kind() == comm::RecvError::Kind::kMissing) {
        ++stats_.recv_missing;
      } else {
        ++stats_.recv_wrong_size;
        if (missing_only) *missing_only = false;
      }
    }
    if (have_payload) {
      if (frame_ok(payload)) {
        std::copy_n(payload.begin(), e.q.size(),
                    ranks_[static_cast<std::size_t>(e.dst)].current() +
                        e.landing);
        return true;
      }
      ++stats_.crc_mismatch;  // corrupted in flight; retransmit replaces it
      if (missing_only) *missing_only = false;
    }
    if (used >= budget) return false;
    ++used;
    ++stats_.retransmits;
    // Repack from the sender's intact owned state: the fault hit the wire,
    // not the source data.
    network_->send(e.src, e.dst, pack_payload(e));
  }
}

void DistributedSolver::drain_stragglers() {
  // Duplicates, surviving retransmissions and late-released delayed
  // messages are still in flight after every exchange landed once.
  // Consume and discard them so they cannot alias next step's traffic.
  for (const Exchange& e : exchanges_) {
    int guard = 0;
    while (network_->pending(e.dst, e.src) > 0 && guard++ < 64) {
      try {
        network_->receive(e.dst, e.src);
        ++stats_.stragglers_drained;
      } catch (const comm::RecvError&) {
        // A delayed or held message only reached the channel during this
        // poll; the next iteration consumes it.
      }
    }
  }
}

Rank DistributedSolver::diagnose_dead_rank(
    const std::vector<FailedEdge>& failed) const {
  // A permanently dead rank is *totally* silent: nothing it sends reaches
  // the wire and nothing sent to it is accepted, so every one of its
  // planned halo edges — both directions — fails with pure absence.  A
  // transient fault (drop, corrupt, stall) either recovers within the
  // retransmit budget or fails with a non-missing signature.  The suspect
  // must therefore (a) have every planned edge among the failures, and
  // (b) account for every failure; it must also be (c) unique — in a
  // 2-rank run both ranks satisfy (a) and (b) symmetrically, so detection
  // abstains and the ordinary rollback ladder decides.
  for (const FailedEdge& f : failed)
    if (!f.missing_only) return -1;

  std::vector<Rank> candidates;
  for (Rank c = 0; c < partition_.n_ranks; ++c) {
    if (!alive_[static_cast<std::size_t>(c)]) continue;
    std::size_t planned = 0;
    for (const Exchange& e : exchanges_)
      if (e.src == c || e.dst == c) ++planned;
    if (planned == 0) continue;
    std::size_t touching = 0;
    bool all_touch = true;
    for (const FailedEdge& f : failed) {
      if (f.src == c || f.dst == c)
        ++touching;
      else
        all_touch = false;
    }
    if (all_touch && touching == planned) candidates.push_back(c);
  }
  return candidates.size() == 1 ? candidates.front() : -1;
}

bool DistributedSolver::resilient_exchange(Rank* suspect) {
  if (suspect) *suspect = -1;
  post_all_halos();
  const std::int64_t stray_before = stats_.stragglers_drained;
  // Attempt every exchange even after one fails: the failure *pattern*
  // across the whole plan is what distinguishes a dead rank (all of its
  // edges silent) from a transient fault (an isolated edge).
  std::vector<FailedEdge> failed;
  for (const Exchange& e : exchanges_) {
    bool missing_only = true;
    if (!receive_exchange(e, &missing_only))
      failed.push_back(FailedEdge{e.src, e.dst, missing_only});
  }
  if (!failed.empty()) {
    if (suspect) *suspect = diagnose_dead_rank(failed);
    return false;
  }
  drain_stragglers();

  // Audit the wire against the exchange plan: every plan message was
  // delivered exactly once; anything beyond that is off-plan traffic.
  const std::int64_t stray = stats_.stragglers_drained - stray_before;
  if (stray > 0 || !network_->drained()) {
    ++stats_.halo_audit_mismatches;
    std::ostringstream msg;
    msg << "step " << steps_done_ << ": halo traffic off plan (expected "
        << exchanges_.size() << " messages, observed "
        << exchanges_.size() + stray << "; " << stray << " strays drained"
        << (network_->drained() ? ")" : ", wire dirty)");
    record("RS004", analysis::Severity::kWarning, "halo-exchange", msg.str());
  }
  return true;
}

std::vector<analysis::Diagnostic> DistributedSolver::health_of(
    const std::vector<resilience::TileAudit>& audits) const {
  std::vector<analysis::Diagnostic> out;
  for (Rank r = 0; r < partition_.n_ranks; ++r) {
    const std::vector<analysis::Diagnostic> rank_diags =
        resilience::health_diagnostics(rank_share(audits, r), steps_done_,
                                       "rank " + std::to_string(r));
    out.insert(out.end(), rank_diags.begin(), rank_diags.end());
  }

  const auto rs002 = [&](const std::ostringstream& what) {
    out.push_back(analysis::Diagnostic{
        "RS002", analysis::Severity::kError, "global", 0,
        "step " + std::to_string(steps_done_) + ": " + what.str(),
        "roll back to the last checkpoint"});
  };
  const double mass = mass_of(audits);
  if (!std::isfinite(mass)) {
    // RS001 already names the non-finite points when it fired.  With
    // finite slots whose sum overflowed, this guard is the only one to see
    // that the state has left the representable range.
    const bool reported = std::any_of(
        out.begin(), out.end(),
        [](const analysis::Diagnostic& d) { return d.rule_id == "RS001"; });
    if (!reported) {
      std::ostringstream what;
      what << "global mass is non-finite (" << mass << ")";
      rs002(what);
    }
  } else if (closed_system_) {
    const double tol =
        resilience::conserved_mass_tolerance(total_values(), steps_done_);
    const double drift = std::abs(mass - initial_mass_);
    if (drift > tol) {
      std::ostringstream what;
      what << "closed-system mass drift " << drift << " exceeds tolerance "
           << tol << " (initial " << initial_mass_ << ", current " << mass
           << ")";
      rs002(what);
    }
  } else {
    const double base = std::max(std::abs(prev_mass_), 1e-300);
    const double jump = std::abs(mass - prev_mass_) / base;
    if (jump > resilience::kMassStepRel) {
      std::ostringstream what;
      what << "global mass jumped " << jump * 100.0 << "% in one step (limit "
           << resilience::kMassStepRel * 100.0
           << "%); boundary fluxes cannot move mass that fast";
      rs002(what);
    }
  }
  return out;
}

void DistributedSolver::take_snapshot() {
  snapshot_.step = steps_done_;
  snapshot_.prev_mass = prev_mass_;
  snapshot_.state.resize(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r)
    snapshot_.state[r].resize(ranks_[r].row_values());
  copy_snapshot_rows(/*to_snapshot=*/true);
  ++stats_.snapshots;
}

void DistributedSolver::copy_snapshot_rows(bool to_snapshot) {
  struct RankRows {
    const double* from = nullptr;
    double* to = nullptr;
    std::size_t row = 0;  // values per q-row
  };
  std::vector<RankRows> rows;
  rows.reserve(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    double* live = ranks_[r].current();
    double* saved = snapshot_.state[r].data();
    rows.push_back(RankRows{to_snapshot ? live : saved,
                            to_snapshot ? saved : live,
                            static_cast<std::size_t>(ranks_[r].owned)});
  }
  // Work-item k copies q-row k % kQ of rank k / kQ: disjoint destinations.
  const RankRows* copies = rows.data();
  hal::launch(model_, static_cast<std::int64_t>(rows.size()) * lbm::kQ,
              [=](std::int64_t k) {
                const RankRows& r = copies[k / lbm::kQ];
                const std::size_t at =
                    static_cast<std::size_t>(k % lbm::kQ) * r.row;
                std::copy_n(r.from + at, r.row, r.to + at);
              });
}

void DistributedSolver::rollback_or_fault(const std::string& why) {
  staged_payloads_.clear();  // packed from the abandoned attempt's input
  if (snapshot_.step < 0 ||
      rollbacks_used_ >= resilience_->recovery.max_rollbacks) {
    std::ostringstream msg;
    msg << why << " — recovery budget exhausted (retransmits per exchange "
        << resilience_->recovery.max_retransmits << ", rollbacks "
        << rollbacks_used_ << "/" << resilience_->recovery.max_rollbacks
        << ") at step " << steps_done_;
    throw resilience::SolverFault(msg.str(), stats_.diagnostics);
  }
  ++rollbacks_used_;
  ++stats_.rollbacks;
  copy_snapshot_rows(/*to_snapshot=*/false);
  steps_done_ = snapshot_.step;
  prev_mass_ = snapshot_.prev_mass;
  // Traffic of the abandoned step must not leak into the replay.
  network_->reset();
  // The digests described the abandoned state; re-anchor on the restored
  // (verified-clean) snapshot.
  if (sentinel_on()) sentinel_record(audit_state());
}

// ---------------------------------------------------------------------------
// SDC sentinel (RS006): record/verify tile digests, duplicate re-execution
// vote-compare, bit-flip chaos injection, and the escalation glue.
// ---------------------------------------------------------------------------

void DistributedSolver::sentinel_record(
    const std::vector<resilience::TileAudit>& audits) {
  recorded_.resize(audits.size());
  for (std::size_t k = 0; k < audits.size(); ++k)
    recorded_[k] = audits[k].digest;
  recorded_step_ = steps_done_;
}

bool DistributedSolver::handle_sdc(const std::vector<std::size_t>& found,
                                   bool reexec) {
  if (found.empty()) return false;
  Rank quarantine = -1;
  for (const std::size_t k : found) {
    const Rank r = plan_.tiles[k].rank;
    int& hits = sdc_hits_[static_cast<std::size_t>(r)];
    ++stats_.sdc_detected;
    ++hits;
    resilience::SdcDetection d;
    d.rank = r;
    d.tile = static_cast<std::int64_t>(
        k - plan_.rank_first_tile[static_cast<std::size_t>(r)]);
    d.step = steps_done_;
    // A re-execution vote checks the step just taken.
    d.latency_steps = reexec ? 0 : steps_done_ - recorded_step_;
    d.reexec = reexec;
    stats_.sdc_detections.push_back(d);
    std::ostringstream where, msg;
    where << "rank " << r;
    msg << "step " << steps_done_ << ": silent data corruption in tile "
        << d.tile
        << (reexec ? " (duplicate re-execution vote-compare"
                   : " (digest mismatch vs record at step ");
    if (!reexec) msg << recorded_step_;
    msg << "); detection " << hits << " on this rank";
    record("RS006", analysis::Severity::kError, where.str(), msg.str());
    if (quarantine < 0 && hits >= resilience::kQuarantineThreshold)
      quarantine = r;
  }
  if (quarantine >= 0 && can_shrink()) {
    // Repeat offender: its memory keeps corrupting — retire the device.
    ++stats_.sdc_quarantines;
    shrink_to_survivors(quarantine);  // re-anchors the digests itself
    return true;
  }
  std::ostringstream why;
  why << "silent data corruption detected at step " << steps_done_;
  rollback_or_fault(why.str());  // re-anchors the digests itself
  return true;
}

bool DistributedSolver::reexec_vote_sample() {
  const int reexec_sample = resilience_->sentinel.reexec_sample;
  if (reexec_sample <= 0) return false;
  std::vector<std::size_t> found;
  for (Rank r = 0; r < partition_.n_ranks; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const std::span<const TileSpan> tiles = rank_share(plan_.tiles, r);
    if (tiles.empty()) continue;  // dead rank post-shrink
    const std::size_t values = rs.row_values();
    if (reexec_scratch_a_.size() < values) reexec_scratch_a_.resize(values);
    if (reexec_scratch_b_.size() < values) reexec_scratch_b_.resize(values);

    // Deterministic per-(step, rank) tile choice — a rollback replay of
    // the same step samples the same tiles.
    SplitMix64 rng(0x53444353414D50ull ^
                   (static_cast<std::uint64_t>(steps_done_) *
                    0x9E3779B97F4A7C15ull) ^
                   static_cast<std::uint64_t>(r));
    const int samples = static_cast<int>(
        std::min(static_cast<std::size_t>(reexec_sample), tiles.size()));
    for (int s = 0; s < samples; ++s) {
      const std::size_t t = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(tiles.size())));
      const std::int64_t begin = tiles[t].begin;
      const std::int64_t end = tiles[t].end;
      // Re-execute twice independently; the two shadows vote against the
      // live result.
      rs.engine.recompute_range(options_, begin, end,
                                reexec_scratch_a_.data());
      rs.engine.recompute_range(options_, begin, end,
                                reexec_scratch_b_.data());

      bool votes_agree = true;
      bool matches_live = true;
      for (int q = 0; q < lbm::kQ && votes_agree; ++q) {
        const std::size_t row = static_cast<std::size_t>(q) *
                                static_cast<std::size_t>(rs.owned);
        for (std::int64_t i = begin; i < end; ++i) {
          const std::size_t at = row + static_cast<std::size_t>(i);
          std::uint64_t va = 0, vb = 0, vl = 0;
          std::memcpy(&va, &reexec_scratch_a_[at], sizeof va);
          std::memcpy(&vb, &reexec_scratch_b_[at], sizeof vb);
          std::memcpy(&vl, &rs.current()[at], sizeof vl);
          if (va != vb) {
            votes_agree = false;
            break;
          }
          if (va != vl) matches_live = false;
        }
      }
      ++stats_.sdc_checks;
      if (!votes_agree) {
        // The two shadows disagree with each other: the checker itself
        // glitched.  Retract, never escalate.
        ++stats_.sdc_false_positive;
        continue;
      }
      if (!matches_live)
        found.push_back(plan_.rank_first_tile[static_cast<std::size_t>(r)] +
                        t);
    }
  }
  return handle_sdc(found, /*reexec=*/true);
}

void DistributedSolver::apply_due_bit_flips() {
  while (resilience::FaultEvent* e =
             injected_faults_->match_bit_flip(steps_done_)) {
    // One-shot whether or not the point resolves (it may have belonged to
    // a rank that has since been shrunk away — the global index always
    // lands on some survivor, so in practice it resolves).
    e->fired = true;
    if (e->flip_point < 0 || e->flip_point >= global_->size()) continue;
    const auto gi = static_cast<PointIndex>(e->flip_point);
    const Rank r = partition_.owner[static_cast<std::size_t>(gi)];
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const std::int64_t li = local_of_[static_cast<std::size_t>(gi)];
    double& v = rs.current()[static_cast<std::size_t>(e->flip_q) *
                                 static_cast<std::size_t>(rs.owned) +
                             static_cast<std::size_t>(li)];
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= 1ull << e->flip_bit;
    std::memcpy(&v, &bits, sizeof bits);
    e->fired_rank = r;
    const std::span<const TileSpan> tiles = rank_share(plan_.tiles, r);
    e->fired_tile = std::partition_point(tiles.begin(), tiles.end(),
                                         [li](const TileSpan& t) {
                                           return t.end <= li;
                                         }) -
                    tiles.begin();
  }
}

bool DistributedSolver::can_shrink() const {
  return resilience_->shrink.enabled && snapshot_.step >= 0 &&
         survivor_count() - 1 >= resilience_->shrink.min_survivors;
}

template <class Visit>
void DistributedSolver::walk_row(std::span<double* const> per_rank, int q,
                                 Visit visit) const {
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const RankState& rs = ranks_[r];
    double* row = per_rank[r] + static_cast<std::size_t>(q) *
                                    static_cast<std::size_t>(rs.owned);
    for (std::int64_t li = 0; li < rs.owned; ++li)
      visit(row[li], static_cast<std::size_t>(
                         rs.owned_global[static_cast<std::size_t>(li)]));
  }
}

std::vector<double*> DistributedSolver::live_arrays() const {
  std::vector<double*> live;
  for (const RankState& rs : ranks_) live.push_back(rs.current());
  return live;
}

void DistributedSolver::shrink_to_survivors(Rank dead) {
  HEMO_EXPECTS(dead >= 0 && dead < partition_.n_ranks);
  HEMO_EXPECTS(alive_[static_cast<std::size_t>(dead)]);
  staged_payloads_.clear();  // packed on the old decomposition

  // Recover the last consistent global state while the old decomposition
  // is still in place, then retire the rank: roll every rank back to the
  // snapshot, which holds the dead rank's pre-death state too, and gather.
  HEMO_EXPECTS(snapshot_.step >= 0);
  copy_snapshot_rows(/*to_snapshot=*/false);
  const std::vector<double> f = global_distributions();
  const std::int64_t resume_step = snapshot_.step;
  const double resume_prev_mass = snapshot_.prev_mass;

  alive_[static_cast<std::size_t>(dead)] = 0;
  ++stats_.rank_deaths;
  stats_.dead_ranks.push_back(dead);

  std::vector<Rank> survivors;
  survivors.reserve(alive_.size());
  for (Rank r = 0; r < partition_.n_ranks; ++r)
    if (alive_[static_cast<std::size_t>(r)]) survivors.push_back(r);

  // Re-bisect over the survivors (original rank ids kept; the dead ranks
  // own zero points), rebuild the halo plan, redistribute the state.
  partition_ =
      decomp::bisection_partition(*global_, partition_.n_ranks, survivors);
  build_decomposition();
  // The rows only: the first exchange after resumption fills the ghost
  // region before a kernel reads it.
  const auto n = static_cast<std::size_t>(global_->size());
  const std::vector<double*> live = live_arrays();
  for (int q = 0; q < lbm::kQ; ++q) {
    const double* row = f.data() + static_cast<std::size_t>(q) * n;
    walk_row(live, q, [row](double& slot, std::size_t g) { slot = row[g]; });
  }
  steps_done_ = resume_step;
  prev_mass_ = resume_prev_mass;

  // New epoch: the abandoned step's traffic and the rollback spend belong
  // to the dead decomposition.  The network keeps its permanent state (a
  // FaultyNetwork's dead ranks stay dead — they just no longer carry
  // traffic), and the fresh snapshot anchors future rollbacks to a state
  // that exists on the new decomposition.
  network_->reset();
  rollbacks_used_ = 0;
  suspect_rank_ = -1;
  suspect_count_ = 0;
  snapshot_ = Snapshot{};
  take_snapshot();
  // New decomposition, new tile geometry: old digests are meaningless.
  if (sentinel_on()) sentinel_record(audit_state());

  ++stats_.shrinks;
  stats_.last_recovery_step = resume_step;
  std::ostringstream msg;
  msg << "rank " << dead << " declared dead; re-bisected onto "
      << survivors.size() << " survivor(s), resuming at step " << resume_step
      << " (imbalance " << partition_.imbalance() << ")";
  record("RS005", analysis::Severity::kWarning, "shrink-recovery", msg.str());
}

void DistributedSolver::resilient_step() {
  const resilience::RecoveryPolicy& rec = resilience_->recovery;

  // In-memory chaos (kBitFlip) lands at the step boundary, inside the
  // sentinel's record/verify window — the same place a real cosmic-ray
  // flip in resident device memory would strike.
  if (injected_faults_ != nullptr) apply_due_bit_flips();

  const bool snapshot_due = steps_done_ % rec.checkpoint_interval == 0 &&
                            snapshot_.step != steps_done_;
  // The sentinel verifies the input on its check interval and always before
  // a snapshot, so rollback targets are verified-clean.
  const bool verify_due =
      sentinel_on() &&
      (snapshot_due ||
       steps_done_ % resilience_->sentinel.check_interval == 0);
  if (verify_due) {
    // One launch digests every tile's input, steps the interior tiles while
    // they are in cache and stages the halo payloads.  The interior output
    // waits in the spare buffers until the border tiles are stepped; a
    // rollback just drops it and the staged payloads.  The verdict comes
    // BEFORE any payload is sent and before the snapshot copies the state.
    step_tiles(TilePass::kInterior);
    const std::vector<std::size_t> found = resilience::verify_digests(
        recorded_, input_digests_,
        [this](std::size_t k) {
          const TileSpan& t = plan_.tiles[k];
          const RankState& rs = ranks_[static_cast<std::size_t>(t.rank)];
          return lbm::tile_digest(rs.current(), rs.owned, t.begin, t.end);
        },
        &stats_.sdc_checks, &stats_.sdc_false_positive);
    if (handle_sdc(found, /*reexec=*/false)) return;
  }
  if (snapshot_due) take_snapshot();

  network_->begin_step(steps_done_);
  Rank suspect = -1;
  if (!resilient_exchange(&suspect)) {
    // Deadline failure detector: consecutive failed attempts blamed on the
    // same unique totally-silent rank escalate it from transient to dead.
    if (suspect >= 0 && suspect == suspect_rank_) {
      ++suspect_count_;
    } else {
      suspect_rank_ = suspect;
      suspect_count_ = suspect >= 0 ? 1 : 0;
    }
    if (suspect >= 0 && can_shrink()) {
      const bool deadline_hit =
          suspect_count_ >= resilience::kDeathDeadline;
      const bool rollbacks_exhausted =
          rollbacks_used_ >= rec.max_rollbacks;
      if (deadline_hit || rollbacks_exhausted) {
        shrink_to_survivors(suspect);
        return;
      }
    }
    std::ostringstream why;
    why << "halo exchange failed beyond the retransmission budget at step "
        << steps_done_;
    rollback_or_fault(why.str());
    return;
  }
  suspect_rank_ = -1;
  suspect_count_ = 0;
  step_tiles(verify_due ? TilePass::kBorder : TilePass::kAll);
  commit_step();

  // Compute-SDC cross-check: the step's input still survives in each
  // rank engine's second buffer (the swap's other half), so sampled tiles
  // can be re-executed against the freshly written output while both
  // exist.
  if (sentinel_on() && reexec_vote_sample()) return;

  // The step launch's audits feed the guards, the mass reference and the
  // record.
  std::vector<analysis::Diagnostic> health = health_of(step_audits_);
  if (!health.empty()) {
    stats_.health_errors += static_cast<std::int64_t>(health.size());
    stats_.diagnostics.insert(stats_.diagnostics.end(), health.begin(),
                              health.end());
    std::ostringstream why;
    why << "numerical-health guard tripped after step " << steps_done_ - 1;
    rollback_or_fault(why.str());
    return;
  }
  prev_mass_ = mass_of(step_audits_);
  // Close the record/verify window: record the digests of the state the
  // step produced.  Anything that changes it before the next verify is
  // corruption.
  if (sentinel_on()) sentinel_record(step_audits_);
}

// ---------------------------------------------------------------------------
// Checkpoint / restart.
// ---------------------------------------------------------------------------

void DistributedSolver::save_checkpoint(const std::string& path) const {
  const std::vector<double*> live = live_arrays();
  std::vector<double> row(static_cast<std::size_t>(global_->size()));
  lbm::write_checkpoint(path, steps_done_, global_->size(), [&](int q) {
    walk_row(live, q, [&row](double& slot, std::size_t g) { row[g] = slot; });
    return row.data();
  });
}

void DistributedSolver::restore_checkpoint(const std::string& path) {
  // All or nothing: each row is scattered into the ranks' spare pull
  // buffers, which the next step overwrites anyway, and the live state
  // changes only once the whole file has passed.
  std::vector<double*> spare;
  for (RankState& rs : ranks_) spare.push_back(rs.spare());
  const std::int64_t step = lbm::read_checkpoint(
      path, global_->size(), [&](int q, const char* row) {
        walk_row(spare, q, [row](double& slot, std::size_t g) {
          std::memcpy(&slot, row + g * sizeof slot, sizeof slot);
        });
      });

  // The staged buffers become the live state, as a step's output does.
  // Their ghost regions are stale: the first exchange refreshes them before
  // a kernel reads them, as after a shrink.
  for (RankState& rs : ranks_) {
    rs.engine.commit();
    rs.engine.set_steps_done(step);
  }
  steps_done_ = step;
  // The restored state is the mass reference, the sentinel's record and,
  // under resilience, the rollback target.
  snapshot_ = Snapshot{};
  const std::vector<resilience::TileAudit> audits = audit_state();
  initial_mass_ = prev_mass_ = mass_of(audits);
  if (sentinel_on()) sentinel_record(audits);
  // The file passed its CRC checks: it is the rollback target until the
  // next snapshot boundary, which may be several steps away.
  if (resilience_.has_value()) take_snapshot();
}

// ---------------------------------------------------------------------------

std::vector<analysis::Diagnostic> DistributedSolver::validate() const {
  std::vector<analysis::Diagnostic> out = analysis::check_lattice(*global_);
  {
    std::vector<analysis::Diagnostic> part =
        analysis::check_partition(*global_, partition_);
    out.insert(out.end(), part.begin(), part.end());
  }

  // The live exchange lists, viewed as a halo plan, must agree with the
  // plan recomputed from the current partition (LC008) and must not route
  // traffic through ranks the partition does not populate (LC011) — the
  // stale-plan hazard of a shrink that forgot to rebuild its exchanges.
  {
    decomp::HaloPlan as_plan;
    as_plan.messages.reserve(exchanges_.size());
    for (const Exchange& e : exchanges_)
      as_plan.messages.push_back(decomp::HaloMessage{
          e.src, e.dst, static_cast<std::int64_t>(e.q.size())});
    std::vector<analysis::Diagnostic> plan_diags =
        analysis::check_halo_plan(*global_, partition_, as_plan);
    out.insert(out.end(), plan_diags.begin(), plan_diags.end());
  }

  // Exchange-level invariants: every pack slot reads a point the sender
  // owns, and every payload lands inside the receiving rank's ghost region.
  // A payload landing on the rows means the halo exchange overlaps the
  // interior update of the same step — the distributed analogue of the
  // push-streaming write-write race.
  auto emit = [&out](const std::string& message) {
    out.push_back(analysis::Diagnostic{
        "LC009", analysis::Severity::kError, "halo-exchange", 0, message,
        "rebuild the exchange lists from the current partition"});
  };
  for (const Exchange& e : exchanges_) {
    std::ostringstream name;
    name << "exchange " << e.src << " -> " << e.dst;
    if (e.src < 0 || e.src >= partition_.n_ranks || e.dst < 0 ||
        e.dst >= partition_.n_ranks || e.src == e.dst) {
      emit("malformed " + name.str());
      continue;
    }
    const RankState& src = ranks_[static_cast<std::size_t>(e.src)];
    const RankState& dst = ranks_[static_cast<std::size_t>(e.dst)];
    for (std::size_t k = 0; k < e.q.size(); ++k) {
      const std::string at = name.str() + ", entry " + std::to_string(k);
      if (e.q[k] < 1 || e.q[k] >= lbm::kQ)
        emit(at + ": direction out of range");
      if (e.src_local[k] < 0 || e.src_local[k] >= src.owned)
        emit(at + ": pack slot is not an interior point of the sending rank");
    }
    const auto region_begin = static_cast<std::int64_t>(dst.row_values());
    const auto region_end = static_cast<std::int64_t>(dst.f_a.size());
    const auto end = e.landing + static_cast<std::int64_t>(e.q.size());
    if (e.landing < region_begin || end > region_end) {
      std::ostringstream msg;
      msg << name.str() << ": landing range [" << e.landing << ", " << end
          << ") is not inside the receiving rank's ghost region ["
          << region_begin << ", " << region_end << ")";
      emit(msg.str());
    }
  }

  // Cross-exchange auditability (LC010): a slot two payloads land on makes
  // CRC frame failures unattributable to a sender and the final value
  // order-dependent.  The landing slots are flat indices, given as row 0.
  std::vector<std::int64_t> landed;
  for (const Exchange& e : exchanges_)
    for (std::size_t k = 0; k < e.q.size(); ++k)
      landed.push_back(e.landing + static_cast<std::int64_t>(k));
  const std::vector<int> row0(landed.size(), 0);
  std::vector<analysis::ExchangeSlots> views;
  for (std::size_t x = 0, first = 0; x < exchanges_.size(); ++x) {
    const Exchange& e = exchanges_[x];
    views.push_back(analysis::ExchangeSlots{
        e.src, e.dst, row0.data(), landed.data() + first,
        static_cast<std::int64_t>(e.q.size())});
    first += e.q.size();
  }
  std::vector<analysis::Diagnostic> audit =
      analysis::check_exchange_auditability(views);
  out.insert(out.end(), audit.begin(), audit.end());
  return out;
}

void DistributedSolver::set_inlet_velocity(double velocity) {
  HEMO_EXPECTS(std::abs(velocity) < 1.0);
  options_.inlet_velocity = velocity;
}

std::vector<double> DistributedSolver::global_distributions() const {
  const auto n = static_cast<std::size_t>(global_->size());
  std::vector<double> out(static_cast<std::size_t>(lbm::kQ) * n);
  const std::vector<double*> live = live_arrays();
  for (int q = 0; q < lbm::kQ; ++q) {
    double* row = out.data() + static_cast<std::size_t>(q) * n;
    walk_row(live, q, [row](double& slot, std::size_t g) { row[g] = slot; });
  }
  return out;
}

lbm::Moments DistributedSolver::global_moments(PointIndex global_index) const {
  HEMO_EXPECTS(global_index >= 0 && global_index < global_->size());
  const Rank r = partition_.owner[static_cast<std::size_t>(global_index)];
  const RankState& rs = ranks_[static_cast<std::size_t>(r)];
  return lbm::moments_at(rs.current(), rs.owned,
                        local_of_[static_cast<std::size_t>(global_index)],
                        options_.body_force);
}

double DistributedSolver::total_mass() const {
  return mass_of(audit_state());
}

std::int64_t DistributedSolver::owned_count(Rank r) const {
  HEMO_EXPECTS(r >= 0 && r < partition_.n_ranks);
  return ranks_[static_cast<std::size_t>(r)].owned;
}

int DistributedSolver::survivor_count() const {
  int n = 0;
  for (char a : alive_) n += (a != 0);
  return n;
}

bool DistributedSolver::rank_alive(Rank r) const {
  HEMO_EXPECTS(r >= 0 && r < partition_.n_ranks);
  return alive_[static_cast<std::size_t>(r)] != 0;
}

}  // namespace hemo::harvey
