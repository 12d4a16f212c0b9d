// SDC sentinel on the distributed solver: an injected in-memory bit flip
// must be detected, localized to the exact {rank, tile} it struck, rolled
// back, and the run must finish bit-identical to the clean reference —
// with the one-shot fault never re-firing on the rollback replay, the
// RunStats counters monotone, repeated hits quarantining the failing rank
// through the RS005 shrink path, and a clean run under full sentinel
// instrumentation staying detection-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "comm/network.hpp"
#include "decomp/partition.hpp"
#include "geom/cylinder.hpp"
#include "harvey/distributed_solver.hpp"
#include "hal/device.hpp"
#include "io/blob.hpp"
#include "resilience/fault.hpp"
#include "resilience/faulty_network.hpp"
#include "resilience/policy.hpp"
#include "recording_network.hpp"
#include "solver_peer.hpp"

namespace decomp = hemo::decomp;
namespace geom = hemo::geom;
namespace lbm = hemo::lbm;
namespace hal = hemo::hal;
namespace resilience = hemo::resilience;
using hemo::Rank;
using hemo::harvey::DistributedSolver;
using hemo::harvey::DistributedSolverPeer;
using hemo::harvey::RecordingNetwork;

namespace {

constexpr int kRanks = 4;
constexpr int kSteps = 16;
constexpr std::int64_t kTilePoints = 64;

std::shared_ptr<lbm::SparseLattice> small_cylinder() {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 16.0;
  return geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
}

lbm::SolverOptions flow_options() {
  lbm::SolverOptions o;
  o.tau = 0.9;
  o.inlet_velocity = 0.01;
  o.outlet_density = 1.0;
  return o;
}

std::vector<double> clean_run(int ranks, int steps) {
  auto lattice = small_cylinder();
  DistributedSolver solver(lattice, decomp::slab_partition(*lattice, ranks),
                           flow_options());
  solver.run(steps);
  return solver.global_distributions();
}

resilience::Options sentinel_options() {
  resilience::Options o;
  o.recovery.checkpoint_interval = 4;
  o.sentinel.enabled = true;
  o.sentinel.tile_points = kTilePoints;
  return o;
}

resilience::FaultEvent bit_flip_at(std::int64_t step, std::int64_t point,
                                   int q, int bit) {
  resilience::FaultEvent e;
  e.kind = resilience::FaultKind::kBitFlip;
  e.step = step;
  e.flip_point = point;
  e.flip_q = q;
  e.flip_bit = bit;
  return e;
}

bool has_rule(const std::vector<hemo::analysis::Diagnostic>& diags,
              const std::string& rule) {
  for (const auto& d : diags)
    if (d.rule_id == rule) return true;
  return false;
}

void expect_bit_identical(const std::vector<double>& state,
                          const std::vector<double>& reference) {
  ASSERT_EQ(state.size(), reference.size());
  for (std::size_t k = 0; k < state.size(); ++k)
    ASSERT_EQ(state[k], reference[k]) << "diverged at flat index " << k;
}

}  // namespace

TEST(SentinelSolver, DetectsLocalizesAndRecoversAnInjectedFlip) {
  // A flip mid-lattice on 4 ranks, then flips at the last point of rank 1,
  // in its last, short tile, on 2 and 5 ranks with tile sizes that do not
  // divide the rank's point count.
  struct Case {
    int ranks;
    std::int64_t tile_points;
    bool last_tile;
  };
  const Case cases[] = {{kRanks, kTilePoints, false},
                        {2, 48, true},
                        {2, 100, true},
                        {5, 48, true},
                        {5, 100, true}};
  for (const Case& c : cases) {
    const std::string label = std::to_string(c.ranks) + " ranks, " +
                              std::to_string(c.tile_points) + "-point tiles";
    const std::vector<double> reference = clean_run(c.ranks, kSteps);

    auto lattice = small_cylinder();
    const decomp::Partition partition =
        decomp::slab_partition(*lattice, c.ranks);
    DistributedSolver solver(lattice, partition, flow_options());
    std::int64_t point = lattice->size() / 2;
    if (c.last_tile) {
      // The point at local slot owned - 1 of rank 1.
      const std::vector<hemo::PointIndex>& owned =
          DistributedSolverPeer::owned_global(solver, 1);
      const auto n = static_cast<std::int64_t>(owned.size());
      ASSERT_NE(n % c.tile_points, 0) << label;
      point = owned.back();
    }
    resilience::FaultPlan plan;
    plan.add(bit_flip_at(/*step=*/6, point, /*q=*/7, /*bit=*/44));
    solver.set_fault_injection(&plan);
    resilience::Options options = sentinel_options();
    options.sentinel.tile_points = c.tile_points;
    solver.enable_resilience(options);

    solver.run(kSteps);

    // The flip fired exactly once and stamped its ground truth.
    const resilience::FaultEvent& fired = plan.events().front();
    ASSERT_TRUE(fired.fired) << label;
    ASSERT_GE(fired.fired_rank, 0) << label;
    ASSERT_GE(fired.fired_tile, 0) << label;
    if (c.last_tile) {
      const std::int64_t n = solver.owned_count(1);
      EXPECT_EQ(fired.fired_rank, 1) << label;
      EXPECT_EQ(fired.fired_tile, (n - 1) / c.tile_points) << label;
    }

    const resilience::RunStats& stats = solver.resilience_stats();
    EXPECT_EQ(stats.sdc_detected, 1) << label;
    EXPECT_EQ(stats.sdc_false_positive, 0) << label;
    EXPECT_GE(stats.rollbacks, 1) << label;
    EXPECT_GT(stats.sdc_checks, 0) << label;
    EXPECT_TRUE(has_rule(stats.diagnostics, "RS006")) << label;

    // Localization: the detection blames the rank and tile the flip
    // actually landed on, within one record/verify window of the event.
    ASSERT_EQ(stats.sdc_detections.size(), 1u) << label;
    const resilience::SdcDetection& d = stats.sdc_detections.front();
    EXPECT_EQ(d.rank, fired.fired_rank) << label;
    EXPECT_EQ(d.tile, fired.fired_tile) << label;
    EXPECT_GE(d.step, 6) << label;
    EXPECT_GE(d.latency_steps, 0) << label;
    EXPECT_LE(d.latency_steps, options.sentinel.check_interval) << label;
    EXPECT_FALSE(d.reexec) << label;

    expect_bit_identical(solver.global_distributions(), reference);
  }
}

TEST(SentinelSolver, BitFlipFiresOnASolverWithoutResilience) {
  // A registered kBitFlip lands at the start of its step whether or not
  // resilience is on.  Without it nothing detects the flip, so the run
  // ends away from a clean one.
  constexpr int kPlainRanks = 2;
  auto lattice = small_cylinder();
  const decomp::Partition partition =
      decomp::slab_partition(*lattice, kPlainRanks);
  DistributedSolver solver(lattice, partition, flow_options());
  const std::int64_t point = lattice->size() - 1;
  const Rank owner = partition.owner[static_cast<std::size_t>(point)];
  const std::vector<hemo::PointIndex>& owned =
      DistributedSolverPeer::owned_global(solver, owner);
  const std::int64_t local =
      std::find(owned.begin(), owned.end(), point) - owned.begin();
  const std::int64_t tile_points = resilience::SentinelPolicy{}.tile_points;
  ASSERT_LT(local, static_cast<std::int64_t>(owned.size()));
  ASSERT_GT(local / tile_points, 0);  // past the first tile

  resilience::FaultPlan plan;
  plan.add(bit_flip_at(/*step=*/3, point, /*q=*/7, /*bit=*/44));
  solver.set_fault_injection(&plan);
  solver.run(kSteps);

  const resilience::FaultEvent& fired = plan.events().front();
  EXPECT_TRUE(fired.fired);
  EXPECT_EQ(fired.fired_rank, owner);
  EXPECT_EQ(fired.fired_tile, local / tile_points);
  EXPECT_NE(solver.global_distributions(), clean_run(kPlainRanks, kSteps));
}

TEST(SentinelSolver, OneShotFlipNeverRefiresAndCountersStayMonotone) {
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice,
                           decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::FaultPlan plan;
  plan.add(bit_flip_at(/*step=*/6, lattice->size() / 3, /*q=*/3,
                       /*bit=*/40));
  solver.set_fault_injection(&plan);
  solver.enable_resilience(sentinel_options());

  // Step one at a time so every counter can be watched: the rollback
  // replay of step 6 must not re-fire the (one-shot) flip, so detections
  // stop at 1 and every counter is nondecreasing.
  resilience::RunStats last;
  for (int step = 0; step < kSteps; ++step) {
    solver.run(1);
    const resilience::RunStats& now = solver.resilience_stats();
    EXPECT_GE(now.sdc_checks, last.sdc_checks);
    EXPECT_GE(now.sdc_detected, last.sdc_detected);
    EXPECT_GE(now.sdc_false_positive, last.sdc_false_positive);
    EXPECT_GE(now.rollbacks, last.rollbacks);
    EXPECT_GE(now.snapshots, last.snapshots);
    last = now;
  }

  EXPECT_EQ(plan.fired_count(resilience::FaultKind::kBitFlip), 1);
  EXPECT_EQ(last.sdc_detected, 1);
  EXPECT_GE(last.rollbacks, 1);
  expect_bit_identical(solver.global_distributions(), reference);
}

TEST(SentinelSolver, CorruptFaultStaysOneShotAcrossRollback) {
  // With no retransmit budget, the CRC-caught corrupted halo payload
  // cannot be repaired on the wire and forces the rollback path.  The
  // replay must not re-corrupt (one-shot), so one rollback suffices and
  // the run still ends bit-identical.
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice,
                           decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::FaultEvent e;
  e.kind = resilience::FaultKind::kCorrupt;
  e.step = 6;
  const auto edge = solver.exchange_pairs().front();
  e.src = edge.first;
  e.dst = edge.second;
  resilience::FaultPlan plan;
  plan.add(e);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, plan));

  resilience::Options options = sentinel_options();
  options.recovery.max_retransmits = 0;
  solver.enable_resilience(options);

  solver.run(kSteps);

  const auto* net =
      dynamic_cast<const resilience::FaultyNetwork*>(&solver.network());
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(net->plan().fired_count(resilience::FaultKind::kCorrupt), 1);
  EXPECT_EQ(solver.resilience_stats().crc_mismatch, 1);
  EXPECT_GE(solver.resilience_stats().rollbacks, 1);
  expect_bit_identical(solver.global_distributions(), reference);
}

TEST(SentinelSolver, RepeatedHitsQuarantineTheFailingRank) {
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  const decomp::Partition partition =
      decomp::slab_partition(*lattice, kRanks);

  // kQuarantineThreshold flips aimed at points owned by the same rank: the
  // last detection reaches the threshold and retires the rank through the
  // shrink path instead of rolling back forever.
  static_assert(resilience::kQuarantineThreshold == 3);
  const Rank victim = partition.owner.front();
  std::vector<std::int64_t> victim_points;
  for (std::int64_t gi = 0;
       gi < static_cast<std::int64_t>(partition.owner.size()) &&
       victim_points.size() < 3;
       ++gi)
    if (partition.owner[static_cast<std::size_t>(gi)] == victim)
      victim_points.push_back(gi);
  ASSERT_EQ(victim_points.size(), 3u);

  DistributedSolver solver(lattice, partition, flow_options());
  resilience::FaultPlan plan;
  plan.add(bit_flip_at(/*step=*/3, victim_points[0], /*q=*/5, /*bit=*/41));
  plan.add(bit_flip_at(/*step=*/6, victim_points[1], /*q=*/2, /*bit=*/33));
  plan.add(bit_flip_at(/*step=*/10, victim_points[2], /*q=*/8, /*bit=*/50));
  solver.set_fault_injection(&plan);

  resilience::Options options = sentinel_options();
  options.shrink.enabled = true;
  options.recovery.max_rollbacks = 8;
  solver.enable_resilience(options);

  solver.run(kSteps);

  const resilience::RunStats& stats = solver.resilience_stats();
  EXPECT_EQ(stats.sdc_detected, 3);
  EXPECT_EQ(stats.sdc_quarantines, 1);
  EXPECT_GE(stats.shrinks, 1);
  EXPECT_EQ(solver.survivor_count(), kRanks - 1);
  expect_bit_identical(solver.global_distributions(), reference);
}

TEST(SentinelSolver, FullInstrumentationStaysQuietOnACleanRun) {
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  DistributedSolver solver(lattice,
                           decomp::slab_partition(*lattice, kRanks),
                           flow_options());
  resilience::Options options = sentinel_options();
  options.sentinel.reexec_sample = 2;  // duplicate re-execution armed
  solver.enable_resilience(options);

  solver.run(kSteps);

  const resilience::RunStats& stats = solver.resilience_stats();
  EXPECT_GT(stats.sdc_checks, 0);
  EXPECT_EQ(stats.sdc_detected, 0);
  EXPECT_EQ(stats.sdc_false_positive, 0);
  EXPECT_EQ(stats.rollbacks, 0);
  EXPECT_FALSE(has_rule(stats.diagnostics, "RS006"));
  expect_bit_identical(solver.global_distributions(), reference);
}

namespace {

/// The first point of the first kTilePoints-point tile of rank r that is a
/// border tile (`border`: it holds a point with an upstream neighbour on
/// another rank) or an interior tile (`!border`); -1 if there is none.  The
/// tiles cut rank r's points in the local order of a solver over the
/// partition.
std::int64_t first_point_of_tile(const lbm::SparseLattice& lattice,
                                 const decomp::Partition& partition, Rank r,
                                 bool border) {
  const DistributedSolver solver(
      std::make_shared<const lbm::SparseLattice>(lattice), partition,
      flow_options());
  const std::vector<hemo::PointIndex>& owned =
      DistributedSolverPeer::owned_global(solver, r);
  for (std::size_t begin = 0; begin < owned.size(); begin += kTilePoints) {
    const std::size_t end =
        std::min(begin + static_cast<std::size_t>(kTilePoints), owned.size());
    bool reads_ghost = false;
    for (std::size_t li = begin; li < end; ++li)
      for (int q = 1; q < lbm::kQ; ++q) {
        const hemo::PointIndex up = lattice.neighbor(q, owned[li]);
        if (up != hemo::kSolidNeighbor &&
            partition.owner[static_cast<std::size_t>(up)] != r)
          reads_ghost = true;
      }
    if (reads_ghost == border) return owned[begin];
  }
  return -1;
}

}  // namespace

TEST(SentinelSolver, DetectingStepSendsNoHaloTrafficAndTakesNoSnapshot) {
  // The sentinel's verdict on a step's input comes before the halo pack
  // reads it and before a snapshot copies it.  A flip in an interior tile
  // (step 6) and one in a border tile (step 8, a snapshot step) are each
  // detected by a step call that puts nothing on the wire and takes no
  // snapshot; the run then ends bit-identical to a clean one.
  const std::vector<double> reference = clean_run(kRanks, kSteps);

  auto lattice = small_cylinder();
  const decomp::Partition partition =
      decomp::slab_partition(*lattice, kRanks);
  const std::int64_t interior_point =
      first_point_of_tile(*lattice, partition, 1, /*border=*/false);
  const std::int64_t border_point =
      first_point_of_tile(*lattice, partition, 2, /*border=*/true);
  ASSERT_GE(interior_point, 0);
  ASSERT_GE(border_point, 0);
  static_assert(kSteps > 8);
  ASSERT_EQ(8 % sentinel_options().recovery.checkpoint_interval, 0);
  ASSERT_NE(6 % sentinel_options().recovery.checkpoint_interval, 0);

  DistributedSolver solver(lattice, partition, flow_options());
  resilience::FaultPlan plan;
  plan.add(bit_flip_at(/*step=*/6, interior_point, /*q=*/4, /*bit=*/43));
  plan.add(bit_flip_at(/*step=*/8, border_point, /*q=*/11, /*bit=*/38));
  solver.set_fault_injection(&plan);
  solver.enable_resilience(sentinel_options());

  std::vector<std::int64_t> detected_at;
  while (solver.step_count() < kSteps) {
    const std::int64_t step = solver.step_count();
    const std::int64_t messages = solver.network().message_count();
    const resilience::RunStats before = solver.resilience_stats();
    solver.step();
    const resilience::RunStats& after = solver.resilience_stats();
    if (after.sdc_detected == before.sdc_detected) continue;
    detected_at.push_back(step);
    EXPECT_EQ(solver.network().message_count(), messages) << "step " << step;
    EXPECT_EQ(after.snapshots, before.snapshots) << "step " << step;
    EXPECT_EQ(after.rollbacks, before.rollbacks + 1) << "step " << step;
  }

  EXPECT_EQ(detected_at, (std::vector<std::int64_t>{6, 8}));
  ASSERT_EQ(solver.resilience_stats().sdc_detections.size(), 2u);
  EXPECT_EQ(solver.resilience_stats().sdc_detections[0].rank, 1);
  EXPECT_EQ(solver.resilience_stats().sdc_detections[1].rank, 2);
  expect_bit_identical(solver.global_distributions(), reference);
}

// ---------------------------------------------------------------------------
// Chaos parity: the seeded bit-flip campaign of `hemo_chaos --sdc --ranks 4
// --steps 24 --seed 7 --flips 6` (the default 5 x 24 cylinder, slab
// partition), under several dialects, engine thread counts and tile
// sizes.  Every detection (rank, tile, step, latency), the rollback and
// snapshot counts and the health errors are pinned to the values the
// separate post-step audit produced, so moving the audit into the step
// launch cannot move a single verdict.

namespace {

struct ChaosCase {
  const char* name;
  std::optional<hal::Model> model;
  int threads;
  std::int64_t tile_points;
  // In place of the bit-flip campaign: one fault of every wire kind, a
  // verify every 4th step, and an exponent flip on an unverified step,
  // which only the health guards see.
  bool wire_faults;
  const char* golden;
};

/// Sets the process-wide device engine's thread count for its lifetime.
class EngineThreads {
 public:
  explicit EngineThreads(int threads) {
    hal::DeviceEngine::instance().set_threads(threads);
  }
  ~EngineThreads() { hal::DeviceEngine::instance().set_threads(1); }
  EngineThreads(const EngineThreads&) = delete;
  EngineThreads& operator=(const EngineThreads&) = delete;
};

std::string chaos_summary(const resilience::RunStats& s) {
  std::ostringstream out;
  for (const resilience::SdcDetection& d : s.sdc_detections)
    out << "r" << d.rank << " t" << d.tile << " s" << d.step << " l"
        << d.latency_steps << (d.reexec ? " x" : "") << "; ";
  out << "checks " << s.sdc_checks << ", rollbacks " << s.rollbacks
      << ", snapshots " << s.snapshots << ", health_errors "
      << s.health_errors << ", false_positives " << s.sdc_false_positive;
  return out.str();
}

}  // namespace

TEST(SentinelSolver, SeededSdcCampaignMatchesGoldenRunStats) {
  constexpr int kChaosRanks = 4;
  constexpr int kChaosSteps = 24;
  constexpr int kFlips = 6;
  constexpr const char* k256 =
      "r0 t1 s6 l0; r0 t0 s7 l0; r2 t0 s7 l0; r2 t1 s10 l0; r1 t1 s15 l0; "
      "r2 t1 s17 l0; checks 424, rollbacks 4, snapshots 4, health_errors 0, "
      "false_positives 0";
  const ChaosCase cases[] = {
      {"host loops, 256-point tiles", std::nullopt, 1, 256, false, k256},
      {"hipx, 2 threads, 256-point tiles", hal::Model::kHip, 2, 256, false,
       k256},
      {"kokkosx, 3 threads, 100-point tiles", hal::Model::kKokkosHip, 3, 100,
       false,
       "r0 t3 s6 l0; r0 t0 s7 l0; r2 t1 s7 l0; r2 t4 s10 l0; r1 t4 s15 l0; "
       "r2 t4 s17 l0; checks 1048, rollbacks 4, snapshots 4, health_errors 0, "
       "false_positives 0"},
      {"cudax, 2 threads, 48-point tiles", hal::Model::kCuda, 2, 48, false,
       "r0 t6 s6 l0; r0 t1 s7 l0; r2 t3 s7 l0; r2 t9 s10 l0; r1 t9 s15 l0; "
       "r2 t8 s17 l0; checks 2096, rollbacks 4, snapshots 4, health_errors 0, "
       "false_positives 0"},
      {"host loops, wire faults", std::nullopt, 1, 256, true,
       "checks 72, rollbacks 2, snapshots 3, health_errors 1, "
       "false_positives 0"},
      {"syclx, 3 threads, 100-point tiles, wire faults", hal::Model::kSycl, 3,
       100, true,
       "checks 180, rollbacks 2, snapshots 3, health_errors 1, "
       "false_positives 0"},
  };
  geom::CylinderSpec spec;
  spec.radius_per_scale = 5.0;
  spec.axial_per_scale = 24.0;
  auto lattice =
      geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
  const decomp::Partition partition =
      decomp::slab_partition(*lattice, kChaosRanks);
  DistributedSolver clean(lattice, partition, flow_options());
  clean.run(kChaosSteps);

  for (const ChaosCase& c : cases) {
    const EngineThreads engine_threads(c.threads);
    resilience::FaultPlan plan = resilience::FaultPlan::bit_flips(
        /*seed=*/7, kChaosSteps, lattice->size(), kFlips);
    DistributedSolver solver(lattice, partition, flow_options());
    resilience::Options options;  // as hemo_chaos --sdc arms it
    resilience::FaultPlan* live_plan = &plan;
    if (c.wire_faults) {
      resilience::FaultPlan wire = resilience::FaultPlan::random(
          /*seed=*/11, kChaosSteps, solver.exchange_pairs(),
          {std::begin(resilience::kAllFaultKinds),
           std::end(resilience::kAllFaultKinds)},
          /*events_per_kind=*/1);
      wire.add(bit_flip_at(/*step=*/13, lattice->size() / 2, /*q=*/0,
                           /*bit=*/62));
      auto network = std::make_unique<resilience::FaultyNetwork>(
          kChaosRanks, std::move(wire));
      live_plan = &network->plan();
      solver.set_network(std::move(network));
      options.sentinel.check_interval = 4;
    }
    if (c.model) solver.set_execution_model(*c.model);
    solver.set_fault_injection(live_plan);
    options.recovery.max_rollbacks += kFlips;
    options.shrink.enabled = true;
    options.sentinel.enabled = true;
    options.sentinel.tile_points = c.tile_points;
    solver.enable_resilience(options);
    solver.run(kChaosSteps);

    EXPECT_EQ(chaos_summary(solver.resilience_stats()), c.golden) << c.name;
    expect_bit_identical(solver.global_distributions(),
                         clean.global_distributions());
  }
}

// ---------------------------------------------------------------------------
// Staged payloads: a verifying step's first launch packs every exchange's
// framed payload, and the exchange sends those after the verdict.  What the
// wire carries must be exactly what a pack of the step's input would give.

namespace {

/// Exchange x's values gathered from a global_distributions() state,
/// followed by their CRC-32 frame word.
std::vector<double> fresh_pack(const DistributedSolverPeer::Exchange& x,
                               const std::vector<double>& state,
                               std::int64_t n) {
  std::vector<double> payload;
  for (std::size_t k = 0; k < x.q.size(); ++k)
    payload.push_back(state[static_cast<std::size_t>(x.q[k]) *
                                static_cast<std::size_t>(n) +
                            static_cast<std::size_t>(x.source[k])]);
  payload.push_back(static_cast<double>(hemo::io::crc32(
      payload.data(), x.q.size() * sizeof(double))));
  return payload;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Steps `solver` once and checks that every payload the step call sent
/// for exchange x is the fresh pack of the state before the call.  Returns
/// the number of payloads the call sent.
std::size_t step_and_check_payloads(DistributedSolver& solver,
                                    const RecordingNetwork& network,
                                    const std::string& label) {
  const std::vector<double> before = solver.global_distributions();
  const std::int64_t n = static_cast<std::int64_t>(before.size()) / lbm::kQ;
  const std::vector<DistributedSolverPeer::Exchange> exchanges =
      DistributedSolverPeer::exchanges(solver);
  const std::size_t first = network.sent.size();
  const std::int64_t step = solver.step_count();
  solver.step();
  for (std::size_t m = first; m < network.sent.size(); ++m) {
    const auto& sent = network.sent[m];
    const auto x = std::find_if(
        exchanges.begin(), exchanges.end(),
        [&](const DistributedSolverPeer::Exchange& e) {
          return e.src == sent.src && e.dst == sent.dst;
        });
    EXPECT_NE(x, exchanges.end()) << label << ", step " << step;
    if (x == exchanges.end()) continue;
    EXPECT_TRUE(same_bytes(sent.payload, fresh_pack(*x, before, n)))
        << label << ", step " << step << ", exchange " << sent.src << " -> "
        << sent.dst;
  }
  return network.sent.size() - first;
}

}  // namespace

TEST(SentinelSolver, StagedPayloadsEqualAFreshPackOfTheInput) {
  auto lattice = small_cylinder();
  const decomp::Partition partition =
      decomp::slab_partition(*lattice, kRanks);

  {
    // Every step verifies (check_interval 1): every payload was staged by
    // the interior launch and sent in exchange order.
    DistributedSolver solver(lattice, partition, flow_options());
    auto owned = std::make_unique<RecordingNetwork>(
        std::make_unique<hemo::comm::Network>(kRanks));
    const auto& network = *owned;
    solver.set_network(std::move(owned));
    solver.enable_resilience(sentinel_options());
    const std::vector<DistributedSolverPeer::Exchange> exchanges =
        DistributedSolverPeer::exchanges(solver);
    ASSERT_FALSE(exchanges.empty());
    for (int step = 0; step < 8; ++step) {
      const std::size_t first = network.sent.size();
      ASSERT_EQ(step_and_check_payloads(solver, network, "verifying"),
                exchanges.size());
      for (std::size_t x = 0; x < exchanges.size(); ++x) {
        EXPECT_EQ(network.sent[first + x].src, exchanges[x].src);
        EXPECT_EQ(network.sent[first + x].dst, exchanges[x].dst);
      }
    }
  }

  {
    // Verify every 3rd step and snapshot every 4th: a flip at step 6 is
    // detected there and rolls back to step 4, which does not verify.  That
    // replay packs at send time from the restored state; sending the
    // dropped staged set would carry step 6's input.
    DistributedSolver solver(lattice, partition, flow_options());
    auto owned = std::make_unique<RecordingNetwork>(
        std::make_unique<hemo::comm::Network>(kRanks));
    const auto& network = *owned;
    solver.set_network(std::move(owned));
    resilience::FaultPlan plan;
    plan.add(bit_flip_at(/*step=*/6, lattice->size() / 2, /*q=*/7,
                         /*bit=*/44));
    solver.set_fault_injection(&plan);
    resilience::Options options = sentinel_options();
    options.sentinel.check_interval = 3;
    ASSERT_EQ(options.recovery.checkpoint_interval, 4);
    solver.enable_resilience(options);
    const std::size_t exchanges =
        DistributedSolverPeer::exchanges(solver).size();

    bool replayed = false;
    while (solver.step_count() < 10) {
      const std::int64_t detected = solver.resilience_stats().sdc_detected;
      const std::size_t sent =
          step_and_check_payloads(solver, network, "check_interval 3");
      if (solver.resilience_stats().sdc_detected == detected) continue;
      EXPECT_EQ(sent, 0u);
      ASSERT_EQ(solver.step_count(), 4);
      ASSERT_NE(solver.step_count() % options.sentinel.check_interval, 0);
      EXPECT_EQ(step_and_check_payloads(solver, network, "replay"),
                exchanges);
      replayed = true;
    }
    EXPECT_TRUE(replayed);
    EXPECT_EQ(solver.resilience_stats().sdc_detected, 1);
  }

  {
    // A payload corrupted on the wire is retransmitted from the sender's
    // intact state: byte-equal to the staged original.
    DistributedSolver solver(lattice, partition, flow_options());
    resilience::FaultEvent e;
    e.kind = resilience::FaultKind::kCorrupt;
    e.step = 5;
    const auto edge = solver.exchange_pairs().front();
    e.src = edge.first;
    e.dst = edge.second;
    resilience::FaultPlan plan;
    plan.add(e);
    auto owned = std::make_unique<RecordingNetwork>(
        std::make_unique<resilience::FaultyNetwork>(kRanks, plan));
    const auto& network = *owned;
    solver.set_network(std::move(owned));
    solver.enable_resilience(sentinel_options());
    while (solver.step_count() < 8)
      step_and_check_payloads(solver, network, "corrupted wire");

    EXPECT_EQ(solver.resilience_stats().crc_mismatch, 1);
    EXPECT_EQ(solver.resilience_stats().retransmits, 1);
    std::vector<std::vector<double>> on_edge;
    for (const auto& sent : network.sent)
      if (sent.step == 5 && sent.src == edge.first && sent.dst == edge.second)
        on_edge.push_back(sent.payload);
    ASSERT_EQ(on_edge.size(), 2u);
    EXPECT_TRUE(same_bytes(on_edge[0], on_edge[1]));
  }
}
