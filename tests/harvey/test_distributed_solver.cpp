// DistributedSolver tests: multi-rank runs must be bit-identical to the
// single-domain reference for both decomposition strategies and both
// geometries, and the message traffic must match the halo plan exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "comm/network.hpp"
#include "decomp/partition.hpp"
#include "geom/aorta.hpp"
#include "geom/cylinder.hpp"
#include "hal/device.hpp"
#include "harvey/distributed_solver.hpp"
#include "lbm/hemodynamics.hpp"
#include "lbm/solver.hpp"
#include "resilience/fault.hpp"
#include "resilience/faulty_network.hpp"
#include "resilience/policy.hpp"
#include "recording_network.hpp"
#include "solver_peer.hpp"

namespace decomp = hemo::decomp;
namespace geom = hemo::geom;
namespace lbm = hemo::lbm;
namespace resilience = hemo::resilience;
using hemo::harvey::DistributedSolver;

namespace {

std::shared_ptr<lbm::SparseLattice> cylinder_workload() {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 16.0;
  return geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
}

std::shared_ptr<lbm::SparseLattice> cylinder_workload_for_dialects() {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 3.0;
  spec.axial_per_scale = 12.0;
  return geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
}

lbm::SolverOptions flow_options() {
  lbm::SolverOptions o;
  o.tau = 0.9;
  o.inlet_velocity = 0.01;
  o.outlet_density = 1.0;
  return o;
}

}  // namespace

class DistributedRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(DistributedRankSweep, SlabDecompositionMatchesReferenceBitwise) {
  auto lattice = cylinder_workload();
  const int ranks = GetParam();

  lbm::Solver reference(lattice, flow_options());
  DistributedSolver distributed(
      lattice, decomp::slab_partition(*lattice, ranks), flow_options());

  reference.run(15);
  distributed.run(15);

  const std::vector<double>& ref = reference.distributions();
  const std::vector<double> dist = distributed.global_distributions();
  ASSERT_EQ(ref.size(), dist.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_EQ(ref[k], dist[k]) << ranks << " ranks diverged at index " << k;
}

TEST_P(DistributedRankSweep, BisectionDecompositionMatchesReferenceBitwise) {
  auto lattice = cylinder_workload();
  const int ranks = GetParam();

  lbm::Solver reference(lattice, flow_options());
  DistributedSolver distributed(
      lattice, decomp::bisection_partition(*lattice, ranks), flow_options());

  reference.run(15);
  distributed.run(15);

  const std::vector<double>& ref = reference.distributions();
  const std::vector<double> dist = distributed.global_distributions();
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_EQ(ref[k], dist[k]) << ranks << " ranks diverged at index " << k;
}

TEST_P(DistributedRankSweep, MessageTrafficMatchesHaloPlanExactly) {
  auto lattice = cylinder_workload();
  const int ranks = GetParam();
  const decomp::Partition partition =
      decomp::bisection_partition(*lattice, ranks);
  const decomp::HaloPlan plan = decomp::build_halo_plan(*lattice, partition);

  DistributedSolver distributed(lattice, partition, flow_options());
  distributed.run(3);

  // Every step sends exactly one message per plan entry, of exactly the
  // planned byte volume.
  const auto& ledger = distributed.network().ledger();
  ASSERT_EQ(ledger.size(), plan.messages.size() * 3);
  for (std::size_t k = 0; k < plan.messages.size(); ++k) {
    const auto& expected = plan.messages[k];
    const auto& actual = ledger[k];  // first step, same (src,dst) order
    EXPECT_EQ(actual.src, expected.src);
    EXPECT_EQ(actual.dst, expected.dst);
    EXPECT_EQ(actual.bytes, expected.bytes());
  }
  EXPECT_EQ(distributed.network().total_bytes(),
            3 * plan.total_values() *
                static_cast<std::int64_t>(sizeof(double)));
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedRankSweep,
                         ::testing::Values(2, 3, 4, 5, 8));

TEST(DistributedSolver, AortaWithBisectionMatchesReference) {
  geom::AortaSpec spec;
  spec.spacing_mm = 2.4;  // tiny instance for test speed
  auto lattice = geom::make_aorta_lattice(spec);

  lbm::SolverOptions o;
  o.tau = 0.85;
  o.inlet_velocity = 0.008;
  o.outlet_density = 1.0;

  lbm::Solver reference(lattice, o);
  DistributedSolver distributed(lattice,
                                decomp::bisection_partition(*lattice, 6), o);
  reference.run(10);
  distributed.run(10);

  const std::vector<double>& ref = reference.distributions();
  const std::vector<double> dist = distributed.global_distributions();
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_EQ(ref[k], dist[k]) << "aorta diverged at index " << k;
}

TEST(DistributedSolver, SingleRankSendsNothing) {
  auto lattice = cylinder_workload();
  DistributedSolver distributed(
      lattice, decomp::slab_partition(*lattice, 1), flow_options());
  distributed.run(5);
  EXPECT_EQ(distributed.network().message_count(), 0);
}

TEST(DistributedSolver, OwnedCountsMatchPartition) {
  auto lattice = cylinder_workload();
  const decomp::Partition partition = decomp::slab_partition(*lattice, 4);
  DistributedSolver distributed(lattice, partition, flow_options());
  const auto counts = partition.rank_counts();
  for (hemo::Rank r = 0; r < 4; ++r)
    EXPECT_EQ(distributed.owned_count(r),
              counts[static_cast<std::size_t>(r)]);
}

namespace {

/// Each live rank numbers its border points last: the points whose step
/// reads a ghost slot (an upstream neighbour on another rank) are exactly
/// the local slots [first_border, owned), both parts are in ascending
/// global order, and the points the exchanges pack are the border points.
void expect_border_tail(const lbm::SparseLattice& lattice,
                        const DistributedSolver& solver,
                        const std::string& label) {
  using hemo::harvey::DistributedSolverPeer;
  const decomp::Partition& partition = solver.partition();
  const std::vector<DistributedSolverPeer::Exchange> exchanges =
      DistributedSolverPeer::exchanges(solver);
  std::int64_t border_points = 0;
  for (hemo::Rank r = 0; r < partition.n_ranks; ++r) {
    const std::string at = label + ", rank " + std::to_string(r);
    const std::vector<hemo::PointIndex>& owned =
        DistributedSolverPeer::owned_global(solver, r);
    const auto first_border = DistributedSolverPeer::first_border(solver, r);
    ASSERT_EQ(static_cast<std::int64_t>(owned.size()), solver.owned_count(r))
        << at;
    ASSERT_GE(first_border, 0) << at;
    ASSERT_LE(first_border, solver.owned_count(r)) << at;
    for (std::size_t li = 0; li < owned.size(); ++li) {
      ASSERT_EQ(partition.owner[static_cast<std::size_t>(owned[li])], r) << at;
      bool reads_ghost = false;
      for (int q = 1; q < lbm::kQ; ++q) {
        const hemo::PointIndex up = lattice.neighbor(q, owned[li]);
        reads_ghost = reads_ghost ||
                      (up != hemo::kSolidNeighbor &&
                       partition.owner[static_cast<std::size_t>(up)] != r);
      }
      EXPECT_EQ(reads_ghost, static_cast<std::int64_t>(li) >= first_border)
          << at << ", local slot " << li;
    }
    const auto tail = owned.begin() + first_border;
    EXPECT_TRUE(std::is_sorted(owned.begin(), tail)) << at;
    EXPECT_TRUE(std::is_sorted(tail, owned.end())) << at;
    EXPECT_TRUE(std::adjacent_find(owned.begin(), owned.end()) ==
                owned.end()) << at;

    std::set<hemo::PointIndex> packed;
    for (const DistributedSolverPeer::Exchange& x : exchanges)
      if (x.src == r) packed.insert(x.source.begin(), x.source.end());
    EXPECT_TRUE(packed == std::set<hemo::PointIndex>(tail, owned.end())) << at;
    border_points += static_cast<std::int64_t>(owned.end() - tail);
  }
  if (solver.survivor_count() > 1) {
    EXPECT_GT(border_points, 0) << label;
  }
}

}  // namespace

TEST(DistributedSolver, BorderPointsAreEachRanksContiguousTail) {
  auto lattice = cylinder_workload();
  for (const int ranks : {2, 5, 8}) {
    expect_border_tail(
        *lattice,
        DistributedSolver(lattice, decomp::slab_partition(*lattice, ranks),
                          flow_options()),
        "slab, " + std::to_string(ranks) + " ranks");
    expect_border_tail(
        *lattice,
        DistributedSolver(lattice,
                          decomp::bisection_partition(*lattice, ranks),
                          flow_options()),
        "bisection, " + std::to_string(ranks) + " ranks");
  }

  // A rank killed mid-run: the shrink renumbers the survivors' points.
  constexpr int kRanks = 5;
  DistributedSolver solver(
      lattice, decomp::bisection_partition(*lattice, kRanks), flow_options());
  resilience::FaultPlan plan;
  plan.kill_rank(3, /*step=*/4);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, std::move(plan)));
  resilience::Options options;
  options.shrink.enabled = true;
  options.sentinel.enabled = true;
  solver.enable_resilience(options);
  solver.run(12);
  ASSERT_EQ(solver.resilience_stats().shrinks, 1);
  ASSERT_EQ(solver.owned_count(3), 0);
  expect_border_tail(*lattice, solver, "bisection, after a shrink");
}

namespace {

/// Each rank's ghost region holds its inbound payloads back to back: the
/// exchanges into the rank land in ascending source order on disjoint,
/// contiguous ranges that tile the region exactly.  Then one step on the
/// recording network: each range of the step's input equals the payload
/// sent for that exchange, less its CRC word when `framed`.
void expect_region_in_wire_order(DistributedSolver& solver,
                                 const hemo::harvey::RecordingNetwork& network,
                                 bool framed, const std::string& label) {
  using hemo::harvey::DistributedSolverPeer;
  const std::vector<DistributedSolverPeer::Exchange> exchanges =
      DistributedSolverPeer::exchanges(solver);
  for (hemo::Rank r = 0; r < solver.n_ranks(); ++r) {
    const std::string at = label + ", rank " + std::to_string(r);
    std::int64_t next = DistributedSolverPeer::region_begin(solver, r);
    EXPECT_EQ(next, lbm::kQ * solver.owned_count(r)) << at;
    hemo::Rank last_src = -1;
    for (const DistributedSolverPeer::Exchange& x : exchanges) {
      if (x.dst != r) continue;
      EXPECT_GT(x.src, last_src) << at;
      EXPECT_EQ(x.landing, next) << at << ", from rank " << x.src;
      last_src = x.src;
      next += static_cast<std::int64_t>(x.q.size());
    }
    EXPECT_EQ(next, DistributedSolverPeer::region_end(solver, r)) << at;
  }

  const std::size_t first = network.sent.size();
  const std::int64_t step = solver.step_count();
  solver.step();
  ASSERT_EQ(solver.step_count(), step + 1) << label;
  for (const DistributedSolverPeer::Exchange& x : exchanges) {
    const std::string at = label + ", exchange " + std::to_string(x.src) +
                           " -> " + std::to_string(x.dst);
    // A retransmission, if any, is byte-equal to the first send.
    const auto sent = std::find_if(
        network.sent.rbegin(),
        std::make_reverse_iterator(network.sent.begin() +
                                   static_cast<std::ptrdiff_t>(first)),
        [&](const hemo::harvey::RecordingNetwork::Sent& m) {
          return m.src == x.src && m.dst == x.dst;
        });
    ASSERT_NE(sent.base(), network.sent.begin() +
                               static_cast<std::ptrdiff_t>(first))
        << at;
    ASSERT_EQ(sent->payload.size(), x.q.size() + (framed ? 1 : 0)) << at;
    const double* landed =
        DistributedSolverPeer::step_input(solver, x.dst) + x.landing;
    EXPECT_EQ(std::memcmp(landed, sent->payload.data(),
                          x.q.size() * sizeof(double)),
              0)
        << at;
  }
}

}  // namespace

TEST(DistributedSolver, GhostRegionHoldsEachPayloadInWireOrder) {
  using hemo::harvey::RecordingNetwork;
  auto lattice = cylinder_workload();
  for (const int ranks : {2, 5, 8}) {
    for (const bool slab : {true, false}) {
      const std::string label = std::string(slab ? "slab, " : "bisection, ") +
                                std::to_string(ranks) + " ranks";
      DistributedSolver solver(
          lattice,
          slab ? decomp::slab_partition(*lattice, ranks)
               : decomp::bisection_partition(*lattice, ranks),
          flow_options());
      auto owned = std::make_unique<RecordingNetwork>(
          std::make_unique<hemo::comm::Network>(ranks));
      const RecordingNetwork& network = *owned;
      solver.set_network(std::move(owned));
      expect_region_in_wire_order(solver, network, /*framed=*/false, label);
      expect_region_in_wire_order(solver, network, /*framed=*/false,
                                  label + ", second step");
    }
  }

  // A rank killed mid-run: the shrink lays the survivors' regions out
  // anew, and the resilient exchange lands framed payloads without the
  // CRC word.
  constexpr int kRanks = 5;
  DistributedSolver solver(
      lattice, decomp::bisection_partition(*lattice, kRanks), flow_options());
  resilience::FaultPlan plan;
  plan.kill_rank(3, /*step=*/4);
  auto owned = std::make_unique<RecordingNetwork>(
      std::make_unique<resilience::FaultyNetwork>(kRanks, std::move(plan)));
  const RecordingNetwork& network = *owned;
  solver.set_network(std::move(owned));
  resilience::Options options;
  options.shrink.enabled = true;
  options.sentinel.enabled = true;
  solver.enable_resilience(options);
  expect_region_in_wire_order(solver, network, /*framed=*/true,
                              "bisection, before the kill");
  solver.run(12);
  ASSERT_EQ(solver.resilience_stats().shrinks, 1);
  ASSERT_EQ(solver.owned_count(3), 0);
  expect_region_in_wire_order(solver, network, /*framed=*/true,
                              "bisection, after a shrink");
}

namespace {

std::size_t count_rule(const std::vector<hemo::analysis::Diagnostic>& diags,
                       const std::string& rule) {
  return static_cast<std::size_t>(std::count_if(
      diags.begin(), diags.end(),
      [&](const hemo::analysis::Diagnostic& d) { return d.rule_id == rule; }));
}

}  // namespace

// validate()'s own halo checks, on seeded faults in the landing offsets:
// LC009 fires for a payload that lands on the receiving rank's rows or
// runs past its region, LC010 for two payloads that land on one slot.
TEST(DistributedSolver, ValidateFlagsLandingRangesOffTheGhostRegion) {
  using hemo::harvey::DistributedSolverPeer;
  auto lattice = cylinder_workload();
  DistributedSolver solver(lattice, decomp::bisection_partition(*lattice, 5),
                           flow_options());
  EXPECT_TRUE(solver.validate().empty());

  const std::vector<DistributedSolverPeer::Exchange> exchanges =
      DistributedSolverPeer::exchanges(solver);
  // An exchange whose receiver has an earlier inbound exchange: x lands
  // right after `before` in the region.
  std::size_t x = 0, before = 0;
  for (std::size_t k = 0; k < exchanges.size() && x == 0; ++k)
    for (std::size_t j = 0; j < exchanges.size(); ++j)
      if (exchanges[j].dst == exchanges[k].dst &&
          exchanges[j].src < exchanges[k].src &&
          exchanges[j].landing + static_cast<std::int64_t>(
                                     exchanges[j].q.size()) ==
              exchanges[k].landing) {
        x = k;
        before = j;
      }
  ASSERT_NE(x, 0u);
  const DistributedSolverPeer::Exchange& e = exchanges[x];
  const auto size = static_cast<std::int64_t>(e.q.size());

  // Onto the receiver's rows.
  DistributedSolverPeer::set_landing(solver, x, 0);
  std::vector<hemo::analysis::Diagnostic> diags = solver.validate();
  EXPECT_EQ(count_rule(diags, "LC009"), 1u);
  EXPECT_EQ(count_rule(diags, "LC010"), 0u);

  // Past the end of the region.
  DistributedSolverPeer::set_landing(
      solver, x, DistributedSolverPeer::region_end(solver, e.dst) - size + 1);
  diags = solver.validate();
  EXPECT_EQ(count_rule(diags, "LC009"), 1u);

  // One value back: its first value lands on `before`'s last.
  DistributedSolverPeer::set_landing(solver, x, e.landing - 1);
  diags = solver.validate();
  EXPECT_EQ(count_rule(diags, "LC009"), 0u);
  ASSERT_EQ(count_rule(diags, "LC010"), 1u);
  const std::string message =
      std::find_if(diags.begin(), diags.end(),
                   [](const hemo::analysis::Diagnostic& d) {
                     return d.rule_id == "LC010";
                   })
          ->message;
  EXPECT_NE(message.find("exchanges " + std::to_string(exchanges[before].src) +
                         " -> " + std::to_string(e.dst)),
            std::string::npos)
      << message;

  DistributedSolverPeer::set_landing(solver, x, e.landing);
  EXPECT_TRUE(solver.validate().empty());
}

TEST(DistributedSolver, GlobalMomentsAgreeWithReference) {
  auto lattice = cylinder_workload();
  lbm::Solver reference(lattice, flow_options());
  DistributedSolver distributed(
      lattice, decomp::slab_partition(*lattice, 3), flow_options());
  reference.run(8);
  distributed.run(8);
  for (hemo::PointIndex i = 0; i < lattice->size(); i += 37) {
    const lbm::Moments a = reference.moments(i);
    const lbm::Moments b = distributed.global_moments(i);
    EXPECT_DOUBLE_EQ(a.rho, b.rho);
    EXPECT_DOUBLE_EQ(a.uz, b.uz);
  }
}

// ---------------------------------------------------------------------------
// Dialect-routed distributed execution: MPI ranks each driving a device
// through a programming model, the study's actual execution mode.
// ---------------------------------------------------------------------------

class DistributedDialects : public ::testing::TestWithParam<hemo::hal::Model> {};

TEST_P(DistributedDialects, DialectExecutionMatchesHostLoopBitwise) {
  auto lattice = cylinder_workload_for_dialects();
  lbm::Solver reference(lattice, flow_options());
  DistributedSolver distributed(
      lattice, decomp::bisection_partition(*lattice, 4), flow_options());
  distributed.set_execution_model(GetParam());

  reference.run(12);
  distributed.run(12);

  const std::vector<double>& ref = reference.distributions();
  const std::vector<double> dist = distributed.global_distributions();
  ASSERT_EQ(ref.size(), dist.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_EQ(ref[k], dist[k])
        << hemo::hal::name_of(GetParam()) << " diverged at " << k;
}

// Resilience and the SDC sentinel on, through a dialect: a seeded plan of
// wire faults plus one in-memory bit flip, on the aorta at 4 ranks, with
// duplicate re-execution sampling tiles every step.  Retransmission,
// rollback and replay all run through the dialect launch; the run must end
// bit-identical to the fault-free host-loop run.
TEST_P(DistributedDialects, ResilientSentinelRunMatchesHostLoopBitwise) {
  constexpr int kRanks = 4;
  constexpr int kSteps = 24;
  geom::AortaSpec spec;
  spec.spacing_mm = 2.6;
  auto lattice = geom::make_aorta_lattice(spec);
  const decomp::Partition partition =
      decomp::bisection_partition(*lattice, kRanks);

  DistributedSolver host(lattice, partition, flow_options());
  host.run(kSteps);

  DistributedSolver solver(lattice, partition, flow_options());
  resilience::FaultPlan plan = resilience::FaultPlan::random(
      /*seed=*/11, kSteps, solver.exchange_pairs(),
      {std::begin(resilience::kAllFaultKinds),
       std::end(resilience::kAllFaultKinds)},
      /*events_per_kind=*/1);
  resilience::FaultEvent flip;
  flip.kind = resilience::FaultKind::kBitFlip;
  flip.step = 10;
  flip.flip_point = lattice->size() / 3;
  flip.flip_q = 5;
  flip.flip_bit = 41;
  plan.add(flip);
  auto network =
      std::make_unique<resilience::FaultyNetwork>(kRanks, std::move(plan));
  resilience::FaultPlan* live_plan = &network->plan();
  solver.set_network(std::move(network));
  solver.set_fault_injection(live_plan);
  solver.set_execution_model(GetParam());
  resilience::Options options;
  options.recovery.checkpoint_interval = 4;
  options.sentinel.enabled = true;
  options.sentinel.tile_points = 64;
  options.sentinel.reexec_sample = 2;
  solver.enable_resilience(options);

  solver.run(kSteps);

  const resilience::RunStats& stats = solver.resilience_stats();
  EXPECT_GT(stats.faults_detected(), 0);
  EXPECT_EQ(stats.sdc_detected, 1);
  EXPECT_GT(stats.sdc_checks, 0);
  EXPECT_TRUE(live_plan->events().back().fired);
  EXPECT_EQ(solver.step_count(), kSteps);
  const std::vector<double> expected = host.global_distributions();
  const std::vector<double> actual = solver.global_distributions();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t k = 0; k < expected.size(); ++k)
    ASSERT_EQ(expected[k], actual[k])
        << hemo::hal::name_of(GetParam()) << " diverged at " << k;
}

INSTANTIATE_TEST_SUITE_P(
    Models, DistributedDialects,
    ::testing::ValuesIn(std::begin(hemo::hal::kAllModels),
                        std::end(hemo::hal::kAllModels)),
    [](const ::testing::TestParamInfo<hemo::hal::Model>& info) {
      std::string n{hemo::hal::name_of(info.param)};
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

namespace {

/// Sets the process-wide device engine's thread count for its lifetime.
class EngineThreads {
 public:
  explicit EngineThreads(int threads) {
    hemo::hal::DeviceEngine::instance().set_threads(threads);
  }
  ~EngineThreads() { hemo::hal::DeviceEngine::instance().set_threads(1); }
  EngineThreads(const EngineThreads&) = delete;
  EngineThreads& operator=(const EngineThreads&) = delete;
};

/// A cylinder with several step blocks per rank at every rank count below,
/// so a step launch holds blocks of many ranks in one engine chunk and one
/// rank's blocks in several.
std::shared_ptr<lbm::SparseLattice> multi_block_cylinder() {
  geom::CylinderSpec spec;
  spec.scale = 2.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 16.0;
  return geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
}

}  // namespace

/// (dialect, engine threads)
class DistributedDialectsThreaded
    : public ::testing::TestWithParam<std::tuple<hemo::hal::Model, int>> {};

// A distributed step is one launch over every live rank's blocks, chunked
// across the engine workers: the result must not depend on the dialect,
// the thread count or the rank count.
TEST_P(DistributedDialectsThreaded, SingleStepLaunchMatchesReferenceBitwise) {
  const auto [model, threads] = GetParam();
  const EngineThreads engine_threads(threads);
  auto lattice = multi_block_cylinder();
  lbm::Solver reference(lattice, flow_options());
  reference.run(12);
  const std::vector<double>& ref = reference.distributions();
  for (const int ranks : {1, 2, 5, 8}) {
    DistributedSolver distributed(
        lattice, decomp::bisection_partition(*lattice, ranks), flow_options());
    distributed.set_execution_model(model);
    distributed.run(12);
    const std::vector<double> dist = distributed.global_distributions();
    ASSERT_EQ(ref.size(), dist.size());
    for (std::size_t k = 0; k < ref.size(); ++k)
      ASSERT_EQ(ref[k], dist[k])
          << hemo::hal::name_of(model) << ", " << threads << " threads, "
          << ranks << " ranks: diverged at " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsThreads, DistributedDialectsThreaded,
    ::testing::Combine(::testing::ValuesIn(std::begin(hemo::hal::kAllModels),
                                           std::end(hemo::hal::kAllModels)),
                       ::testing::Values(2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<hemo::hal::Model, int>>&
           info) {
      std::string n{hemo::hal::name_of(std::get<0>(info.param))};
      for (char& c : n)
        if (c == '-') c = '_';
      return n + "_" + std::to_string(std::get<1>(info.param)) + "threads";
    });

// The step launch covers every live rank: one kernel launch per step,
// whose work-items are the ranks' blocks together (grid-rounded for hipx).
TEST(DistributedDialects, StepIsOneKernelLaunchOverEveryRanksBlocks) {
  constexpr int kRanks = 5;
  auto lattice = multi_block_cylinder();
  DistributedSolver solver(
      lattice, decomp::bisection_partition(*lattice, kRanks), flow_options());
  solver.set_execution_model(hemo::hal::Model::kHip);
  std::int64_t blocks = 0;
  for (int r = 0; r < kRanks; ++r)
    blocks += (solver.owned_count(r) + lbm::kStepBlock - 1) / lbm::kStepBlock;
  ASSERT_GT(blocks, 2 * kRanks);

  hemo::hal::DeviceEngine& engine = hemo::hal::DeviceEngine::instance();
  engine.reset_counters();
  solver.step();
  EXPECT_EQ(engine.counters().kernel_launches, 1);
  EXPECT_EQ(engine.counters().kernel_indices, (blocks + 255) / 256 * 256);
  engine.reset_counters();
}

// A resilient step with the sentinel on reads its state in two launches:
// one digests every tile's input for the verify and steps the interior
// tiles, the other steps the border tiles after the halo exchange; both
// audit the tiles they just wrote.  A snapshot step adds one launch for
// the copy.
TEST(DistributedDialects, SentinelResilientStepIsTwoLaunches) {
  constexpr int kRanks = 5;
  auto lattice = multi_block_cylinder();
  DistributedSolver solver(
      lattice, decomp::bisection_partition(*lattice, kRanks), flow_options());
  solver.set_execution_model(hemo::hal::Model::kHip);
  resilience::Options options;
  options.recovery.checkpoint_interval = 4;
  options.sentinel.enabled = true;
  solver.enable_resilience(options);
  solver.step();  // step 0 follows the snapshot enable_resilience took

  hemo::hal::DeviceEngine& engine = hemo::hal::DeviceEngine::instance();
  engine.reset_counters();
  solver.step();  // step 1: verify + interior, border
  EXPECT_EQ(engine.counters().kernel_launches, 2);
  solver.run(2);
  engine.reset_counters();
  solver.step();  // step 4: verify + interior, snapshot, border
  EXPECT_EQ(engine.counters().kernel_launches, 3);
  EXPECT_EQ(solver.resilience_stats().snapshots, 2);
  engine.reset_counters();
}

// A rank killed mid-run under hipx on 2 engine threads: the shrink rebuilds
// the step plan over the survivors, and the run must end bit-identical to
// the unfaulted host-loop run.
TEST(DistributedDialects, RankKillShrinkOnTwoThreadsMatchesHostLoopBitwise) {
  constexpr int kRanks = 5;
  constexpr int kSteps = 24;
  auto lattice = multi_block_cylinder();
  const decomp::Partition partition =
      decomp::bisection_partition(*lattice, kRanks);
  DistributedSolver host(lattice, partition, flow_options());
  host.run(kSteps);

  const EngineThreads engine_threads(2);
  DistributedSolver solver(lattice, partition, flow_options());
  resilience::FaultPlan plan;
  plan.kill_rank(3, /*step=*/9);
  solver.set_network(
      std::make_unique<resilience::FaultyNetwork>(kRanks, std::move(plan)));
  solver.set_execution_model(hemo::hal::Model::kHip);
  resilience::Options options;
  options.shrink.enabled = true;
  solver.enable_resilience(options);
  solver.run(kSteps);

  EXPECT_EQ(solver.resilience_stats().shrinks, 1);
  EXPECT_EQ(solver.survivor_count(), kRanks - 1);
  EXPECT_EQ(solver.owned_count(3), 0);
  EXPECT_EQ(solver.step_count(), kSteps);
  const std::vector<double> expected = host.global_distributions();
  const std::vector<double> actual = solver.global_distributions();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t k = 0; k < expected.size(); ++k)
    ASSERT_EQ(expected[k], actual[k]) << "diverged at " << k;
}

TEST(DistributedDialects, PulsatileInflowMatchesReference) {
  auto lattice = cylinder_workload_for_dialects();
  lbm::Solver reference(lattice, flow_options());
  DistributedSolver distributed(
      lattice, decomp::slab_partition(*lattice, 3), flow_options());
  distributed.set_execution_model(hemo::hal::Model::kSycl);

  const hemo::lbm::CardiacWaveform wave(40, 0.02);
  for (int step = 0; step < 80; ++step) {
    reference.set_inlet_velocity(wave.at(step));
    distributed.set_inlet_velocity(wave.at(step));
    reference.step();
    distributed.step();
  }
  const std::vector<double>& ref = reference.distributions();
  const std::vector<double> dist = distributed.global_distributions();
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_EQ(ref[k], dist[k]) << "pulsatile diverged at " << k;
}

// AA in place needs halo slot maps keyed by the step parity, which the
// distributed solver does not have; it must refuse the pattern rather than
// run pull while the performance model prices AA traffic.
TEST(DistributedSolverDeathTest, RejectsAAInPlacePropagation) {
  auto lattice = cylinder_workload_for_dialects();
  lbm::SolverOptions options = flow_options();
  options.propagation = lbm::Propagation::kAAInPlace;
  EXPECT_DEATH(DistributedSolver(lattice,
                                 decomp::bisection_partition(*lattice, 2),
                                 options),
               "Precondition");
}
