// dist-resilient: the communication and recovery workload.  The synthetic
// aorta (198,465 points) is split over 8 ranks by recursive bisection and
// stepped by DistributedSolver through hipx, with resilience and the SDC
// sentinel at their defaults.  A seeded FaultPlan injects wire faults and
// in-memory bit flips; a MeteredNetwork between the solver and the
// FaultyNetwork times and counts the wire.  A window is one snapshot
// interval; every kCheckpointEvery windows the state goes to disk.
//
// Every set-up repetition is kept as a replica with the same inputs, and
// the replicas take turns one step at a time.  Between two steps of one
// replica the others stream several hundred MB, so every step starts with
// its state out of the last-level cache.  A single solver's ~130 MB working
// set sits near the shared L3's capacity, where its step time moved with
// what other tenants of the host kept in the L3.

#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "decomp/partition.hpp"
#include "geom/aorta.hpp"
#include "hal/device.hpp"
#include "harvey/distributed_solver.hpp"
#include "lbm/solver.hpp"
#include "metered_network.hpp"
#include "resilience/faulty_network.hpp"
#include "workload_plans.hpp"
#include "workloads.hpp"

namespace hemo::bench {
namespace {

constexpr int kRanks = 8;
/// Device engine threads the ranks' hipx kernels run on, as in cyl-device.
/// On one thread the step time of this workload swung by 1.5x between runs
/// with the host; on two the spread over seeds fell from ~18% to ~4%.
constexpr int kDeviceThreads = 2;
constexpr int kWindowSteps = 8;  // RecoveryPolicy::checkpoint_interval
/// Rounds (one window per replica each) whose counters are exact for a seed.
constexpr int kPrefixRounds = 4;
constexpr int kCheckpointEvery = 4;  // rounds between on-disk checkpoints
constexpr int kMinDiffRounds = 3;
/// A 20 s run times about 300 step calls, so p90 has ~30 beyond it.
constexpr double kTailQuantile = 0.90;

lbm::SolverOptions solver_options(std::uint64_t seed) {
  const FlowParams flow = flow_params(seed);
  lbm::SolverOptions options;
  options.tau = flow.tau;
  options.inlet_velocity = flow.inlet_velocity;
  return options;
}

resilience::Options resilience_options(bool sentinel) {
  resilience::Options options;
  options.sentinel.enabled = sentinel;
  return options;
}

struct Setup {
  std::shared_ptr<lbm::SparseLattice> lattice;
  decomp::Partition partition;
  decomp::HaloPlan plan;
  std::unique_ptr<harvey::DistributedSolver> solver;
  MeteredNetwork* meter = nullptr;  // owned by solver
  double voxelize_ms = 0.0;
  double bisect_ms = 0.0;
  double plan_ms = 0.0;

  // Timed-phase state of this replica's current window.
  std::int64_t window_target = 0;
  std::uint64_t window_id = 0;
};

Setup set_up(const WorkloadContext& ctx) {
  Setup s;
  Clock::time_point t = Clock::now();
  s.lattice = geom::make_aorta_lattice(geom::AortaSpec{});
  s.voxelize_ms = seconds_since(t) * 1e3;
  t = Clock::now();
  s.partition = decomp::bisection_partition(*s.lattice, kRanks);
  s.bisect_ms = seconds_since(t) * 1e3;
  t = Clock::now();
  s.plan = decomp::build_halo_plan(*s.lattice, s.partition);
  s.plan_ms = seconds_since(t) * 1e3;

  s.solver = std::make_unique<harvey::DistributedSolver>(
      s.lattice, s.partition, solver_options(ctx.seed));
  auto faulty = std::make_unique<resilience::FaultyNetwork>(
      kRanks, make_fault_plan(ctx.seed, s.solver->exchange_pairs(),
                              s.lattice->size(), kWindowSteps));
  resilience::FaultPlan* plan = &faulty->plan();
  auto meter = std::make_unique<MeteredNetwork>(std::move(faulty));
  s.meter = meter.get();
  s.solver->set_network(std::move(meter));
  s.solver->set_fault_injection(plan);
  s.solver->set_execution_model(hal::Model::kHip);
  s.solver->enable_resilience(resilience_options(/*sentinel=*/true));
  return s;
}

/// Sets the device engine's thread count for its lifetime.
class EngineThreads {
 public:
  explicit EngineThreads(int threads) {
    hal::DeviceEngine::instance().set_threads(threads);
  }
  ~EngineThreads() { hal::DeviceEngine::instance().set_threads(1); }
  EngineThreads(const EngineThreads&) = delete;
  EngineThreads& operator=(const EngineThreads&) = delete;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One window of every replica: each advances to its next snapshot
/// boundary, the replicas taking turns one step call at a time.  Every
/// step call is one sample in `steps` (a call that rolls back too); traced
/// rounds also record each step as a span of its replica's window.
void run_round(std::vector<Setup>& replicas, std::vector<Window>* steps,
               Tracer* tracer) {
  for (Setup& r : replicas) {
    r.window_target =
        (r.solver->step_count() / kWindowSteps + 1) * kWindowSteps;
    r.window_id = tracer ? tracer->next_id() : 0;
  }
  for (bool busy = true; busy;) {
    busy = false;
    for (Setup& r : replicas) {
      if (r.solver->step_count() >= r.window_target) continue;
      busy = true;
      const Clock::time_point s0 = Clock::now();
      r.solver->step();
      const Clock::time_point s1 = Clock::now();
      steps->push_back({seconds_between(s0, s1), 1});
      if (tracer) tracer->record("step", r.window_id, 0, s0, s1);
    }
  }
}

struct Variant {
  const char* name;
  std::optional<hal::Model> model;
  bool resilient;
  bool sentinel;
};

/// Fault-free differential segments for the overhead split: hipx against
/// host loops (dispatch), guards on against off, sentinel on against off.
/// Returns the per-step p50 of each variant, in `variants` order.
std::vector<double> differential_p50(const Setup& setup,
                                     const WorkloadContext& ctx,
                                     const std::vector<Variant>& variants,
                                     double seconds) {
  std::vector<std::unique_ptr<harvey::DistributedSolver>> solvers;
  for (const Variant& v : variants) {
    auto solver = std::make_unique<harvey::DistributedSolver>(
        setup.lattice, setup.partition, solver_options(ctx.seed));
    if (v.model) solver->set_execution_model(*v.model);
    if (v.resilient) solver->enable_resilience(resilience_options(v.sentinel));
    solver->run(kWindowSteps);  // warm-up
    solvers.push_back(std::move(solver));
  }
  std::vector<std::vector<Window>> windows(variants.size());
  const Clock::time_point start = Clock::now();
  for (int round = 0;
       round < kMinDiffRounds || seconds_since(start) < seconds; ++round) {
    for (std::size_t v = 0; v < solvers.size(); ++v) {
      const Clock::time_point t0 = Clock::now();
      solvers[v]->run(kWindowSteps);
      windows[v].push_back({seconds_since(t0), kWindowSteps});
    }
  }
  std::vector<double> p50;
  for (const std::vector<Window>& w : windows)
    p50.push_back(summarize_windows(w).step_ms_p50);
  return p50;
}

}  // namespace

RunResult run_dist_resilient(const WorkloadContext& ctx) {
  RunResult result;
  Tracer* tracer = ctx.traced() ? ctx.tracer : nullptr;

  EngineThreads engine_threads(kDeviceThreads);
  std::vector<double> setup_reps, voxelize_ms, bisect_ms, plan_ms;
  std::vector<Setup> replicas;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    Setup s = set_up(ctx);
    s.solver->step();  // warm-up: first touch of every rank's state
    setup_reps.push_back(seconds_since(t0));
    voxelize_ms.push_back(s.voxelize_ms);
    bisect_ms.push_back(s.bisect_ms);
    plan_ms.push_back(s.plan_ms);
    replicas.push_back(std::move(s));
  }
  const Setup& first = replicas.front();
  const PointIndex n = first.lattice->size();

  {
    std::vector<std::pair<Rank, Rank>> planned;
    for (const decomp::HaloMessage& m : first.plan.messages)
      planned.emplace_back(m.src, m.dst);
    if (planned != first.solver->exchange_pairs())
      result.errors.push_back(
          "dist-resilient: solver exchanges differ from the halo plan");
  }

  const std::string ckpt = ctx.workdir + "/dist-checkpoint.bin";
  std::vector<Window> steps, traced_steps, untraced_steps;
  std::vector<double> ckpt_write_ms;
  WireCounts prefix_wire;
  resilience::RunStats prefix_stats;
  std::int64_t prefix_steps = 0;
  std::int64_t committed = 0;
  std::int64_t windows = 0;

  const std::uint64_t run_id = tracer ? tracer->next_id() : 0;
  const Clock::time_point start = Clock::now();
  try {
    for (int round = 0;
         round < kPrefixRounds || seconds_since(start) < ctx.seconds;
         ++round) {
      const bool traced_round = tracer != nullptr && round % 2 == 1;
      std::vector<Window>& step_log =
          traced_round ? traced_steps : untraced_steps;
      const std::size_t logged = step_log.size();
      std::vector<std::int64_t> from;
      for (const Setup& r : replicas) from.push_back(r.solver->step_count());
      const Clock::time_point t0 = Clock::now();
      run_round(replicas, &step_log, traced_round ? tracer : nullptr);
      steps.insert(steps.end(), step_log.begin() + logged, step_log.end());

      const bool checkpoint = (round + 1) % kCheckpointEvery == 0;
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        Setup& r = replicas[i];
        if (checkpoint) {
          const Clock::time_point c0 = Clock::now();
          r.solver->save_checkpoint(ckpt);
          const Clock::time_point c1 = Clock::now();
          ckpt_write_ms.push_back(seconds_between(c0, c1) * 1e3);
          if (traced_round)
            tracer->record("checkpoint", r.window_id, 0, c0, c1);
        }
        committed += r.solver->step_count() - from[i];
        ++windows;
        if (traced_round)
          tracer->record(r.window_id, "window", run_id, i, t0, Clock::now());
      }
      if (round + 1 == kPrefixRounds) {
        prefix_wire = first.meter->counts();
        prefix_stats = first.solver->resilience_stats();
        prefix_steps = first.solver->step_count();
      }
    }
  } catch (const std::exception& e) {
    result.errors.push_back(std::string("dist-resilient: ") + e.what());
  }
  const Clock::time_point end = Clock::now();
  const double wall = seconds_between(start, end);
  if (tracer) tracer->record(run_id, "run:dist-resilient", 0, 0, start, end);
  result.attempted = windows;

  // Oracle 1: the wire of every replica carried exactly the halo plan, CRC
  // words and retransmissions.
  for (const Setup& r : replicas)
    for (const std::string& problem : check_wire_against_plan(
             r.meter->counts(), r.plan, /*frame_words=*/1,
             r.solver->resilience_stats().retransmits))
      result.errors.push_back("dist-resilient wire: " + problem);

  // Oracle 2: a checkpoint of the final state restores bit-identically.
  const std::vector<double> final_state = first.solver->global_distributions();
  first.solver->save_checkpoint(ckpt);
  double restore_ms = 0.0;
  {
    harvey::DistributedSolver restored(first.lattice, first.partition,
                                       solver_options(ctx.seed));
    const Clock::time_point r0 = Clock::now();
    restored.restore_checkpoint(ckpt);
    restore_ms = seconds_since(r0) * 1e3;
    if (!same_bits(restored.global_distributions(), final_state))
      result.errors.push_back("dist-resilient: restored checkpoint differs");
  }
  const double ckpt_mb =
      static_cast<double>(std::filesystem::file_size(ckpt)) / (1 << 20);
  std::filesystem::remove(ckpt);

  // Oracle 3: a fault-free single-domain run of the same steps, outside
  // the timed phase, ends in the same bits as every replica.
  std::vector<Window> ref_windows;
  {
    lbm::Solver reference(first.lattice, solver_options(ctx.seed));
    const std::int64_t target = first.solver->step_count();
    while (reference.step_count() < target) {
      const int batch = static_cast<int>(std::min<std::int64_t>(
          kWindowSteps, target - reference.step_count()));
      const Clock::time_point r0 = Clock::now();
      reference.run(batch);
      ref_windows.push_back({seconds_since(r0), batch});
    }
    const std::vector<double> expected = reference.distributions();
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      const harvey::DistributedSolver& solver = *replicas[i].solver;
      if (solver.step_count() != target ||
          !same_bits(solver.global_distributions(), expected))
        result.errors.push_back(
            "dist-resilient: replica " + std::to_string(i) +
            " differs from the fault-free single-domain reference");
    }
  }
  if (!result.errors.empty()) result.failed = result.attempted;

  const WindowSummary summary = summarize_windows(steps);
  set_unit_metrics(&result,
                   static_cast<double>(committed) * static_cast<double>(n) /
                       wall,
                   summary.step_ms_p10, summary.step_ms_p50,
                   quantile(summary.per_step_ms, kTailQuantile), setup_reps);
  if (!tracer) return result;

  Metrics& L = result.layers;
  const double ref_ms = summarize_windows(ref_windows).step_ms_p50;
  L.set("geom.aorta_voxelize_ms", quantile(voxelize_ms, 0.5), "ms");
  L.set("decomp.bisect_ms", quantile(bisect_ms, 0.5), "ms");
  L.set("decomp.halo_plan_ms", quantile(plan_ms, 0.5), "ms");
  L.set("decomp.imbalance", first.partition.imbalance(), "ratio");
  L.set("lbm.ref_step_ms", ref_ms, "ms");
  L.set("harvey.orchestration_pct",
        (1.0 - ref_ms / summary.step_ms_p50) * 100.0, "%");

  // Exact counters of the first replica, read at the end of the prefix.
  const auto per_step = [&](double total) {
    return total / static_cast<double>(prefix_steps);
  };
  L.set("comm.msgs_per_step",
        per_step(static_cast<double>(prefix_wire.messages)), "count");
  L.set("comm.bytes_per_step", per_step(static_cast<double>(prefix_wire.bytes)),
        "B");
  const WireCounts& wire = first.meter->counts();
  const double steps_total = static_cast<double>(first.solver->step_count());
  L.set("comm.send_us_per_step", wire.send_seconds * 1e6 / steps_total, "us");
  L.set("comm.recv_us_per_step", wire.recv_seconds * 1e6 / steps_total, "us");
  L.set("resilience.retransmits",
        static_cast<double>(prefix_stats.retransmits), "count");
  L.set("resilience.rollbacks", static_cast<double>(prefix_stats.rollbacks),
        "count");
  L.set("resilience.snapshots", static_cast<double>(prefix_stats.snapshots),
        "count");
  L.set("resilience.sdc_checks", static_cast<double>(prefix_stats.sdc_checks),
        "count");
  L.set("resilience.sdc_detected",
        static_cast<double>(prefix_stats.sdc_detected), "count");
  L.set("resilience.step_yield",
        static_cast<double>(prefix_steps) /
            static_cast<double>(prefix_wire.step_attempts),
        "ratio");
  L.set("io.ckpt_write_ms", quantile(ckpt_write_ms, 0.5), "ms");
  L.set("io.ckpt_restore_ms", restore_ms, "ms");
  L.set("io.ckpt_mb", ckpt_mb, "MiB");

  const std::vector<double> diff = differential_p50(
      first, ctx,
      {{"host", std::nullopt, false, false},
       {"hipx", hal::Model::kHip, false, false},
       {"guards", hal::Model::kHip, true, false},
       {"sentinel", hal::Model::kHip, true, true}},
      ctx.seconds / 4);
  L.set("hal.dist_dispatch_overhead_pct", (diff[1] / diff[0] - 1.0) * 100.0,
        "%");
  L.set("resilience.guard_overhead_pct", (diff[2] / diff[1] - 1.0) * 100.0,
        "%");
  L.set("resilience.sentinel_overhead_pct", (diff[3] / diff[2] - 1.0) * 100.0,
        "%");
  L.set("trace.dist.overhead_pct",
        (summarize_windows(traced_steps).step_ms_p50 /
             summarize_windows(untraced_steps).step_ms_p50 -
         1.0) * 100.0,
        "%");
  return result;
}

}  // namespace hemo::bench
