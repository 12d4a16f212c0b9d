// cyl-device: the kernel and dialect-dispatch workload.  A 230,912-point
// inlet/outlet cylinder (radius 24, length 128) is stepped by the plain
// single-threaded lbm::Solver and by DeviceSolver through each dialect
// family with the engine at 2 threads, every segment under both pull and
// AA.  Segments take turns one window (an even+odd step pair) at a time,
// so host noise that is correlated over seconds lands on all of them.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "geom/cylinder.hpp"
#include "hal/device.hpp"
#include "harvey/device_solver.hpp"
#include "lbm/solver.hpp"
#include "perf/model.hpp"
#include "workload_plans.hpp"
#include "workloads.hpp"

namespace hemo::bench {
namespace {

constexpr int kPrefixRounds = 3;
constexpr int kStepsPerWindow = 2;
constexpr int kDeviceThreads = 2;
/// A 20 s run times about 28 windows per segment, so each segment's p90
/// has about three beyond it, and the ten segments together about thirty.
constexpr double kTailQuantile = 0.90;

const char* pattern_tag(lbm::Propagation p) {
  return p == lbm::Propagation::kPullSoA ? "pull" : "aa";
}

struct Family {
  const char* name;
  hal::Model model;
  int threads;
};

struct Segment {
  std::string family;  // "lbm" or a dialect family
  lbm::Propagation pattern = lbm::Propagation::kPullSoA;
  int threads = 1;
  std::unique_ptr<lbm::Solver> host;
  std::unique_ptr<harvey::DeviceSolver> device;
  std::vector<Window> windows;

  std::string name() const { return family + "." + pattern_tag(pattern); }
  void step() {
    if (host) {
      host->step();
    } else {
      device->step();
    }
  }
  std::vector<double> canonical() const {
    return host ? host->distributions() : device->distributions();
  }
};

struct Setup {
  std::shared_ptr<lbm::SparseLattice> lattice;
  std::vector<Segment> segments;
  double voxelize_ms = 0.0;
  double device_init_ms = 0.0;
};

Setup set_up(const WorkloadContext& ctx) {
  Setup s;
  Clock::time_point t = Clock::now();
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.axial_per_scale = 128.0;
  spec.radius_per_scale = 24.0;
  s.lattice =
      geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
  s.voxelize_ms = seconds_since(t) * 1e3;

  const FlowParams flow = flow_params(ctx.seed);
  std::vector<Family> families = {
      {"cudax", hal::Model::kCuda, kDeviceThreads},
      {"hipx", hal::Model::kHip, kDeviceThreads},
      {"syclx", hal::Model::kSycl, kDeviceThreads},
      {"kokkosx", hal::Model::kKokkosCuda, kDeviceThreads}};
  // The traced run adds the cudax family on one engine thread, the
  // like-for-like partner of the single-threaded lbm::Solver.
  if (ctx.traced()) families.push_back({"cudax1", hal::Model::kCuda, 1});

  for (const lbm::Propagation p :
       {lbm::Propagation::kPullSoA, lbm::Propagation::kAAInPlace}) {
    lbm::SolverOptions options;
    options.tau = flow.tau;
    options.inlet_velocity = flow.inlet_velocity;
    options.propagation = p;
    Segment host;
    host.family = "lbm";
    host.pattern = p;
    host.host = std::make_unique<lbm::Solver>(s.lattice, options);
    s.segments.push_back(std::move(host));
    for (const Family& f : families) {
      Segment dev;
      dev.family = f.name;
      dev.pattern = p;
      dev.threads = f.threads;
      t = Clock::now();
      dev.device =
          std::make_unique<harvey::DeviceSolver>(s.lattice, options, f.model);
      s.device_init_ms += seconds_since(t) * 1e3;
      s.segments.push_back(std::move(dev));
    }
  }
  return s;
}

/// One window of every segment, in order.  `record` keeps the windows;
/// traced rounds also record a span per window and per step.
void run_round(std::vector<Segment>& segments, bool record, Tracer* tracer,
               std::uint64_t parent) {
  hal::DeviceEngine& engine = hal::DeviceEngine::instance();
  for (Segment& seg : segments) {
    engine.set_threads(seg.threads);
    const std::uint64_t window_id = tracer ? tracer->next_id() : 0;
    const Clock::time_point t0 = Clock::now();
    for (int k = 0; k < kStepsPerWindow; ++k) {
      if (tracer) {
        const Clock::time_point s0 = Clock::now();
        seg.step();
        tracer->record("step", window_id, 0, s0, Clock::now());
      } else {
        seg.step();
      }
    }
    const Clock::time_point t1 = Clock::now();
    if (record) seg.windows.push_back({seconds_between(t0, t1), kStepsPerWindow});
    if (tracer)
      tracer->record(window_id, "window:" + seg.name(), parent, 0, t0, t1);
  }
  engine.set_threads(1);
}

double step_p50(const Segment& seg) {
  return summarize_windows(seg.windows).step_ms_p50;
}

/// Geometric mean over segments of each segment's q-quantile of per-step
/// window time.  Every segment weighs the same, so a change to one dialect
/// or pattern moves the figure by its own share, whichever segment is the
/// slowest or fastest.
double segment_geomean(const std::vector<Segment>& segments, double q) {
  double log_sum = 0.0;
  for (const Segment& seg : segments)
    log_sum += std::log(
        quantile(summarize_windows(seg.windows).per_step_ms, q));
  return std::exp(log_sum / static_cast<double>(segments.size()));
}

}  // namespace

RunResult run_cyl_device(const WorkloadContext& ctx) {
  RunResult result;
  Tracer* tracer = ctx.traced() ? ctx.tracer : nullptr;
  hal::DeviceEngine& engine = hal::DeviceEngine::instance();

  // Set-up repetitions: each builds the lattice and every solver and warms
  // them with one untimed round; the last one is kept.
  std::vector<double> setup_reps;
  std::vector<double> voxelize_ms;
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup = Setup{};  // release the previous repetition first
    const Clock::time_point t0 = Clock::now();
    setup = set_up(ctx);
    run_round(setup.segments, /*record=*/false, nullptr, 0);
    setup_reps.push_back(seconds_since(t0));
    voxelize_ms.push_back(setup.voxelize_ms);
  }
  std::vector<Segment>& segments = setup.segments;
  const PointIndex n = setup.lattice->size();

  // Timed phase: whole rounds until the prefix is done and time is up.
  // Traced runs trace every other round; the untraced rounds between them
  // give the tracing overhead.
  engine.reset_counters();
  hal::EngineCounters first_round{};
  std::vector<double> triads;
  std::vector<Window> traced_windows, untraced_windows;
  const std::uint64_t run_id = tracer ? tracer->next_id() : 0;
  const Clock::time_point start = Clock::now();
  int rounds = 0;
  while (rounds < kPrefixRounds || seconds_since(start) < ctx.seconds) {
    const bool traced_round = tracer != nullptr && rounds % 2 == 1;
    const std::size_t before = segments.front().windows.size();
    run_round(segments, /*record=*/true, traced_round ? tracer : nullptr,
              run_id);
    for (const Segment& seg : segments)
      (traced_round ? traced_windows : untraced_windows)
          .push_back(seg.windows[before]);
    if (rounds == 0) first_round = engine.counters();
    if (tracer != nullptr && rounds % 4 == 2)
      triads.push_back(measure_triad_gbps(std::size_t{4} << 20, 2));
    ++rounds;
  }
  const Clock::time_point end = Clock::now();
  const double wall = seconds_between(start, end);
  if (tracer) tracer->record(run_id, "run:cyl-device", 0, 0, start, end);

  // Oracle: every segment ran the same steps from the same state, so every
  // final canonical state must be bit-identical to the plain pull solver's.
  const std::vector<double> reference = segments.front().canonical();
  std::int64_t steps = 0;
  for (const Segment& seg : segments) {
    steps += summarize_windows(seg.windows).steps;
    result.attempted += static_cast<std::int64_t>(seg.windows.size());
    const std::vector<double> state = seg.canonical();
    if (state.size() != reference.size() ||
        std::memcmp(state.data(), reference.data(),
                    state.size() * sizeof(double)) != 0) {
      result.errors.push_back("cyl-device: segment " + seg.name() +
                              " diverged from lbm.pull");
      result.failed += static_cast<std::int64_t>(seg.windows.size());
    }
  }

  const double updates = static_cast<double>(steps) * static_cast<double>(n);
  set_unit_metrics(&result, updates / wall, segment_geomean(segments, 0.10),
                   segment_geomean(segments, 0.50),
                   segment_geomean(segments, kTailQuantile), setup_reps);
  if (!tracer) return result;

  // Per-layer metrics of the traced run.
  Metrics& L = result.layers;
  L.set("geom.voxelize_ms", quantile(voxelize_ms, 0.5), "ms");
  L.set("harvey.device_init_ms", setup.device_init_ms, "ms");

  std::int64_t boundary = 0;
  for (PointIndex i = 0; i < n; ++i)
    if (setup.lattice->node_type(i) != lbm::NodeType::kBulk) ++boundary;
  const double boundary_fraction =
      static_cast<double>(boundary) / static_cast<double>(n);
  const double triad = quantile(triads, 0.5);
  L.set("perf.triad_gbps", triad, "GB/s");

  const auto find = [&](const std::string& name) -> const Segment& {
    for (const Segment& seg : segments)
      if (seg.name() == name) return seg;
    return segments.front();
  };
  for (const lbm::Propagation p :
       {lbm::Propagation::kPullSoA, lbm::Propagation::kAAInPlace}) {
    const std::string tag = pattern_tag(p);
    const double lbm_ms = step_p50(find("lbm." + tag));
    L.set("lbm." + tag + ".step_ms_p50", lbm_ms, "ms");
    const double computed = computed_bytes_per_point(p, boundary_fraction);
    L.set("lbm.bytes_per_point_computed." + tag, computed, "B");
    L.set("lbm.bytes_per_point_model." + tag,
          lbm::propagation_bytes_per_point(p), "B");
    L.set("lbm.gbps_computed." + tag,
          computed * static_cast<double>(n) / (lbm_ms * 1e-3) / 1e9, "GB/s");

    // Architectural efficiency: the Eq. 1 prediction at the in-run triad
    // over the measured single-threaded step.
    sys::SystemSpec host;
    host.name = "host";
    host.devices_per_node = 1;
    host.mem_bandwidth_tbs = triad / 1e3;
    const perf::PerformanceModel model(
        host, perf::ModelParams::for_propagation(p));
    const double predicted_ms =
        model.predict(static_cast<double>(n), 1).t_streamcollide_s * 1e3;
    L.set("perf.arch_eff." + tag, predicted_ms / lbm_ms, "ratio");

    for (const char* family : {"cudax", "hipx", "syclx", "kokkosx"})
      L.set(std::string("hal.") + family + "." + tag + ".step_ms_p50",
            step_p50(find(std::string(family) + "." + tag)), "ms");
    L.set("hal.dispatch_overhead_pct." + tag,
          (step_p50(find("cudax1." + tag)) / lbm_ms - 1.0) * 100.0, "%");
  }

  std::int64_t device_updates = 0;
  for (const Segment& seg : segments)
    if (seg.device) device_updates += kStepsPerWindow * n;
  L.set("hal.kernel_launches",
        static_cast<double>(first_round.kernel_launches), "count");
  L.set("hal.index_efficiency",
        static_cast<double>(device_updates) /
            static_cast<double>(first_round.kernel_indices),
        "ratio");
  L.set("trace.cyl.overhead_pct",
        (summarize_windows(traced_windows).step_ms_p50 /
             summarize_windows(untraced_windows).step_ms_p50 -
         1.0) * 100.0,
        "%");
  return result;
}

}  // namespace hemo::bench
