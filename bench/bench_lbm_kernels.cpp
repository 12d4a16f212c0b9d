// Google-benchmark microbenchmarks of the LBM kernels on the host engine:
// the fused stream-collide versus the two-pass pipeline (ablation), the
// SoA versus AoS storage layout (ablation), the boundary-condition cost
// on inlet/outlet-capped geometry, the pull versus AA (in-place)
// propagation patterns, and the step engine's bulk path per ISA build.
//
// After the microbenchmarks the binary prints a pull-vs-AA MFLUPS table
// on a memory-bound cylinder (distribution arrays far larger than cache,
// where the AA pattern's single array pass per step — 152 B/point against
// pull's 304 — should convert into wall-clock).  The table follows the
// bench_common emit() convention (aligned text, "-- csv --" block, CSV
// artifact under HEMO_BENCH_CSV_DIR) but the binary stays standalone:
// it links only hemo_lbm + hemo_geom, not the campaign runtime.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "base/table.hpp"
#include "geom/cylinder.hpp"
#include "lbm/bulk_kernels.hpp"
#include "lbm/kernels.hpp"
#include "lbm/propagation.hpp"
#include "lbm/solver.hpp"
#include "lbm/step_engine.hpp"

namespace {

using namespace hemo;

struct KernelFixture {
  std::shared_ptr<lbm::SparseLattice> lattice;
  std::vector<double> f_in, f_out;
  std::vector<std::uint8_t> types;
  lbm::KernelArgs args;

  explicit KernelFixture(geom::CylinderEnds ends, double radius = 8.0,
                         double length = 24.0) {
    geom::CylinderSpec spec;
    spec.scale = 1.0;
    spec.radius_per_scale = radius;
    spec.axial_per_scale = length;
    lattice = geom::make_cylinder_lattice(spec, ends);
    const auto n = static_cast<std::size_t>(lattice->size());
    f_in.resize(static_cast<std::size_t>(lbm::kQ) * n);
    f_out.resize(f_in.size());
    types.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      types[i] = static_cast<std::uint8_t>(
          lattice->node_type(static_cast<PointIndex>(i)));
    for (int q = 0; q < lbm::kQ; ++q)
      std::fill_n(f_in.begin() + static_cast<std::ptrdiff_t>(q) *
                                     static_cast<std::ptrdiff_t>(n),
                  n, lbm::equilibrium(q, 1.0, 0.0, 0.0, 0.01));

    args.f_in = f_in.data();
    args.f_out = f_out.data();
    args.adjacency = lattice->adjacency().data();
    args.node_type = types.data();
    args.n = lattice->size();
    args.omega = 1.1;
    args.force_z = 1e-6;
    args.inlet_velocity = 0.01;
    args.outlet_density = 1.0;
  }
};

void BM_StreamCollideFused(benchmark::State& state) {
  KernelFixture fx(geom::CylinderEnds::kPeriodic);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < fx.args.n; ++i)
      lbm::stream_collide_point(fx.args, i);
    benchmark::DoNotOptimize(fx.f_out.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.args.n);
  state.SetBytesProcessed(state.iterations() * fx.args.n * 2 * 19 * 8);
}
BENCHMARK(BM_StreamCollideFused);

void BM_StreamThenCollideTwoPass(benchmark::State& state) {
  KernelFixture fx(geom::CylinderEnds::kPeriodic);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < fx.args.n; ++i)
      lbm::stream_point(fx.args, i);
    for (std::int64_t i = 0; i < fx.args.n; ++i)
      lbm::collide_point(fx.args, i);
    benchmark::DoNotOptimize(fx.f_out.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.args.n);
}
BENCHMARK(BM_StreamThenCollideTwoPass);

void BM_StreamCollideSoA(benchmark::State& state) {
  KernelFixture fx(geom::CylinderEnds::kPeriodic);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < fx.args.n; ++i)
      lbm::stream_collide_point(fx.args, i);
    benchmark::DoNotOptimize(fx.f_out.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.args.n);
}
BENCHMARK(BM_StreamCollideSoA);

void BM_StreamCollideAoS(benchmark::State& state) {
  KernelFixture fx(geom::CylinderEnds::kPeriodic);
  // Re-pack the initial state into AoS order.
  const auto n = static_cast<std::size_t>(fx.args.n);
  std::vector<double> aos_in(fx.f_in.size()), aos_out(fx.f_out.size());
  for (std::size_t i = 0; i < n; ++i)
    for (int q = 0; q < lbm::kQ; ++q)
      aos_in[i * lbm::kQ + static_cast<std::size_t>(q)] =
          fx.f_in[static_cast<std::size_t>(q) * n + i];
  fx.args.f_in = aos_in.data();
  fx.args.f_out = aos_out.data();
  for (auto _ : state) {
    for (std::int64_t i = 0; i < fx.args.n; ++i)
      lbm::stream_collide_point_aos(fx.args, i);
    benchmark::DoNotOptimize(aos_out.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.args.n);
}
BENCHMARK(BM_StreamCollideAoS);

void BM_StreamCollideAAInPlace(benchmark::State& state) {
  // One iteration = one even + one odd step over the single array (the AA
  // update is only meaningful as the two-step pair).
  KernelFixture fx(geom::CylinderEnds::kPeriodic);
  fx.args.f = fx.f_in.data();
  for (auto _ : state) {
    for (std::int64_t i = 0; i < fx.args.n; ++i)
      lbm::stream_collide_point_aa_even(fx.args, i);
    for (std::int64_t i = 0; i < fx.args.n; ++i)
      lbm::stream_collide_point_aa_odd(fx.args, i);
    benchmark::DoNotOptimize(fx.f_in.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * fx.args.n);
  state.SetBytesProcessed(state.iterations() * 2 * fx.args.n * 19 * 8);
}
BENCHMARK(BM_StreamCollideAAInPlace);

void BM_StreamCollideWithZouHeCaps(benchmark::State& state) {
  KernelFixture fx(geom::CylinderEnds::kInletOutlet);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < fx.args.n; ++i)
      lbm::stream_collide_point(fx.args, i);
    benchmark::DoNotOptimize(fx.f_out.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.args.n);
}
BENCHMARK(BM_StreamCollideWithZouHeCaps);

void BM_FullSolverStep(benchmark::State& state) {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 6.0;
  spec.axial_per_scale = 24.0;
  auto lattice =
      geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
  lbm::SolverOptions options;
  options.tau = 0.9;
  options.inlet_velocity = 0.01;
  lbm::Solver solver(lattice, options);
  for (auto _ : state) solver.step();
  state.SetItemsProcessed(state.iterations() * solver.size());
}
BENCHMARK(BM_FullSolverStep);

/// One iteration = two steps (an AA even/odd pair) of the step engine on
/// the 230,912-point inlet/outlet cylinder of HemoBench's cyl-device,
/// with the bulk loops of one ISA build: range(0) 0 baseline, 1 AVX-512;
/// range(1) 0 pull, 1 AA.
void BM_EngineStep(benchmark::State& state) {
  const lbm::BulkIsa isa =
      state.range(0) == 0 ? lbm::BulkIsa::kBaseline : lbm::BulkIsa::kAvx512;
  const lbm::Propagation pattern = state.range(1) == 0
                                       ? lbm::Propagation::kPullSoA
                                       : lbm::Propagation::kAAInPlace;
  if (!lbm::bulk_isa_supported(isa)) {
    state.SkipWithError("this CPU lacks AVX-512F");
    return;
  }
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 24.0;
  spec.axial_per_scale = 128.0;
  const auto lattice =
      geom::make_cylinder_lattice(spec, geom::CylinderEnds::kInletOutlet);
  const std::int64_t n = lattice->size();
  const bool aa = pattern == lbm::Propagation::kAAInPlace;
  std::vector<double> f_a(static_cast<std::size_t>(lbm::kQ) *
                          static_cast<std::size_t>(n));
  std::vector<double> f_b(aa ? 0 : f_a.size());
  lbm::StepEngine engine(
      pattern,
      {f_a.data(), aa ? nullptr : f_b.data(), lattice->adjacency().data(),
       reinterpret_cast<const std::uint8_t*>(lattice->node_types().data()), n},
      isa);
  lbm::SolverOptions options;
  options.tau = 0.9;
  options.inlet_velocity = 0.01;
  options.propagation = pattern;
  engine.fill_equilibrium(options);
  for (auto _ : state) {
    engine.step(options);
    engine.step(options);
    benchmark::DoNotOptimize(engine.live());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
  state.SetLabel(
      std::string(isa == lbm::BulkIsa::kAvx512 ? "avx512" : "baseline") +
      (aa ? " aa" : " pull"));
}
BENCHMARK(BM_EngineStep)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Pull-vs-AA MFLUPS table on a memory-bound geometry.
// ---------------------------------------------------------------------------

struct MflupsResult {
  std::int64_t steps = 0;
  double seconds = 0.0;
  double mflups = 0.0;
};

MflupsResult solver_mflups(
    const std::shared_ptr<const lbm::SparseLattice>& lattice,
    lbm::Propagation pattern) {
  lbm::SolverOptions options;
  options.tau = 0.9;
  options.body_force = {0.0, 0.0, 1e-6};
  options.propagation = pattern;
  lbm::Solver solver(lattice, options);
  for (int s = 0; s < 4; ++s) solver.step();  // warm-up

  const auto run = [&](std::int64_t steps) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::int64_t s = 0; s < steps; ++s) solver.step();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };

  // Pilot run sizes the measurement to ~0.4 s of wall clock.
  const double pilot = run(5) / 5.0;
  MflupsResult r;
  r.steps = std::max<std::int64_t>(
      20, std::min<std::int64_t>(400, static_cast<std::int64_t>(0.4 / pilot)));
  r.seconds = run(r.steps);
  r.mflups = static_cast<double>(solver.size()) *
             static_cast<double>(r.steps) / r.seconds / 1e6;
  return r;
}

/// bench_common emit() convention (aligned text + "-- csv --" block +
/// HEMO_BENCH_CSV_DIR artifact) without linking the campaign runtime.
/// The title doubles as the artifact stem, so keep it filesystem-safe.
void emit_table(const std::string& title, const Table& table) {
  std::cout << "== " << title << " ==\n";
  table.print_aligned(std::cout);
  std::cout << "-- csv --\n";
  table.print_csv(std::cout);
  std::cout << "\n";
  if (const char* dir = std::getenv("HEMO_BENCH_CSV_DIR")) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::ofstream out(std::filesystem::path(dir) / (title + ".csv"));
    if (out)
      table.print_csv(out);
    else
      std::cerr << "bench: cannot write CSV artifact under " << dir << "\n";
  }
}

void report_propagation_mflups() {
  // Large enough that the distribution storage (pull: ~2*19*8 B/point,
  // here tens of MB) cannot sit in cache: the patterns' byte counts, not
  // their instruction counts, should dominate.
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 24.0;
  spec.axial_per_scale = 128.0;
  const auto lattice =
      geom::make_cylinder_lattice(spec, geom::CylinderEnds::kPeriodic);

  Table table({"pattern", "points", "steps", "seconds", "mflups",
               "model_bytes_per_point", "speedup_vs_pull"});
  const MflupsResult pull =
      solver_mflups(lattice, lbm::Propagation::kPullSoA);
  const MflupsResult aa =
      solver_mflups(lattice, lbm::Propagation::kAAInPlace);
  for (const auto& [pattern, r] :
       {std::pair{lbm::Propagation::kPullSoA, pull},
        std::pair{lbm::Propagation::kAAInPlace, aa}}) {
    table.add_row({lbm::propagation_name(pattern),
                   std::to_string(lattice->size()), std::to_string(r.steps),
                   Table::num(r.seconds),
                   Table::num(r.mflups),
                   Table::num(lbm::propagation_bytes_per_point(pattern), 0),
                   Table::num(r.mflups / pull.mflups, 2)});
  }
  emit_table("lbm_propagation_mflups", table);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report_propagation_mflups();
  return 0;
}
