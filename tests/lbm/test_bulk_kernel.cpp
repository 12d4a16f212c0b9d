// BulkKernel suite: the step engine's bulk path against the per-point
// reference kernels of kernels.hpp, bit for bit.  The engine streams bulk
// points through its 32-bit slot table in a vectorized loop and runs the
// reference kernels on the inlet/outlet points only, one launch of
// kStepBlock-point blocks per step.  Each ISA build of the bulk loops is
// chosen explicitly and checked on its own, under every dialect and at
// engine threads {1, 2, 3}, against a plain loop of the reference kernels
// over the int64 adjacency.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "geom/aorta.hpp"
#include "geom/cylinder.hpp"
#include "hal/device.hpp"
#include "hal/kokkosx.hpp"
#include "hal/launch.hpp"
#include "lbm/bulk_kernels.hpp"
#include "lbm/kernels.hpp"
#include "lbm/step_engine.hpp"

namespace lbm = hemo::lbm;
namespace geom = hemo::geom;
namespace hal = hemo::hal;

namespace {

constexpr int kSteps = 4;  // two AA even/odd pairs

struct Workload {
  std::string name;
  std::shared_ptr<lbm::SparseLattice> lattice;
  lbm::SolverOptions options;
};

std::shared_ptr<lbm::SparseLattice> cylinder(double radius, double length,
                                             geom::CylinderEnds ends) {
  geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = radius;
  spec.axial_per_scale = length;
  return geom::make_cylinder_lattice(spec, ends);
}

lbm::SolverOptions driven() {
  lbm::SolverOptions o;
  o.tau = 0.8;
  o.inlet_velocity = 0.015;
  o.outlet_density = 1.0;
  o.body_force = {0.0, 0.0, 1e-6};
  return o;
}

/// The four lattices the suite runs: inlet/outlet ends, periodic ends with
/// a body force only, a multi-outlet aorta, and a lattice smaller than
/// two blocks whose size is not a multiple of the block.
std::vector<Workload> workloads() {
  std::vector<Workload> w;
  w.push_back({"inlet/outlet cylinder",
               cylinder(6.0, 40.0, geom::CylinderEnds::kInletOutlet),
               driven()});
  lbm::SolverOptions periodic;
  periodic.tau = 0.9;
  periodic.body_force = {0.0, 0.0, 2e-6};
  w.push_back({"periodic body-force cylinder",
               cylinder(6.0, 40.0, geom::CylinderEnds::kPeriodic), periodic});
  geom::AortaSpec aorta;
  aorta.spacing_mm = 2.6;
  w.push_back({"aorta", geom::make_aorta_lattice(aorta), driven()});
  w.push_back({"partial-block cylinder",
               cylinder(3.0, 9.0, geom::CylinderEnds::kInletOutlet),
               driven()});
  return w;
}

bool same_bits(const std::vector<double>& a, const double* b,
               std::size_t* first_diff) {
  for (std::size_t k = 0; k < a.size(); ++k) {
    std::uint64_t x = 0, y = 0;
    std::memcpy(&x, &a[k], sizeof x);
    std::memcpy(&y, &b[k], sizeof y);
    if (x != y) {
      *first_diff = k;
      return false;
    }
  }
  return true;
}

/// The oracle: the per-point reference kernels in a plain loop over the
/// lattice's int64 adjacency, on arrays of its own.
class Reference {
 public:
  Reference(const lbm::SparseLattice& lattice, lbm::SolverOptions options)
      : lattice_(lattice), options_(options) {
    const auto n = static_cast<std::size_t>(lattice.size());
    live_.resize(static_cast<std::size_t>(lbm::kQ) * n);
    spare_.resize(live_.size());
    const bool aa = options.propagation == lbm::Propagation::kAAInPlace;
    for (int q = 0; q < lbm::kQ; ++q)
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t at = static_cast<std::size_t>(q) * n + i;
        const bool wall = lattice.adjacency()[at] == hemo::kSolidNeighbor;
        const int qe = aa && wall ? lbm::opposite(q) : q;
        live_[at] = lbm::equilibrium(qe, options.initial_density,
                                     options.initial_velocity.x,
                                     options.initial_velocity.y,
                                     options.initial_velocity.z);
      }
  }

  void step() {
    lbm::KernelArgs a;
    a.f_in = live_.data();
    a.f_out = spare_.data();
    a.f = live_.data();
    a.adjacency = lattice_.adjacency().data();
    a.node_type =
        reinterpret_cast<const std::uint8_t*>(lattice_.node_types().data());
    a.n = lattice_.size();
    a.omega = 1.0 / options_.tau;
    a.force_x = options_.body_force.x;
    a.force_y = options_.body_force.y;
    a.force_z = options_.body_force.z;
    a.inlet_velocity = options_.inlet_velocity;
    a.outlet_density = options_.outlet_density;
    for (std::int64_t i = 0; i < a.n; ++i) {
      if (options_.propagation == lbm::Propagation::kPullSoA) {
        lbm::stream_collide_point(a, i);
      } else if (steps_ % 2 == 0) {
        lbm::stream_collide_point_aa_even(a, i);
      } else {
        lbm::stream_collide_point_aa_odd(a, i);
      }
    }
    if (options_.propagation == lbm::Propagation::kPullSoA)
      std::swap(live_, spare_);
    ++steps_;
  }

  const std::vector<double>& live() const { return live_; }

 private:
  const lbm::SparseLattice& lattice_;
  lbm::SolverOptions options_;
  std::vector<double> live_, spare_;
  std::int64_t steps_ = 0;
};

/// Steps the engine with `isa` and the reference side by side and
/// compares the live arrays after the fill and after every step.
void expect_engine_matches_reference(const Workload& w,
                                     lbm::Propagation pattern,
                                     lbm::BulkIsa isa,
                                     std::optional<hal::Model> model) {
  lbm::SolverOptions options = w.options;
  options.propagation = pattern;
  const lbm::SparseLattice& lattice = *w.lattice;
  const std::int64_t n = lattice.size();
  const bool aa = pattern == lbm::Propagation::kAAInPlace;
  std::vector<double> f_a(static_cast<std::size_t>(lbm::kQ) *
                          static_cast<std::size_t>(n));
  std::vector<double> f_b(aa ? 0 : f_a.size());
  lbm::StepEngine engine(
      pattern,
      {f_a.data(), aa ? nullptr : f_b.data(), lattice.adjacency().data(),
       reinterpret_cast<const std::uint8_t*>(lattice.node_types().data()), n},
      isa);
  engine.fill_equilibrium(options, model);
  Reference reference(lattice, options);

  std::size_t diff = 0;
  ASSERT_TRUE(same_bits(reference.live(), engine.live(), &diff))
      << "fill differs at slot " << diff;
  for (int s = 1; s <= kSteps; ++s) {
    engine.step(options, model);
    reference.step();
    ASSERT_TRUE(same_bits(reference.live(), engine.live(), &diff))
        << "step " << s << " differs at slot " << diff;
  }
}

/// Runs the comparison on every workload, with the host loop and with
/// every dialect at engine threads 1, 2 and 3.
void expect_isa_matches_reference(lbm::Propagation pattern, lbm::BulkIsa isa) {
  hal::DeviceEngine& device = hal::DeviceEngine::instance();
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(w.name);
    {
      SCOPED_TRACE("host loop");
      expect_engine_matches_reference(w, pattern, isa, std::nullopt);
    }
    for (const hal::Model model : hal::kAllModels) {
      const bool owns_kokkos = hal::acquire_kokkos_runtime(model);
      for (const int threads : {1, 2, 3}) {
        SCOPED_TRACE(std::string(hal::name_of(model)) + ", " +
                     std::to_string(threads) + " thread(s)");
        device.set_threads(threads);
        expect_engine_matches_reference(w, pattern, isa, model);
      }
      device.set_threads(1);
      if (owns_kokkos) hal::kokkosx::finalize();
    }
  }
}

/// Calls one ISA's loops directly over runs of bulk points of the periodic
/// cylinder (every point kBulk), against the reference kernels over the
/// same runs.
void expect_loops_match_reference(lbm::BulkIsa isa) {
  lbm::SolverOptions options = workloads()[1].options;
  const auto lattice = cylinder(6.0, 40.0, geom::CylinderEnds::kPeriodic);
  const std::int64_t n = lattice->size();
  const lbm::BulkKernels& loops = lbm::bulk_kernels(isa);

  for (const lbm::Propagation pattern :
       {lbm::Propagation::kPullSoA, lbm::Propagation::kAAInPlace}) {
    options.propagation = pattern;
    const bool aa = pattern == lbm::Propagation::kAAInPlace;
    // The engine only lays out the initial state and builds the kernel
    // arguments; it is not stepped.
    std::vector<double> f(static_cast<std::size_t>(lbm::kQ) *
                          static_cast<std::size_t>(n));
    std::vector<double> out(aa ? 0 : f.size());
    std::vector<double> expected_out(out.size());
    lbm::StepEngine engine(
        pattern,
        {f.data(), aa ? nullptr : out.data(), lattice->adjacency().data(),
         reinterpret_cast<const std::uint8_t*>(lattice->node_types().data()),
         n},
        isa);
    engine.fill_equilibrium(options);
    // A non-uniform state, so every gathered value matters.
    for (std::size_t k = 0; k < f.size(); ++k)
      f[k] *= 1.0 + 1e-3 * static_cast<double>(k % 97);

    // Rebuild the table the engine uses from the adjacency, as documented.
    std::vector<lbm::Slot> slots(f.size());
    for (int q = 0; q < lbm::kQ; ++q)
      for (std::int64_t i = 0; i < n; ++i) {
        const std::size_t at =
            static_cast<std::size_t>(q) * static_cast<std::size_t>(n) +
            static_cast<std::size_t>(i);
        const hemo::PointIndex up = lattice->adjacency()[at];
        const int row = aa ? (up == hemo::kSolidNeighbor ? q
                                                         : lbm::opposite(q))
                           : (up == hemo::kSolidNeighbor ? lbm::opposite(q)
                                                         : q);
        const std::int64_t point = up == hemo::kSolidNeighbor ? i : up;
        slots[at] = static_cast<lbm::Slot>(row * n + point);
      }

    lbm::KernelArgs a = engine.args(options);
    a.adjacency = lattice->adjacency().data();  // for the reference side
    // Runs that start and end off block and vector boundaries.
    const std::pair<std::int64_t, std::int64_t> runs[] = {
        {0, 1}, {3, 260}, {261, n - 5}, {n - 5, n}};
    const auto sweep = [&](const lbm::KernelArgs& args, bool bulk, int parity) {
      for (const auto& [lo, hi] : runs) {
        if (bulk) {
          const lbm::BulkArgs run{args, slots.data()};
          (aa ? (parity == 0 ? loops.aa_even : loops.aa_odd) : loops.pull)(
              run, lo, hi);
          continue;
        }
        for (std::int64_t i = lo; i < hi; ++i) {
          if (!aa) {
            lbm::stream_collide_point(args, i);
          } else if (parity == 0) {
            lbm::stream_collide_point_aa_even(args, i);
          } else {
            lbm::stream_collide_point_aa_odd(args, i);
          }
        }
      }
    };

    std::size_t diff = 0;
    if (!aa) {
      lbm::KernelArgs ref = a;
      ref.f_out = expected_out.data();
      sweep(ref, /*bulk=*/false, 0);
      sweep(a, /*bulk=*/true, 0);
      EXPECT_TRUE(same_bits(expected_out, out.data(), &diff))
          << "pull differs at slot " << diff;
      continue;
    }
    std::vector<double> expected = f;
    lbm::KernelArgs ref = a;
    ref.f_in = expected.data();
    ref.f = expected.data();
    for (const int parity : {0, 1}) {
      sweep(ref, /*bulk=*/false, parity);
      sweep(a, /*bulk=*/true, parity);
      EXPECT_TRUE(same_bits(expected, f.data(), &diff))
          << "AA parity " << parity << " differs at slot " << diff;
    }
  }
}

}  // namespace

TEST(BulkKernel, NativeIsaFollowsTheCpu) {
  EXPECT_TRUE(lbm::bulk_isa_supported(lbm::BulkIsa::kBaseline));
  const bool avx512 = __builtin_cpu_supports("avx512f") != 0;
  EXPECT_EQ(lbm::bulk_isa_supported(lbm::BulkIsa::kAvx512), avx512);
  EXPECT_EQ(lbm::native_bulk_isa(),
            avx512 ? lbm::BulkIsa::kAvx512 : lbm::BulkIsa::kBaseline);
}

TEST(BulkKernel, BaselineLoopsMatchReferenceKernelsOnBulkRuns) {
  expect_loops_match_reference(lbm::BulkIsa::kBaseline);
}

TEST(BulkKernel, Avx512LoopsMatchReferenceKernelsOnBulkRuns) {
  if (!lbm::bulk_isa_supported(lbm::BulkIsa::kAvx512))
    GTEST_SKIP() << "this CPU lacks AVX-512F";
  expect_loops_match_reference(lbm::BulkIsa::kAvx512);
}

TEST(BulkKernel, BaselinePullStepMatchesReferenceKernels) {
  expect_isa_matches_reference(lbm::Propagation::kPullSoA,
                               lbm::BulkIsa::kBaseline);
}

TEST(BulkKernel, BaselineAAStepsMatchReferenceKernels) {
  expect_isa_matches_reference(lbm::Propagation::kAAInPlace,
                               lbm::BulkIsa::kBaseline);
}

TEST(BulkKernel, Avx512PullStepMatchesReferenceKernels) {
  if (!lbm::bulk_isa_supported(lbm::BulkIsa::kAvx512))
    GTEST_SKIP() << "this CPU lacks AVX-512F";
  expect_isa_matches_reference(lbm::Propagation::kPullSoA,
                               lbm::BulkIsa::kAvx512);
}

TEST(BulkKernel, Avx512AAStepsMatchReferenceKernels) {
  if (!lbm::bulk_isa_supported(lbm::BulkIsa::kAvx512))
    GTEST_SKIP() << "this CPU lacks AVX-512F";
  expect_isa_matches_reference(lbm::Propagation::kAAInPlace,
                               lbm::BulkIsa::kAvx512);
}

TEST(BulkKernel, WorkloadsCoverZouHeAndPartialBlocks) {
  const std::vector<Workload> w = workloads();
  const auto zou_he_points = [](const lbm::SparseLattice& l) {
    std::int64_t count = 0;
    for (const lbm::NodeType t : l.node_types())
      if (t != lbm::NodeType::kBulk) ++count;
    return count;
  };
  EXPECT_GT(zou_he_points(*w[0].lattice), 0);
  EXPECT_EQ(zou_he_points(*w[1].lattice), 0);
  EXPECT_GT(zou_he_points(*w[2].lattice), 0);
  // Enough blocks that 2 and 3 engine threads really split the launch.
  EXPECT_GE(w[0].lattice->size(), 6 * lbm::kStepBlock);
  EXPECT_GE(w[2].lattice->size(), 6 * lbm::kStepBlock);
  EXPECT_LT(w[3].lattice->size(), 2 * lbm::kStepBlock);
  EXPECT_NE(w[3].lattice->size() % lbm::kStepBlock, 0);
}

TEST(BulkKernel, OneLaunchOfBlocksPerStep) {
  const auto lattice = cylinder(6.0, 40.0, geom::CylinderEnds::kInletOutlet);
  const std::int64_t n = lattice->size();
  const std::int64_t blocks = (n + lbm::kStepBlock - 1) / lbm::kStepBlock;
  std::vector<double> f_a(static_cast<std::size_t>(lbm::kQ) *
                          static_cast<std::size_t>(n));
  std::vector<double> f_b(f_a.size());
  lbm::StepEngine engine(
      lbm::Propagation::kPullSoA,
      {f_a.data(), f_b.data(), lattice->adjacency().data(),
       reinterpret_cast<const std::uint8_t*>(lattice->node_types().data()), n});
  const lbm::SolverOptions options = driven();
  hal::DeviceEngine& device = hal::DeviceEngine::instance();

  device.reset_counters();
  engine.step(options, hal::Model::kSycl);
  EXPECT_EQ(device.counters().kernel_launches, 1);
  EXPECT_EQ(device.counters().kernel_indices, blocks);

  // cudax rounds the block count up to whole 256-wide grid blocks.
  device.reset_counters();
  engine.step(options, hal::Model::kCuda);
  EXPECT_EQ(device.counters().kernel_launches, 1);
  EXPECT_EQ(device.counters().kernel_indices,
            (blocks + hal::kLaunchBlock - 1) / hal::kLaunchBlock *
                hal::kLaunchBlock);
}

// BlockStep::range over arbitrary spans — cut at every Zou-He point and
// right after it, and at irregular strides off block and vector
// boundaries, run last span first — makes the same step as step()'s
// blocks, bit for bit, under pull and both AA parities.
TEST(BulkKernel, RangeEntryOverAnySpansMatchesBlockStep) {
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(w.name);
    const lbm::SparseLattice& lattice = *w.lattice;
    const std::int64_t n = lattice.size();
    std::vector<std::int64_t> cuts = {0, n};
    for (std::int64_t i = 0; i < n; ++i)
      if (lattice.node_types()[static_cast<std::size_t>(i)] !=
          lbm::NodeType::kBulk) {
        cuts.push_back(i);
        cuts.push_back(i + 1);
      }
    for (std::int64_t i = 5; i < n; i += 37) cuts.push_back(i);
    for (std::int64_t i = 3; i < n; i += 301) cuts.push_back(i);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    for (const lbm::Propagation pattern :
         {lbm::Propagation::kPullSoA, lbm::Propagation::kAAInPlace}) {
      lbm::SolverOptions options = w.options;
      options.propagation = pattern;
      const bool aa = pattern == lbm::Propagation::kAAInPlace;
      const lbm::StepStorage storage{
          nullptr, nullptr, lattice.adjacency().data(),
          reinterpret_cast<const std::uint8_t*>(lattice.node_types().data()),
          n};
      std::vector<double> blocks_a(static_cast<std::size_t>(lbm::kQ) *
                                   static_cast<std::size_t>(n));
      std::vector<double> blocks_b(aa ? 0 : blocks_a.size());
      std::vector<double> spans_a(blocks_a.size()), spans_b(blocks_b.size());
      lbm::StepStorage by_blocks = storage, by_spans = storage;
      by_blocks.f_a = blocks_a.data();
      by_blocks.f_b = aa ? nullptr : blocks_b.data();
      by_spans.f_a = spans_a.data();
      by_spans.f_b = aa ? nullptr : spans_b.data();
      lbm::StepEngine reference(pattern, by_blocks);
      lbm::StepEngine engine(pattern, by_spans);
      reference.fill_equilibrium(options);
      engine.fill_equilibrium(options);
      for (int s = 1; s <= kSteps; ++s) {
        reference.step(options);
        const lbm::StepEngine::BlockStep step = engine.blocks(options);
        for (std::size_t k = cuts.size() - 1; k > 0; --k)
          step.range(cuts[k - 1], cuts[k]);
        engine.commit();
        std::size_t diff = 0;
        ASSERT_TRUE(same_bits(
            std::vector<double>(reference.live(),
                                reference.live() + blocks_a.size()),
            engine.live(), &diff))
            << (aa ? "AA" : "pull") << " step " << s << " differs at slot "
            << diff;
      }
    }
  }
}

TEST(BulkKernel, SlotTablesNeedKQTimesNPlusRegionBelow2To31) {
  // Every flat index, q * n + i in a row or kQ * n + k in the region, is a
  // 32-bit Slot.  A one-point lattice with walls all round keeps the table
  // at kQ entries while the region runs up to the limit; the outside cases
  // die on the precondition before anything is allocated or read.
  double dummy = 0.0;
  const std::vector<hemo::PointIndex> walls(lbm::kQ, hemo::kSolidNeighbor);
  const auto bulk = static_cast<std::uint8_t>(lbm::NodeType::kBulk);
  const std::int64_t max = std::numeric_limits<lbm::Slot>::max();
  const std::int64_t widest = max / lbm::kQ;
  const auto storage = [&](std::int64_t n, std::int64_t region) {
    return lbm::StepStorage{&dummy, &dummy, walls.data(), &bulk, n, region};
  };

  // region: all of the range, and one value past it.
  lbm::StepEngine region_fits(lbm::Propagation::kPullSoA, storage(0, max));
  EXPECT_EQ(region_fits.steps_done(), 0);
  EXPECT_DEATH(lbm::StepEngine(lbm::Propagation::kPullSoA,
                               storage(0, max + 1)),
               "Precondition");
  // n and region together: kQ * n + region at the limit, and one past it.
  lbm::StepEngine both_fit(lbm::Propagation::kPullSoA,
                           storage(1, max - lbm::kQ));
  EXPECT_EQ(both_fit.steps_done(), 0);
  EXPECT_DEATH(lbm::StepEngine(lbm::Propagation::kPullSoA,
                               storage(1, max - lbm::kQ + 1)),
               "Precondition");
  // n: the widest n leaves kQ * widest + max % kQ below the limit; one
  // point more does not fit even with no region.  The widest table itself
  // (2^31 slots) is not built here.
  EXPECT_DEATH(lbm::StepEngine(lbm::Propagation::kPullSoA,
                               storage(widest, max % lbm::kQ + 1)),
               "Precondition");
  EXPECT_DEATH(lbm::StepEngine(lbm::Propagation::kPullSoA,
                               storage(widest + 1, 0)),
               "Precondition");
}
