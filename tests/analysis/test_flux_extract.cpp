// hemo-flux extractor tests.  The headline assertion is the paper's: the
// baseline D3Q19 stream-collide kernel of EVERY dialect corpus must
// statically derive to exactly perf::ModelParams::bytes_per_point
// (2*19*8 = 304 B) of distribution traffic per lattice point, and the
// halo pack/unpack kernels to one 8-byte double per crossing value.
// Fixture tests pin the symbolic-walk semantics the corpus counts rely
// on: loop multiplication, branch maxima, stride classification, and
// register-resident stack arrays.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/flux_extract.hpp"
#include "analysis/flux_ir.hpp"
#include "analysis/flux_rules.hpp"
#include "lbm/propagation.hpp"
#include "perf/model.hpp"
#include "port/corpus.hpp"

namespace analysis = hemo::analysis;
namespace port = hemo::port;

namespace {

const std::vector<port::CorpusDialect> kAllDialects = {
    port::CorpusDialect::kCudax, port::CorpusDialect::kHipx,
    port::CorpusDialect::kSyclx, port::CorpusDialect::kKokkosx};

const analysis::KernelProfile* find_kernel(
    const std::vector<analysis::KernelProfile>& profiles,
    const std::string& kernel) {
  for (const analysis::KernelProfile& p : profiles)
    if (p.kernel == kernel) return &p;
  return nullptr;
}

std::vector<analysis::KernelProfile> extract_fixture(
    const std::string& content) {
  return analysis::extract_kernel_profiles(
      {analysis::FluxSource{"fixture/kernels.h", content}});
}

}  // namespace

TEST(FluxExtract, HotLoopKernelsDeriveTheModel304BytesInEveryDialect) {
  const hemo::perf::ModelParams params;
  ASSERT_DOUBLE_EQ(params.bytes_per_point, 304.0);
  for (const port::CorpusDialect dialect : kAllDialects) {
    const auto profiles = analysis::extract_dialect_profiles(dialect);
    for (const char* kernel :
         {"StreamCollideKernel", "StreamOnlyKernel", "CollideOnlyKernel"}) {
      const analysis::KernelProfile* p = find_kernel(profiles, kernel);
      ASSERT_NE(p, nullptr) << kernel << " missing in dialect "
                            << static_cast<int>(dialect);
      EXPECT_TRUE(analysis::is_hot_loop_kernel(p->kernel));
      EXPECT_DOUBLE_EQ(p->distribution_bytes_per_point(),
                       params.bytes_per_point)
          << p->file << ":" << p->kernel;
    }
  }
}

TEST(FluxExtract, StreamedBytesFollowThePropagationPatternInEveryDialect) {
  // The array-pass convention of Section 6: the double-buffered pull
  // kernels make two passes (2*19*8 = 304 B/point), while kernels that
  // update their distribution storage in place — the AA pair and the
  // collide-only ablation — make one (19*8 = 152 B/point).
  const double pull_bytes =
      hemo::lbm::propagation_bytes_per_point(hemo::lbm::Propagation::kPullSoA);
  const double aa_bytes = hemo::lbm::propagation_bytes_per_point(
      hemo::lbm::Propagation::kAAInPlace);
  ASSERT_DOUBLE_EQ(pull_bytes, 304.0);
  ASSERT_DOUBLE_EQ(aa_bytes, 152.0);
  for (const port::CorpusDialect dialect : kAllDialects) {
    const auto profiles = analysis::extract_dialect_profiles(dialect);
    for (const char* kernel : {"StreamCollideKernel", "StreamOnlyKernel"}) {
      const analysis::KernelProfile* p = find_kernel(profiles, kernel);
      ASSERT_NE(p, nullptr) << kernel;
      EXPECT_FALSE(p->in_place_distribution_update())
          << p->file << ":" << p->kernel;
      EXPECT_DOUBLE_EQ(p->streamed_distribution_bytes_per_point(), pull_bytes)
          << p->file << ":" << p->kernel;
    }
    for (const char* kernel :
         {"StreamCollideAAEvenKernel", "StreamCollideAAOddKernel",
          "CollideOnlyKernel"}) {
      const analysis::KernelProfile* p = find_kernel(profiles, kernel);
      ASSERT_NE(p, nullptr) << kernel << " missing in dialect "
                            << static_cast<int>(dialect);
      EXPECT_TRUE(analysis::is_hot_loop_kernel(p->kernel));
      EXPECT_TRUE(p->in_place_distribution_update())
          << p->file << ":" << p->kernel;
      EXPECT_DOUBLE_EQ(p->streamed_distribution_bytes_per_point(), aa_bytes)
          << p->file << ":" << p->kernel;
    }
  }
}

TEST(FluxExtract, LocalArrayShadowingADeviceNameKeepsItsOwnBucket) {
  // The AA kernels declare a stack array `f` beside the device args.f;
  // the accumulator must keep the two apart (role is part of the access
  // key) or every register access would be charged as device traffic.
  const auto profiles = extract_fixture(R"(
struct ShadowKernel {
  hemo::lbm::KernelArgs args;
  void operator()(int i) const {
    double f[kQ];
    for (int q = 0; q < kQ; ++q) f[q] = args.f[q * args.n + i];
    for (int q = 0; q < kQ; ++q) f[q] += f[q];
    for (int q = 0; q < kQ; ++q) args.f[q * args.n + i] = f[q];
  }
};
)");
  const analysis::KernelProfile* p = find_kernel(profiles, "ShadowKernel");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->distribution_bytes_per_point(), 304.0);
  EXPECT_DOUBLE_EQ(p->streamed_distribution_bytes_per_point(), 152.0);
  EXPECT_DOUBLE_EQ(p->total_bytes_per_point(), 304.0);
  EXPECT_TRUE(p->in_place_distribution_update());
}

TEST(FluxExtract, HaloKernelsMoveOneDoublePerCrossingValue) {
  const hemo::perf::ModelParams params;
  for (const port::CorpusDialect dialect : kAllDialects) {
    const auto profiles = analysis::extract_dialect_profiles(dialect);
    const analysis::KernelProfile* pack =
        find_kernel(profiles, "PackHaloKernel");
    const analysis::KernelProfile* unpack =
        find_kernel(profiles, "UnpackHaloKernel");
    ASSERT_NE(pack, nullptr);
    ASSERT_NE(unpack, nullptr);
    const double pack_payload = pack->bytes_per_point(
        analysis::ArrayRole::kHaloBuffer, analysis::AccessDir::kStore);
    const double unpack_payload = unpack->bytes_per_point(
        analysis::ArrayRole::kHaloBuffer, analysis::AccessDir::kLoad);
    EXPECT_DOUBLE_EQ(pack_payload, 8.0);
    EXPECT_DOUBLE_EQ(unpack_payload, 8.0);
    // 5 crossing values per surface point => the model's 40 B.
    EXPECT_DOUBLE_EQ(
        pack_payload * analysis::kHaloValuesPerSurfacePoint,
        params.halo_bytes_per_surface_point);
  }
}

TEST(FluxExtract, DialectProfilesAgreeKernelForKernel) {
  // Stronger than the MT006 audit: the full per-kernel distribution AND
  // total byte counts of the hot kernels must agree across dialects.
  const auto reference =
      analysis::extract_dialect_profiles(port::CorpusDialect::kCudax);
  for (const port::CorpusDialect dialect :
       {port::CorpusDialect::kHipx, port::CorpusDialect::kSyclx,
        port::CorpusDialect::kKokkosx}) {
    const auto profiles = analysis::extract_dialect_profiles(dialect);
    for (const analysis::KernelProfile& ref : reference) {
      if (!analysis::is_hot_loop_kernel(ref.kernel)) continue;
      const analysis::KernelProfile* p = find_kernel(profiles, ref.kernel);
      ASSERT_NE(p, nullptr) << ref.kernel;
      EXPECT_DOUBLE_EQ(p->distribution_bytes_per_point(),
                       ref.distribution_bytes_per_point())
          << p->file;
      EXPECT_DOUBLE_EQ(p->total_bytes_per_point(),
                       ref.total_bytes_per_point())
          << p->file;
    }
  }
}

TEST(FluxExtract, PopulationLoopsMultiplyBy19) {
  const auto profiles = extract_fixture(R"(
struct StreamCollideKernel {
  void operator()(int i, int n) const {
    double f[kQ];
    for (int q = 0; q < kQ; ++q) f[q] = f_in[q * n + i];
    for (int q = 0; q < kQ; ++q) f_out[q * n + i] = f[q];
  }
};
)");
  const analysis::KernelProfile* p =
      find_kernel(profiles, "StreamCollideKernel");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->loads_per_point("f_in"), 19.0);
  EXPECT_DOUBLE_EQ(p->stores_per_point("f_out"), 19.0);
  EXPECT_DOUBLE_EQ(p->distribution_bytes_per_point(), 304.0);
  // The stack array is register-class: no streamed traffic at all.
  EXPECT_DOUBLE_EQ(p->total_bytes_per_point(), 304.0);
}

TEST(FluxExtract, BranchAlternativesContributeTheirMaximum) {
  // One branch loads f_in 19 times, the other stores f_out 19 times; the
  // charged bound is the per-array maximum, not the sum of both arms.
  const auto profiles = extract_fixture(R"(
struct ProbeKernel {
  void operator()(int i, int n) const {
    if (node_type[i] == 0) {
      for (int q = 0; q < kQ; ++q) out[i] += f_in[q * n + i];
    } else {
      for (int q = 0; q < kQ; ++q) f_out[q * n + i] = 1.0;
    }
  }
};
)");
  const analysis::KernelProfile* p = find_kernel(profiles, "ProbeKernel");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->loads_per_point("f_in"), 19.0);
  EXPECT_DOUBLE_EQ(p->stores_per_point("f_out"), 19.0);
  EXPECT_DOUBLE_EQ(p->loads_per_point("node_type"), 1.0);
}

TEST(FluxExtract, StrideClassification) {
  const auto profiles = extract_fixture(R"(
struct LayoutKernel {
  void operator()(int i, int n) const {
    out[i] = f_in[0 * n + i];        // SoA
    out[i] += f_old[i * kQ + 3];     // AoS
    out[i] += f_new[adjacency[i]];   // gather through the index array
  }
};
)");
  const analysis::KernelProfile* p = find_kernel(profiles, "LayoutKernel");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->touches_stride(analysis::ArrayRole::kDistribution,
                                analysis::StrideClass::kSoA));
  EXPECT_TRUE(p->touches_stride(analysis::ArrayRole::kDistribution,
                                analysis::StrideClass::kAoS));
  EXPECT_TRUE(p->touches_stride(analysis::ArrayRole::kDistribution,
                                analysis::StrideClass::kGather));
  EXPECT_TRUE(p->touches_stride(analysis::ArrayRole::kScratch,
                                analysis::StrideClass::kUnit));
}

TEST(FluxExtract, ConstantTablesAreNotStreamedTraffic) {
  const auto profiles = extract_fixture(R"(
struct WeightKernel {
  void operator()(int i, int n) const {
    double rho = 0.0;
    for (int q = 0; q < kQ; ++q) rho += kWeights[q] * f_in[q * n + i];
    out[i] = rho;
  }
};
)");
  const analysis::KernelProfile* p = find_kernel(profiles, "WeightKernel");
  ASSERT_NE(p, nullptr);
  // 19 f_in loads + 1 out store; the weight table is cached, not streamed.
  EXPECT_DOUBLE_EQ(p->total_bytes_per_point(), 19.0 * 8.0 + 8.0);
}

TEST(FluxExtract, UnrollPragmaLinesLeaveTheProfileUnchanged) {
  // lbm/kernels.hpp puts `#pragma GCC unroll 19` above every direction
  // loop; a directive line between the statements must not change what
  // the walk derives.  The pragma replaces a blank line, so the two
  // sources also agree line for line.
  const auto profile_with = [](const std::string& line) {
    const std::string header =
        "inline void copy_point(const hemo::lbm::KernelArgs& a,\n"
        "                       std::int64_t i) {\n"
        "  double f[kQ];\n" +
        line + "\n" +
        "  for (int q = 0; q < kQ; ++q) f[q] = a.f_in[q * a.n + i];\n" +
        line + "\n" +
        "  for (int q = 0; q < kQ; ++q) a.f_out[q * a.n + i] = f[q];\n"
        "}\n";
    const std::string functor = R"(
struct CopyKernel {
  hemo::lbm::KernelArgs args;
  void operator()(std::int64_t i) const { copy_point(args, i); }
};
)";
    const auto profiles = analysis::extract_kernel_profiles(
        {analysis::FluxSource{"fixture/kernels.h", functor},
         analysis::FluxSource{"fixture/kernels.hpp", header}});
    EXPECT_EQ(profiles.size(), 1u);
    return profiles.empty() ? analysis::KernelProfile{} : profiles.front();
  };
  const analysis::KernelProfile plain = profile_with("");
  const analysis::KernelProfile pragma = profile_with("  #pragma GCC unroll 19");
  EXPECT_DOUBLE_EQ(plain.distribution_bytes_per_point(), 304.0);
  EXPECT_EQ(pragma.kernel, plain.kernel);
  EXPECT_EQ(pragma.line, plain.line);
  EXPECT_EQ(pragma.accesses, plain.accesses);
  EXPECT_DOUBLE_EQ(pragma.flops_per_point, plain.flops_per_point);
}

TEST(FluxExtract, ProfilesComeBackSortedAndLocated) {
  for (const port::CorpusDialect dialect : kAllDialects) {
    const auto profiles = analysis::extract_dialect_profiles(dialect);
    ASSERT_GT(profiles.size(), 4u);
    for (std::size_t i = 1; i < profiles.size(); ++i)
      EXPECT_LE(std::make_pair(profiles[i - 1].file, profiles[i - 1].kernel),
                std::make_pair(profiles[i].file, profiles[i].kernel));
    for (const analysis::KernelProfile& p : profiles) {
      EXPECT_GT(p.line, 0) << p.kernel;
      EXPECT_FALSE(p.file.empty());
    }
  }
}
