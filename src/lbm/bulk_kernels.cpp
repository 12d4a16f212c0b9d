#include "lbm/bulk_kernels.hpp"

#include <cstddef>

namespace hemo::lbm {
namespace {

// The per-point bodies below are the reference kernels' arithmetic,
// moments_of + bgk_collide on the 19 streamed-in populations; only the
// addressing differs.  Row offsets are size_t, as in kernels.hpp.

[[gnu::always_inline]] inline void pull_point(const BulkArgs& b,
                                              std::size_t i) {
  const auto n = static_cast<std::size_t>(b.k.n);
  double f[kQ];
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q)
    f[q] = b.k.f_in[b.slots[static_cast<std::size_t>(q) * n + i]];
  const Moments m = moments_of(f, b.k.force_x, b.k.force_y, b.k.force_z);
  double out[kQ];
  bgk_collide(f, m, b.k.omega, b.k.force_x, b.k.force_y, b.k.force_z, out);
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q)
    b.k.f_out[static_cast<std::size_t>(q) * n + i] = out[q];
}

[[gnu::always_inline]] inline void aa_even_point(const BulkArgs& b,
                                                 std::size_t i) {
  const auto n = static_cast<std::size_t>(b.k.n);
  double f[kQ];
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q)
    f[q] = b.k.f[static_cast<std::size_t>(q) * n + i];
  const Moments m = moments_of(f, b.k.force_x, b.k.force_y, b.k.force_z);
  double out[kQ];
  bgk_collide(f, m, b.k.omega, b.k.force_x, b.k.force_y, b.k.force_z, out);
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q)
    b.k.f[static_cast<std::size_t>(opposite(q)) * n + i] = out[q];
}

[[gnu::always_inline]] inline void aa_odd_point(const BulkArgs& b,
                                                std::size_t i) {
  const auto n = static_cast<std::size_t>(b.k.n);
  Slot at[kQ];
  double f[kQ];
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q) {
    at[q] = b.slots[static_cast<std::size_t>(q) * n + i];
    f[q] = b.k.f[at[q]];
  }
  const Moments m = moments_of(f, b.k.force_x, b.k.force_y, b.k.force_z);
  double out[kQ];
  bgk_collide(f, m, b.k.omega, b.k.force_x, b.k.force_y, b.k.force_z, out);
  #pragma GCC unroll 19
  for (int q = 0; q < kQ; ++q) b.k.f[at[opposite(q)]] = out[q];
}

/// The vectorized loop over one of the bodies.  Iterations are independent:
/// pull writes only f_out, an AA even point touches only its own column,
/// and every slot an AA odd point reads or writes is that point's alone
/// (kernels.hpp).  The body stays a separate function on purpose: GCC
/// privatizes arrays declared directly in an `omp simd` loop into per-lane
/// arrays and then refuses to vectorize it, while arrays of an inlined call
/// become registers first.
template <void (*Point)(const BulkArgs&, std::size_t)>
[[gnu::always_inline]] inline void simd_loop(const BulkArgs& b,
                                             std::int64_t lo,
                                             std::int64_t hi) {
  const BulkArgs args = b;  // a local copy: no store in the loop aliases it
  #pragma omp simd
  for (std::int64_t i = lo; i < hi; ++i)
    Point(args, static_cast<std::size_t>(i));
}

// The two builds of each loop.  flatten inlines moments_of, bgk_collide and
// equilibrium into the loop, so they are compiled for the caller's ISA.

[[gnu::flatten]] void pull_baseline(const BulkArgs& b, std::int64_t lo,
                                    std::int64_t hi) {
  simd_loop<pull_point>(b, lo, hi);
}
[[gnu::flatten]] void aa_even_baseline(const BulkArgs& b, std::int64_t lo,
                                       std::int64_t hi) {
  simd_loop<aa_even_point>(b, lo, hi);
}
[[gnu::flatten]] void aa_odd_baseline(const BulkArgs& b, std::int64_t lo,
                                      std::int64_t hi) {
  simd_loop<aa_odd_point>(b, lo, hi);
}

[[gnu::flatten, gnu::target("avx512f")]] void pull_avx512(const BulkArgs& b,
                                                          std::int64_t lo,
                                                          std::int64_t hi) {
  simd_loop<pull_point>(b, lo, hi);
}
[[gnu::flatten, gnu::target("avx512f")]] void aa_even_avx512(
    const BulkArgs& b, std::int64_t lo, std::int64_t hi) {
  simd_loop<aa_even_point>(b, lo, hi);
}
[[gnu::flatten, gnu::target("avx512f")]] void aa_odd_avx512(
    const BulkArgs& b, std::int64_t lo, std::int64_t hi) {
  simd_loop<aa_odd_point>(b, lo, hi);
}

constexpr BulkKernels kBaseline{pull_baseline, aa_even_baseline,
                                aa_odd_baseline};
constexpr BulkKernels kAvx512{pull_avx512, aa_even_avx512, aa_odd_avx512};

}  // namespace

const BulkKernels& bulk_kernels(BulkIsa isa) {
  return isa == BulkIsa::kAvx512 ? kAvx512 : kBaseline;
}

bool bulk_isa_supported(BulkIsa isa) {
  static const bool avx512 = __builtin_cpu_supports("avx512f") != 0;
  return isa == BulkIsa::kBaseline || avx512;
}

BulkIsa native_bulk_isa() {
  return bulk_isa_supported(BulkIsa::kAvx512) ? BulkIsa::kAvx512
                                              : BulkIsa::kBaseline;
}

}  // namespace hemo::lbm
