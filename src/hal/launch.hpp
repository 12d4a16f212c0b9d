#pragma once
// hal::launch: the one place that knows how each programming-model dialect
// launches a data-parallel kernel over the index range [0, n).  Kernel
// bodies are written once, as per-index callables (lbm/kernels.hpp); as in
// the paper's CUDA -> HIP / SYCL / Kokkos ports, only the launch mechanics
// differ between the models:
//
//   cudax, hipx   a 1D grid of 256-wide blocks rounded up to cover n, the
//                 kernel guarding its tail (`if (i >= n) return;`), then a
//                 device synchronize.  CUDA rejects an empty grid, so
//                 n == 0 launches nothing.
//   syclx         parallel_for over range<1>(n) on the default queue, then
//                 wait().
//   kokkosx       parallel_for over RangePolicy(0, n), then fence().  The
//                 runtime must be up (see acquire_kokkos_runtime).
//   no model      a plain inlined host loop.
//
// Each dialect keeps its own launch primitive, so the device engine's
// launch and work-item counters read exactly as the dialect would issue
// them: the grid-rounded range for cudax/hipx, n for syclx/kokkosx.  Every
// path ends in the same flattened loop (hal::detail::for_range): the host
// loop directly, the dialects through DeviceEngine::parallel_for, once per
// worker chunk.  The wrappers capture the kernel by value on the way down,
// so the kernel and its KernelArgs inline into that loop.

#include <cstddef>
#include <cstdint>
#include <optional>

#include "base/contracts.hpp"
#include "hal/cudax.hpp"
#include "hal/hipx.hpp"
#include "hal/kokkosx.hpp"
#include "hal/model.hpp"
#include "hal/syclx.hpp"

namespace hemo::hal {

/// Threads per block of the cudax/hipx launch grid.
inline constexpr unsigned kLaunchBlock = 256;

namespace detail {

/// The process-wide syclx queue on the default device engine.
inline syclx::queue& default_queue() {
  static syclx::queue queue;
  return queue;
}

}  // namespace detail

/// Runs body(i) for every i in [0, n) through `model`'s launch primitive,
/// or as a host loop when `model` is empty, and returns once the launch has
/// completed.
template <typename Body>
void launch(std::optional<Model> model, std::int64_t n, const Body& body) {
  HEMO_EXPECTS(n >= 0);
  if (!model.has_value()) {
    detail::for_range(0, n, body);
    return;
  }
  if (is_kokkos(*model)) {
    kokkosx::parallel_for(kokkosx::RangePolicy(0, n), body);
    kokkosx::fence();
    return;
  }
  if (*model == Model::kSycl) {
    syclx::queue& queue = detail::default_queue();
    queue.parallel_for(syclx::range<1>(static_cast<std::size_t>(n)),
                       [body](syclx::id<1> i) {
                         body(static_cast<std::int64_t>(i));
                       });
    queue.wait();
    return;
  }
  if (n == 0) return;
  const dim3x grid(static_cast<unsigned>(
      (n + kLaunchBlock - 1) / static_cast<std::int64_t>(kLaunchBlock)));
  const auto guarded = [body, n](std::int64_t i) {
    if (i >= n) return;
    body(i);
  };
  if (*model == Model::kHip) {
    HEMO_ENSURES(hipxLaunchKernel(grid, dim3x(kLaunchBlock), guarded) ==
                 hipxSuccess);
    HEMO_ENSURES(hipxDeviceSynchronize() == hipxSuccess);
  } else {
    HEMO_ENSURES(cudaxLaunchKernel(grid, dim3x(kLaunchBlock), guarded) ==
                 cudaxSuccess);
    HEMO_ENSURES(cudaxDeviceSynchronize() == cudaxSuccess);
  }
}

/// Brings the kokkosx runtime up on `model`'s backend when `model` is a
/// Kokkos model and no runtime is running yet.  Returns true when this call
/// initialized it: the caller then owns the runtime and must finalize() it.
/// A runtime that is already up must be on the same backend (one Kokkos
/// backend per process, as with real Kokkos builds).
inline bool acquire_kokkos_runtime(Model model) {
  if (!is_kokkos(model)) return false;
  if (kokkosx::is_initialized()) {
    HEMO_EXPECTS(kokkosx::current_backend() == backend_of(model));
    return false;
  }
  kokkosx::initialize(backend_of(model));
  return true;
}

}  // namespace hemo::hal
