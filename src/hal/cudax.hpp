#pragma once
// cudax: the mini-CUDA dialect.  A deliberately CUDA-shaped C/C++ API —
// error codes, dim3-style launch geometry, explicit and managed memory,
// streams, symbol copies — implemented over hemo::hal::DeviceEngine.
//
// Fidelity to the CUDA API surface matters here: the porting tools in
// hemo::port translate *this* dialect into hipx (regex, like HIPify-perl)
// and syclx (with warnings, like DPCT), so the names and call shapes follow
// the real API closely.

#include <cstddef>
#include <cstdint>

#include "hal/device.hpp"

// The cudax API is global-namespace and C-shaped, like CUDA itself.

enum cudaxError_t {
  cudaxSuccess = 0,
  cudaxErrorInvalidValue = 1,
  cudaxErrorMemoryAllocation = 2,
  cudaxErrorInvalidDevicePointer = 3,
  cudaxErrorInvalidConfiguration = 4,
};

enum cudaxMemcpyKind {
  cudaxMemcpyHostToDevice = 0,
  cudaxMemcpyDeviceToHost = 1,
  cudaxMemcpyDeviceToDevice = 2,
};

struct dim3x {
  unsigned int x = 1, y = 1, z = 1;
  constexpr dim3x() = default;
  constexpr dim3x(unsigned int x_, unsigned int y_ = 1, unsigned int z_ = 1)
      : x(x_), y(y_), z(z_) {}
};

using cudaxStream_t = std::uint64_t;

const char* cudaxGetErrorString(cudaxError_t err);

cudaxError_t cudaxMalloc(void** ptr, std::size_t bytes);
cudaxError_t cudaxMallocManaged(void** ptr, std::size_t bytes);
cudaxError_t cudaxFree(void* ptr);
cudaxError_t cudaxMemcpy(void* dst, const void* src, std::size_t bytes,
                         cudaxMemcpyKind kind);
cudaxError_t cudaxMemcpyAsync(void* dst, const void* src, std::size_t bytes,
                              cudaxMemcpyKind kind, cudaxStream_t stream);
cudaxError_t cudaxMemset(void* dst, int value, std::size_t bytes);
/// Copies host data into a "symbol" (a device-resident constant block);
/// symbols are plain device allocations in this dialect.
cudaxError_t cudaxMemcpyToSymbol(void* symbol, const void* src,
                                 std::size_t bytes);
cudaxError_t cudaxMemPrefetchAsync(const void* ptr, std::size_t bytes,
                                   int device, cudaxStream_t stream);
/// Cache-configuration, limit and stream-attach controls: present for API
/// fidelity (legacy CUDA code calls them) but no-ops on the host engine.
/// These are the calls the mini-DPCT tool classifies as "unsupported
/// feature" — they have no DPC++ equivalent.
enum cudaxFuncCache { cudaxFuncCachePreferNone = 0, cudaxFuncCachePreferL1 = 1 };
enum cudaxLimit { cudaxLimitMallocHeapSize = 0, cudaxLimitStackSize = 1 };
cudaxError_t cudaxFuncSetCacheConfig(const void* func, cudaxFuncCache config);
cudaxError_t cudaxDeviceSetLimit(cudaxLimit limit, std::size_t value);
cudaxError_t cudaxStreamAttachMemAsync(cudaxStream_t stream, void* ptr,
                                       std::size_t bytes);

/// CUDA math-library intrinsic: sin(pi*x) with cos(pi*x) as a side
/// output.  Its DPC++ replacement is only functionally equivalent, not
/// bit-identical (Table 2's "functional equivalence" warning).
double sincospi(double x, double* cos_out);

cudaxError_t cudaxStreamCreate(cudaxStream_t* stream);
cudaxError_t cudaxStreamDestroy(cudaxStream_t stream);
cudaxError_t cudaxStreamSynchronize(cudaxStream_t stream);
cudaxError_t cudaxDeviceSynchronize();
cudaxError_t cudaxGetLastError();

namespace hemo::hal::cudax_detail {
cudaxError_t validate_launch(dim3x grid, dim3x block);
DeviceEngine& engine();
void set_last_error(cudaxError_t err);
}  // namespace hemo::hal::cudax_detail

/// Launches `kernel(i)` over a 1D grid of grid.x blocks of block.x threads,
/// i in [0, grid.x * block.x).  Kernels guard their tail as CUDA code does
/// (`if (i >= n) return;`).
template <typename Kernel>
cudaxError_t cudaxLaunchKernel(dim3x grid, dim3x block, Kernel kernel) {
  using namespace hemo::hal::cudax_detail;
  if (const cudaxError_t err = validate_launch(grid, block);
      err != cudaxSuccess) {
    set_last_error(err);
    return err;
  }
  const std::int64_t n = static_cast<std::int64_t>(grid.x) *
                         static_cast<std::int64_t>(block.x);
  engine().parallel_for(n, [kernel](std::int64_t i) { kernel(i); });
  return cudaxSuccess;
}
