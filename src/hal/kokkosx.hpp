#pragma once
// kokkosx: the mini-Kokkos dialect.  Reproduces the Kokkos constructs the
// paper's manual port relied on (Section 7.3): Views that manage
// platform-dependent device allocations, deep_copy for host-device
// transfer, parallel_for/parallel_reduce with range policies, per-backend
// memory spaces (CudaSpace, HIPSpace, Experimental::SYCLDeviceUSMSpace,
// OpenACC), parenthesis element access, data() for passing raw pointers
// through launch interfaces, and the constant-view initialization
// restriction (deep_copy cannot write a const view; one stages through a
// non-const view and assigns).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>

#include "base/contracts.hpp"
#include "hal/device.hpp"
#include "hal/model.hpp"

namespace hemo::hal::kokkosx {

// ---------------------------------------------------------------------------
// Memory spaces.  One tag type per backend, as in Kokkos; which one is the
// "default device space" follows the backend selected at initialize().
// ---------------------------------------------------------------------------

struct HostSpace {
  static constexpr bool is_host = true;
  static constexpr const char* name = "Host";
};
struct CudaSpace {
  static constexpr bool is_host = false;
  static constexpr const char* name = "CudaSpace";
};
struct HIPSpace {
  static constexpr bool is_host = false;
  static constexpr const char* name = "HIPSpace";
};
namespace Experimental {
struct SYCLDeviceUSMSpace {
  static constexpr bool is_host = false;
  static constexpr const char* name = "SYCLDeviceUSMSpace";
};
struct OpenACCSpace {
  static constexpr bool is_host = false;
  static constexpr const char* name = "OpenACCSpace";
};
}  // namespace Experimental

/// Runtime backend selection (real Kokkos fixes this at compile time via
/// CMake switches; a runtime switch lets one binary cover every backend,
/// which the benchmarks exploit).
void initialize(Backend backend);
void finalize();
bool is_initialized();
Backend current_backend();

/// Generic "default device memory space" used by views declared without an
/// explicit space; behaves like whichever backend is initialized.
struct DefaultDeviceSpace {
  static constexpr bool is_host = false;
  static constexpr const char* name = "DefaultDeviceSpace";
};

// ---------------------------------------------------------------------------
// Views.  DataType follows Kokkos spelling: View<double*> is a 1D view of
// double.  Only rank-1 views are modeled; HARVEY's sparse representation
// is flat, so rank-1 covers every kernel in this codebase.
// ---------------------------------------------------------------------------

namespace detail {

/// Shared allocation block; device blocks live in the DeviceEngine.
struct Allocation {
  void* data = nullptr;
  std::size_t bytes = 0;
  bool device = false;

  Allocation(std::size_t bytes_in, bool device_in);
  ~Allocation();
  Allocation(const Allocation&) = delete;
  Allocation& operator=(const Allocation&) = delete;
};

}  // namespace detail

template <typename DataType, typename Space = DefaultDeviceSpace>
class View {
  static_assert(std::is_pointer_v<DataType>,
                "kokkosx::View models rank-1 views: use View<T*>");

 public:
  using element_type = std::remove_pointer_t<DataType>;
  using value_type = std::remove_const_t<element_type>;
  using space = Space;
  using HostMirror = View<DataType, HostSpace>;

  View() = default;

  /// Allocating constructor (label + extent), as in Kokkos.
  View(std::string label, std::size_t extent)
      : label_(std::move(label)),
        extent_(extent),
        alloc_(std::make_shared<detail::Allocation>(extent * sizeof(value_type),
                                                    !Space::is_host)) {}

  /// Converting constructor: a const view aliasing a non-const view of the
  /// same space (the second half of the paper's constant-view workaround).
  template <typename OtherData,
            typename = std::enable_if_t<
                std::is_const_v<element_type> &&
                std::is_same_v<OtherData, value_type*>>>
  View(const View<OtherData, Space>& other)
      : label_(other.label()), extent_(other.extent(0)), alloc_(other.allocation()) {}

  std::size_t extent(int) const { return extent_; }
  std::size_t size() const { return extent_; }
  const std::string& label() const { return label_; }
  bool is_allocated() const { return alloc_ != nullptr; }

  /// Kokkos element access uses parentheses, not brackets (Section 7.3).
  element_type& operator()(std::size_t i) const {
    return data()[i];
  }

  element_type* data() const {
    return alloc_ ? static_cast<element_type*>(alloc_->data) : nullptr;
  }

  std::shared_ptr<detail::Allocation> allocation() const { return alloc_; }

 private:
  std::string label_;
  std::size_t extent_ = 0;
  std::shared_ptr<detail::Allocation> alloc_;
};

/// deep_copy between views: the only sanctioned host-device transfer in the
/// Kokkos model.  Writing requires a non-const destination element type, so
/// a `View<const T*>` destination fails to compile — exactly the restriction
/// that forces the stage-through-non-const initialization idiom.
template <typename DstData, typename DstSpace, typename SrcData,
          typename SrcSpace>
void deep_copy(const View<DstData, DstSpace>& dst,
               const View<SrcData, SrcSpace>& src) {
  static_assert(!std::is_const_v<std::remove_pointer_t<DstData>>,
                "kokkosx::deep_copy cannot write a view of const elements; "
                "stage through a non-const view and assign");
  HEMO_EXPECTS(dst.extent(0) == src.extent(0));
  const std::size_t bytes =
      dst.extent(0) * sizeof(std::remove_pointer_t<DstData>);
  auto& eng = DeviceEngine::instance();
  const bool dst_dev = !DstSpace::is_host;
  const bool src_dev = !SrcSpace::is_host;
  if (dst_dev && src_dev)
    eng.copy_d2d(dst.data(), src.data(), bytes);
  else if (dst_dev)
    eng.copy_h2d(dst.data(), src.data(), bytes);
  else if (src_dev)
    eng.copy_d2h(dst.data(), src.data(), bytes);
  else
    std::memcpy(dst.data(), src.data(), bytes);
}

/// Fill a view with one value.
template <typename Data, typename Space>
void deep_copy(const View<Data, Space>& dst,
               std::remove_const_t<std::remove_pointer_t<Data>> value) {
  static_assert(!std::is_const_v<std::remove_pointer_t<Data>>);
  auto* p = dst.data();
  for (std::size_t i = 0; i < dst.extent(0); ++i) p[i] = value;
}

/// Host mirror of a device view (allocates; device data is not copied until
/// deep_copy, matching Kokkos create_mirror_view semantics for non-host
/// views).
template <typename Data, typename Space>
typename View<Data, Space>::HostMirror create_mirror_view(
    const View<Data, Space>& v) {
  using Mirror = typename View<Data, Space>::HostMirror;
  return Mirror(v.label() + "_mirror", v.extent(0));
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

class RangePolicy {
 public:
  RangePolicy(std::int64_t begin, std::int64_t end) : begin_(begin), end_(end) {
    HEMO_EXPECTS(begin <= end);
  }
  std::int64_t begin() const { return begin_; }
  std::int64_t end() const { return end_; }

 private:
  std::int64_t begin_;
  std::int64_t end_;
};

template <typename Functor>
void parallel_for(const std::string& /*label*/, RangePolicy policy,
                  Functor functor) {
  HEMO_EXPECTS(is_initialized());
  DeviceEngine::instance().parallel_for(
      policy.end() - policy.begin(),
      [functor, b = policy.begin()](std::int64_t i) { functor(b + i); });
}

template <typename Functor>
void parallel_for(RangePolicy policy, Functor functor) {
  parallel_for(std::string{}, policy, functor);
}

/// Sum reduction, the only reducer HemoFlow needs (mass/momentum totals).
template <typename Functor>
void parallel_reduce(const std::string& /*label*/, RangePolicy policy,
                     Functor functor, double& result) {
  HEMO_EXPECTS(is_initialized());
  // Chunk-local partials would be needed for a threaded engine; reduction
  // runs sequentially for bit-reproducible results across backends.
  double sum = 0.0;
  for (std::int64_t i = policy.begin(); i < policy.end(); ++i)
    functor(i, sum);
  result = sum;
}

template <typename Functor>
void parallel_reduce(RangePolicy policy, Functor functor, double& result) {
  parallel_reduce(std::string{}, policy, functor, result);
}

inline void fence() {}

}  // namespace hemo::hal::kokkosx
