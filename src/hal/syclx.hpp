#pragma once
// syclx: the mini-SYCL dialect.  Models the SYCL constructs the paper
// describes (Section 5.2): queues as the concurrency mechanism, kernels as
// lambdas over ranges/nd_ranges, unified shared memory (USM) alongside
// buffer/accessor memory abstractions, and exceptions — not error codes —
// for failure reporting.  Executes synchronously on the DeviceEngine.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "hal/device.hpp"

namespace hemo::hal::syclx {

/// SYCL reports errors by exception (the root of most DPCT "error
/// handling" warnings when porting from CUDA's error codes).
class exception : public std::runtime_error {
 public:
  explicit exception(const std::string& what) : std::runtime_error(what) {}
};

template <int Dims = 1>
class range;

template <>
class range<1> {
 public:
  explicit constexpr range(std::size_t n) : n_(n) {}
  constexpr std::size_t size() const { return n_; }
  constexpr std::size_t get(int) const { return n_; }

 private:
  std::size_t n_;
};

template <int Dims = 1>
class id;

template <>
class id<1> {
 public:
  explicit constexpr id(std::size_t v) : v_(v) {}
  constexpr operator std::size_t() const { return v_; }
  constexpr std::size_t get(int) const { return v_; }

 private:
  std::size_t v_;
};

class nd_range {
 public:
  nd_range(range<1> global, range<1> local) : global_(global), local_(local) {}
  range<1> get_global_range() const { return global_; }
  range<1> get_local_range() const { return local_; }

 private:
  range<1> global_;
  range<1> local_;
};

class nd_item {
 public:
  nd_item(std::size_t global, std::size_t local, std::size_t group)
      : global_(global), local_(local), group_(group) {}
  std::size_t get_global_id(int) const { return global_; }
  std::size_t get_local_id(int) const { return local_; }
  std::size_t get_group(int) const { return group_; }

 private:
  std::size_t global_, local_, group_;
};

/// Command-group handler: collects exactly one parallel_for per submit.
class handler {
 public:
  template <typename F>
  void parallel_for(range<1> r, F f) {
    work_ = [r, f](DeviceEngine& eng) {
      eng.parallel_for(static_cast<std::int64_t>(r.size()),
                       [f](std::int64_t i) {
                         f(id<1>(static_cast<std::size_t>(i)));
                       });
    };
  }

  template <typename F>
  void parallel_for(nd_range r, F f) {
    const std::size_t global = r.get_global_range().size();
    const std::size_t local = r.get_local_range().size();
    if (local == 0 || local > 1024 || global % local != 0) {
      // SYCL requires the local range to divide the global range and fit
      // the device; DPCT's "kernel invocation" warnings exist because
      // auto-generated work-group sizes can violate this.
      throw exception("syclx: invalid nd_range work-group size");
    }
    work_ = [global, local, f](DeviceEngine& eng) {
      eng.parallel_for(static_cast<std::int64_t>(global),
                       [f, local](std::int64_t i) {
                         const auto gi = static_cast<std::size_t>(i);
                         f(nd_item(gi, gi % local, gi / local));
                       });
    };
  }

 private:
  friend class queue;
  std::function<void(DeviceEngine&)> work_;
};

class queue {
 public:
  queue() : engine_(&DeviceEngine::instance()) {}
  explicit queue(DeviceEngine& engine) : engine_(&engine) {}

  /// Submits a command group; execution is synchronous on this engine.
  template <typename CommandGroup>
  queue& submit(CommandGroup cgf) {
    handler h;
    cgf(h);
    if (h.work_) h.work_(*engine_);
    return *this;
  }

  /// Shortcut form, as in SYCL 2020.
  template <typename F>
  queue& parallel_for(range<1> r, F f) {
    return submit([&](handler& h) { h.parallel_for(r, f); });
  }

  queue& memcpy(void* dst, const void* src, std::size_t bytes);
  queue& memset(void* dst, int value, std::size_t bytes);
  void wait() {}
  void wait_and_throw() {}

  DeviceEngine& engine() { return *engine_; }

 private:
  DeviceEngine* engine_;
};

/// USM device allocation of `count` elements of T.
template <typename T>
T* malloc_device(std::size_t count, queue& q) {
  void* p = q.engine().allocate(count * sizeof(T));
  if (p == nullptr) throw exception("syclx: device allocation failed");
  return static_cast<T*>(p);
}

/// USM shared allocation: identical on the host engine, as with cudax
/// managed memory.
template <typename T>
T* malloc_shared(std::size_t count, queue& q) {
  return malloc_device<T>(count, q);
}

void free(void* ptr, queue& q);

enum class access_mode { read, write, read_write };

template <typename T>
class accessor {
 public:
  accessor(T* data, std::size_t size) : data_(data), size_(size) {}
  T& operator[](std::size_t i) const { return data_[i]; }
  T* get_pointer() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  T* data_;
  std::size_t size_;
};

/// Buffer: an abstract view of memory accessed through accessors.  With a
/// host pointer the construction copies in and destruction writes back,
/// mirroring SYCL's buffer lifetime semantics.
template <typename T>
class buffer {
 public:
  buffer(T* host_data, range<1> r)
      : queue_(), host_(host_data), count_(r.size()) {
    device_ = malloc_device<T>(count_, queue_);
    queue_.engine().copy_h2d(device_, host_, count_ * sizeof(T));
  }

  explicit buffer(range<1> r) : queue_(), host_(nullptr), count_(r.size()) {
    device_ = malloc_device<T>(count_, queue_);
  }

  buffer(const buffer&) = delete;
  buffer& operator=(const buffer&) = delete;

  ~buffer() {
    if (host_ != nullptr && written_)
      queue_.engine().copy_d2h(host_, device_, count_ * sizeof(T));
    queue_.engine().deallocate(device_);
  }

  accessor<T> get_access(handler&, access_mode mode = access_mode::read_write) {
    if (mode != access_mode::read) written_ = true;
    return accessor<T>(device_, count_);
  }

  /// Host-side access outside a command group (blocking in real SYCL).
  accessor<T> get_host_access() { return accessor<T>(device_, count_); }

  std::size_t size() const { return count_; }

 private:
  queue queue_;
  T* host_;
  T* device_;
  std::size_t count_;
  bool written_ = false;
};

}  // namespace hemo::hal::syclx
