#pragma once
// DeviceEngine: the execution substrate beneath every programming-model
// dialect in hemo::hal.  It stands in for a GPU: it owns "device"
// allocations, executes data-parallel index ranges (optionally across a
// pool of persistent host worker threads), and keeps byte/launch counters
// that the tests and the cluster simulator consume.
//
// All four dialects (cudax, hipx, syclx, kokkosx) lower onto this engine,
// mirroring how CUDA/HIP/SYCL/Kokkos all drive the same physical device in
// the paper's study.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace hemo::hal {

namespace detail {

/// Runs body(i) for every i in [lo, hi), flattened so the kernel inlines
/// into the loop.  Taking `body` by value keeps its captures (a kernel's
/// KernelArgs) in registers across the kernel's stores.
template <typename Body>
[[gnu::flatten]] void for_range(std::int64_t lo, std::int64_t hi,
                                const Body body) {
  for (std::int64_t i = lo; i < hi; ++i) body(i);
}

}  // namespace detail

struct EngineCounters {
  std::int64_t allocations = 0;
  std::int64_t bytes_allocated = 0;
  std::int64_t bytes_h2d = 0;
  std::int64_t bytes_d2h = 0;
  std::int64_t bytes_d2d = 0;
  std::int64_t kernel_launches = 0;
  std::int64_t kernel_indices = 0;  // total work-items executed
};

class DeviceEngine {
 public:
  DeviceEngine() = default;
  DeviceEngine(const DeviceEngine&) = delete;
  DeviceEngine& operator=(const DeviceEngine&) = delete;
  ~DeviceEngine();

  /// Process-wide default engine used by the C-style dialect APIs
  /// (cudax/hipx) that, like their real counterparts, have an implicit
  /// current device.
  static DeviceEngine& instance();

  /// Allocates `bytes` of device memory; returns nullptr on failure
  /// (zero-byte requests yield a unique non-null pointer, as CUDA does).
  void* allocate(std::size_t bytes);
  /// Frees a pointer previously returned by allocate; returns false if the
  /// pointer is unknown (the dialects translate that into their own error
  /// idiom).
  bool deallocate(void* ptr);
  /// True if ptr was returned by allocate and not yet freed.
  bool owns(void* ptr) const;
  /// Size of the allocation at ptr, or 0 if unknown.
  std::size_t allocation_size(void* ptr) const;

  void copy_h2d(void* dst, const void* src, std::size_t bytes);
  void copy_d2h(void* dst, const void* src, std::size_t bytes);
  void copy_d2d(void* dst, const void* src, std::size_t bytes);

  /// Executes body(i) for every i in [0, n).  With more than one worker
  /// thread the range is cut into contiguous chunks that the workers take
  /// from a shared counter, and each worker runs a chunk as one inlined
  /// loop over a copy of `body`.  Chunking is race-free for every kernel
  /// body in HemoFlow because each slot a launch writes is written by
  /// exactly one index — index i's own slots, or for the AA odd step the
  /// neighbours' slots it scatters to.  A body must not launch: a launch
  /// from inside a running launch is a precondition violation.  One thread
  /// launches on an engine at a time, as on an in-order device queue.
  template <typename Body>
  void parallel_for(std::int64_t n, const Body& body) {
    run_chunks(n, [&body](std::int64_t lo, std::int64_t hi) {
      detail::for_range(lo, hi, body);
    });
  }

  /// Number of worker threads used by parallel_for (default 1): the
  /// launching thread plus threads - 1 persistent helpers.  Changing the
  /// count joins the old helpers and starts new ones.
  void set_threads(int threads);
  int threads() const { return threads_; }

  const EngineCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = EngineCounters{}; }

  /// Number of live allocations (leak checks in tests).
  std::size_t live_allocations() const { return allocations_.size(); }

 private:
  using Chunk = std::function<void(std::int64_t, std::int64_t)>;

  /// The launch the helpers are invited to join.
  struct Job {
    const Chunk* chunk = nullptr;
    std::int64_t n = 0;
    std::int64_t grain = 1;  // indices per chunk
  };

  /// Counts one launch of n indices, then runs chunk(lo, hi) over
  /// contiguous pieces of [0, n): taken from a shared counter by the
  /// calling thread and every helper that joins while pieces remain, or
  /// all of it on the calling thread when threading would not pay.
  void run_chunks(std::int64_t n, const Chunk& chunk);
  /// Runs pieces of `job` until the shared counter passes its end.
  void take_chunks(const Job& job);
  /// A helper's loop: waits for a launch newer than `seen`, joins it while
  /// it is open, and returns once stop_helpers() asks.
  void helper_main(std::uint64_t seen);
  void start_helpers();
  void stop_helpers();

  std::unordered_map<void*, std::unique_ptr<std::byte[]>> allocations_;
  std::unordered_map<const void*, std::size_t> sizes_;
  EngineCounters counters_;
  int threads_ = 1;

  // The worker pool.  mutex_ guards job_, generation_, open_, joined_ and
  // stopping_; next_ is the open launch's shared chunk counter.
  std::mutex mutex_;
  std::condition_variable wake_;  // helpers: a launch opened, or stop
  std::condition_variable done_;  // launcher: the last joined helper left
  Job job_;
  std::uint64_t generation_ = 0;  // launches handed to the pool so far
  bool open_ = false;             // job_ may still be joined
  int joined_ = 0;                // helpers inside job_
  bool stopping_ = false;
  std::atomic<std::int64_t> next_{0};
  std::vector<std::thread> helpers_;  // threads_ - 1 of them
};

}  // namespace hemo::hal
