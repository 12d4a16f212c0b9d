#include "hal/device.hpp"

#include <algorithm>
#include <cstring>

#include "base/contracts.hpp"

namespace hemo::hal {
namespace {

/// Pieces each worker takes from a threaded launch on average.  Several per
/// worker let the workers share whatever part of the range is live: a
/// cudax/hipx grid ends in guarded-out indices, and a step's blocks differ
/// in cost.
constexpr std::int64_t kChunksPerWorker = 16;

/// Set while this thread runs a launch body: on the launching thread for
/// the launch's duration, on a helper for its whole life.
thread_local bool t_in_launch = false;

}  // namespace

DeviceEngine::~DeviceEngine() { stop_helpers(); }

DeviceEngine& DeviceEngine::instance() {
  static DeviceEngine engine;
  return engine;
}

void* DeviceEngine::allocate(std::size_t bytes) {
  const std::size_t n = bytes == 0 ? 1 : bytes;
  std::unique_ptr<std::byte[]> block;
  try {
    block = std::make_unique<std::byte[]>(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
  void* ptr = block.get();
  allocations_.emplace(ptr, std::move(block));
  sizes_.emplace(ptr, bytes);
  ++counters_.allocations;
  counters_.bytes_allocated += static_cast<std::int64_t>(bytes);
  return ptr;
}

bool DeviceEngine::deallocate(void* ptr) {
  auto it = allocations_.find(ptr);
  if (it == allocations_.end()) return false;
  allocations_.erase(it);
  sizes_.erase(ptr);
  return true;
}

bool DeviceEngine::owns(void* ptr) const {
  return allocations_.contains(ptr);
}

std::size_t DeviceEngine::allocation_size(void* ptr) const {
  auto it = sizes_.find(ptr);
  return it == sizes_.end() ? 0 : it->second;
}

void DeviceEngine::copy_h2d(void* dst, const void* src, std::size_t bytes) {
  std::memcpy(dst, src, bytes);
  counters_.bytes_h2d += static_cast<std::int64_t>(bytes);
}

void DeviceEngine::copy_d2h(void* dst, const void* src, std::size_t bytes) {
  std::memcpy(dst, src, bytes);
  counters_.bytes_d2h += static_cast<std::int64_t>(bytes);
}

void DeviceEngine::copy_d2d(void* dst, const void* src, std::size_t bytes) {
  std::memmove(dst, src, bytes);
  counters_.bytes_d2d += static_cast<std::int64_t>(bytes);
}

void DeviceEngine::run_chunks(std::int64_t n, const Chunk& chunk) {
  // A nested launch would wait for pieces its own caller is running.
  HEMO_EXPECTS(!t_in_launch);
  ++counters_.kernel_launches;
  counters_.kernel_indices += n;
  if (n <= 0) return;

  t_in_launch = true;
  if (helpers_.empty() || n < 2 * threads_) {
    chunk(0, n);
    t_in_launch = false;
    return;
  }

  const std::int64_t pieces = kChunksPerWorker * threads_;
  const Job job{&chunk, n, (n + pieces - 1) / pieces};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    next_.store(0, std::memory_order_relaxed);
    open_ = true;
    ++generation_;
  }
  wake_.notify_all();
  take_chunks(job);
  // Close the launch to late helpers, then wait for those inside it: their
  // pieces are done, and none of them touches job_ or next_ again.
  std::unique_lock<std::mutex> lock(mutex_);
  open_ = false;
  done_.wait(lock, [this] { return joined_ == 0; });
  t_in_launch = false;
}

void DeviceEngine::take_chunks(const Job& job) {
  for (;;) {
    const std::int64_t lo =
        next_.fetch_add(job.grain, std::memory_order_relaxed);
    if (lo >= job.n) return;
    (*job.chunk)(lo, std::min(lo + job.grain, job.n));
  }
}

void DeviceEngine::helper_main(std::uint64_t seen) {
  t_in_launch = true;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] {
      return stopping_ || (open_ && generation_ != seen);
    });
    if (stopping_) return;
    seen = generation_;
    const Job job = job_;
    ++joined_;
    lock.unlock();
    take_chunks(job);
    lock.lock();
    if (--joined_ == 0) done_.notify_one();
  }
}

void DeviceEngine::start_helpers() {
  // A new helper has seen every launch so far, so it never replays one.
  helpers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 1; t < threads_; ++t)
    helpers_.emplace_back(&DeviceEngine::helper_main, this, generation_);
}

void DeviceEngine::stop_helpers() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
  helpers_.clear();
  const std::lock_guard<std::mutex> lock(mutex_);
  stopping_ = false;
}

void DeviceEngine::set_threads(int threads) {
  HEMO_EXPECTS(threads >= 1);
  HEMO_EXPECTS(!t_in_launch);
  if (threads == threads_) return;
  stop_helpers();
  threads_ = threads;
  start_helpers();
}

}  // namespace hemo::hal
