#include "hal/device.hpp"

#include <cstring>
#include <thread>
#include <vector>

#include "base/contracts.hpp"

namespace hemo::hal {

DeviceEngine::~DeviceEngine() = default;

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

void DeviceEngine::run_chunks(
    std::int64_t n,
    const std::function<void(std::int64_t, std::int64_t)>& chunk) {
  ++counters_.kernel_launches;
  counters_.kernel_indices += n;
  if (n <= 0) return;

  if (threads_ <= 1 || n < 2 * threads_) {
    chunk(0, n);
    return;
  }

  const int workers = threads_;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    const std::int64_t lo = n * t / workers;
    const std::int64_t hi = n * (t + 1) / workers;
    pool.emplace_back([&chunk, lo, hi] { chunk(lo, hi); });
  }
  for (std::thread& th : pool) th.join();
}

void DeviceEngine::set_threads(int threads) {
  HEMO_EXPECTS(threads >= 1);
  threads_ = threads;
}

}  // namespace hemo::hal
