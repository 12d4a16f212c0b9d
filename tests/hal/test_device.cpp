// DeviceEngine tests: allocation registry, byte accounting, and the
// parallel_for execution contract (including threaded chunking on the
// persistent worker pool).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "hal/device.hpp"

using hemo::hal::DeviceEngine;

TEST(DeviceEngine, AllocateTracksOwnershipAndSize) {
  DeviceEngine eng;
  void* p = eng.allocate(128);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(eng.owns(p));
  EXPECT_EQ(eng.allocation_size(p), 128u);
  EXPECT_EQ(eng.live_allocations(), 1u);
  EXPECT_TRUE(eng.deallocate(p));
  EXPECT_FALSE(eng.owns(p));
  EXPECT_EQ(eng.live_allocations(), 0u);
}

TEST(DeviceEngine, DeallocateUnknownPointerFails) {
  DeviceEngine eng;
  int x = 0;
  EXPECT_FALSE(eng.deallocate(&x));
}

TEST(DeviceEngine, ZeroByteAllocationYieldsValidPointer) {
  DeviceEngine eng;
  void* p = eng.allocate(0);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(eng.deallocate(p));
}

TEST(DeviceEngine, CopiesMoveBytesAndCount) {
  DeviceEngine eng;
  void* d = eng.allocate(64);
  std::vector<std::uint8_t> host(64);
  std::iota(host.begin(), host.end(), 0);

  eng.copy_h2d(d, host.data(), 64);
  std::vector<std::uint8_t> back(64, 0);
  eng.copy_d2h(back.data(), d, 64);
  EXPECT_EQ(back, host);

  EXPECT_EQ(eng.counters().bytes_h2d, 64);
  EXPECT_EQ(eng.counters().bytes_d2h, 64);
  eng.deallocate(d);
}

TEST(DeviceEngine, ParallelForVisitsEveryIndexOnce) {
  DeviceEngine eng;
  std::vector<int> hits(1000, 0);
  eng.parallel_for(1000, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(eng.counters().kernel_launches, 1);
  EXPECT_EQ(eng.counters().kernel_indices, 1000);
}

TEST(DeviceEngine, ThreadedChunkingVisitsEveryIndexOnce) {
  // Every worker count against ranges that fall back to one thread
  // (n < 2 * threads), split exactly at the threshold, and split unevenly.
  for (const int threads : {1, 2, 3, 7}) {
    for (const std::int64_t n :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{2 * threads - 1},
          std::int64_t{2 * threads}, std::int64_t{5000}, std::int64_t{5001}}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", n " +
                   std::to_string(n));
      DeviceEngine eng;
      eng.set_threads(threads);
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      eng.parallel_for(n, [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
      for (auto& h : hits) EXPECT_EQ(h.load(), 1);
      EXPECT_EQ(eng.counters().kernel_launches, 1);
      EXPECT_EQ(eng.counters().kernel_indices, n);
    }
  }
}

TEST(DeviceEngine, EmptyRangeLaunchesButExecutesNothing) {
  DeviceEngine eng;
  bool ran = false;
  eng.parallel_for(0, [&](std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.counters().kernel_launches, 1);
  EXPECT_EQ(eng.counters().kernel_indices, 0);
}

TEST(DeviceEngine, ResetCountersClearsEverything) {
  DeviceEngine eng;
  void* p = eng.allocate(8);
  eng.parallel_for(10, [](std::int64_t) {});
  eng.reset_counters();
  EXPECT_EQ(eng.counters().allocations, 0);
  EXPECT_EQ(eng.counters().kernel_launches, 0);
  EXPECT_EQ(eng.counters().kernel_indices, 0);
  eng.deallocate(p);
}

TEST(DeviceEngine, ThreadCountChangesBetweenLaunchesKeepEveryLaunchExact) {
  // Helpers are joined and restarted on every change of the count.  A
  // restarted helper must not replay the launch before the change: each
  // launch visits every index once, nothing runs between launches, and the
  // counters read one launch of n indices each.
  DeviceEngine eng;
  constexpr std::int64_t kMax = 5001;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(kMax));
  std::int64_t launches = 0;
  std::int64_t indices = 0;
  for (const int threads : {1, 3, 2, 1, 3, 1}) {
    eng.set_threads(threads);
    EXPECT_EQ(eng.threads(), threads);
    for (const std::int64_t n :
         {std::int64_t{5000}, std::int64_t{1}, std::int64_t{kMax}}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", n " +
                   std::to_string(n));
      for (auto& h : hits) h.store(0);
      eng.parallel_for(n, [&hits](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
      // Give a stale helper time to show itself before the check.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      for (std::int64_t i = 0; i < kMax; ++i)
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), i < n ? 1 : 0)
            << "index " << i;
      ++launches;
      indices += n;
      EXPECT_EQ(eng.counters().kernel_launches, launches);
      EXPECT_EQ(eng.counters().kernel_indices, indices);
    }
  }
}

TEST(DeviceEngineDeathTest, NestedLaunchIsRejected) {
  // The launching thread and the helpers all run launch bodies; a launch
  // from any of them would wait for pieces its own caller holds.
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_DEATH(
        {
          DeviceEngine eng;
          eng.set_threads(threads);
          eng.parallel_for(64, [&eng](std::int64_t) {
            eng.parallel_for(1, [](std::int64_t) {});
          });
        },
        "Precondition");
  }
}
