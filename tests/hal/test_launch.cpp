// hal::launch tests: in every dialect, and as a host loop, a launch must
// visit each index of [0, n) exactly once and never an index >= n, and the
// device engine's launch and work-item counters must read as that
// dialect's own launch primitive issues them (grid-rounded for cudax/hipx,
// exact for syclx/kokkosx, untouched by the host loop).

#include "hal/launch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace hemo::hal {
namespace {

constexpr std::int64_t kSizes[] = {0, 1, 255, 256, 257, 10000};

std::vector<std::optional<Model>> all_launch_models() {
  std::vector<std::optional<Model>> models{std::nullopt};
  for (Model m : kAllModels) models.emplace_back(m);
  return models;
}

std::string label(std::optional<Model> model) {
  return model ? std::string(name_of(*model)) : std::string("host loop");
}

/// Launches with `model` (bringing up and tearing down the Kokkos runtime
/// around it when needed) and counts how often each index in [0, n + 256)
/// was visited.
std::vector<int> visits(std::optional<Model> model, std::int64_t n) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n) + 256);
  const bool owned = model && acquire_kokkos_runtime(*model);
  launch(model, n, [&hits](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  if (owned) kokkosx::finalize();
  std::vector<int> out;
  out.reserve(hits.size());
  for (const std::atomic<int>& h : hits) out.push_back(h.load());
  return out;
}

void expect_each_index_once(std::optional<Model> model, std::int64_t n) {
  const std::vector<int> hits = visits(model, n);
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(hits.size()); ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)], i < n ? 1 : 0)
        << label(model) << ", n=" << n << ", index " << i;
}

}  // namespace

TEST(Launch, VisitsEveryIndexExactlyOnceInEveryDialect) {
  for (const std::optional<Model>& model : all_launch_models())
    for (std::int64_t n : kSizes) expect_each_index_once(model, n);
}

TEST(Launch, ChunkedEngineStillVisitsEveryIndexExactlyOnce) {
  DeviceEngine& engine = DeviceEngine::instance();
  engine.set_threads(3);
  for (const std::optional<Model>& model : all_launch_models())
    for (std::int64_t n : kSizes) expect_each_index_once(model, n);
  engine.set_threads(1);
}

TEST(Launch, GridDialectsRunASubBlockLiveRangeOnEveryWorker) {
  // 100 live indices of one 256-wide grid block, on 2 engine threads: the
  // guarded-out tail holds most of the grid, yet both workers must run live
  // indices.  Each live index waits (with a timeout, so the test fails
  // instead of hanging) until two threads have run one.
  constexpr std::int64_t kLive = 100;
  DeviceEngine& engine = DeviceEngine::instance();
  engine.set_threads(2);
  for (const Model model : {Model::kCuda, Model::kHip}) {
    std::mutex mutex;
    std::condition_variable arrived;
    std::set<std::thread::id> workers;
    bool timed_out = false;
    engine.reset_counters();
    launch(model, kLive, [&](std::int64_t) {
      std::unique_lock<std::mutex> lock(mutex);
      workers.insert(std::this_thread::get_id());
      arrived.notify_all();
      if (!arrived.wait_for(lock, std::chrono::seconds(5), [&] {
            return workers.size() >= 2 || timed_out;
          }))
        timed_out = true;
    });
    EXPECT_EQ(workers.size(), 2u) << name_of(model);
    EXPECT_FALSE(timed_out) << name_of(model);
    // The counters still read the grid the dialect issued.
    EXPECT_EQ(engine.counters().kernel_launches, 1) << name_of(model);
    EXPECT_EQ(engine.counters().kernel_indices, 256) << name_of(model);
  }
  engine.reset_counters();
  engine.set_threads(1);
}

TEST(Launch, CountersMatchEachDialectsLaunchPrimitive) {
  DeviceEngine& engine = DeviceEngine::instance();
  for (const std::optional<Model>& model : all_launch_models()) {
    for (std::int64_t n : kSizes) {
      const bool owned = model && acquire_kokkos_runtime(*model);
      engine.reset_counters();
      launch(model, n, [](std::int64_t) {});
      const EngineCounters c = engine.counters();
      if (owned) kokkosx::finalize();

      std::int64_t launches = 0;
      std::int64_t indices = 0;
      if (!model) {
        // The host loop never touches the engine.
      } else if (*model == Model::kCuda || *model == Model::kHip) {
        // A 256-wide grid rounded up to cover n; an empty grid is invalid
        // in CUDA, so nothing launches for n == 0.
        launches = n > 0 ? 1 : 0;
        indices = (n + 255) / 256 * 256;
      } else {
        launches = 1;
        indices = n;
      }
      EXPECT_EQ(c.kernel_launches, launches) << label(model) << ", n=" << n;
      EXPECT_EQ(c.kernel_indices, indices) << label(model) << ", n=" << n;
    }
  }
  engine.reset_counters();
}

TEST(Launch, KokkosRuntimeIsAcquiredOnceAndOnlyForKokkosModels) {
  ASSERT_FALSE(kokkosx::is_initialized());
  EXPECT_FALSE(acquire_kokkos_runtime(Model::kCuda));
  EXPECT_FALSE(kokkosx::is_initialized());

  EXPECT_TRUE(acquire_kokkos_runtime(Model::kKokkosHip));
  EXPECT_EQ(kokkosx::current_backend(), Backend::kHip);
  // Already up on the same backend: the second caller does not own it.
  EXPECT_FALSE(acquire_kokkos_runtime(Model::kKokkosHip));
  kokkosx::finalize();
  EXPECT_FALSE(kokkosx::is_initialized());
}

}  // namespace hemo::hal
