// Job layer: retry with backoff, structured failure capture, and the
// cooperative timeout classification.

#include "rt/job.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

namespace hemo::rt {
namespace {

using std::chrono::milliseconds;

JobOptions fast_retry(int max_attempts) {
  JobOptions options;
  options.name = "test-job";
  options.retry.max_attempts = max_attempts;
  return options;
}

TEST(Job, FirstAttemptSuccess) {
  const JobOutcome<int> outcome =
      run_job<int>(fast_retry(3), [](int) { return 11; });
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome.value, 11);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_FALSE(outcome.failure.has_value());
}

TEST(Job, FailsTwiceThenSucceeds) {
  const JobOutcome<int> outcome = run_job<int>(fast_retry(3), [](int attempt) {
    if (attempt <= 2) throw std::runtime_error("transient");
    return attempt;
  });
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome.value, 3);
  EXPECT_EQ(outcome.attempts, 3);
}

TEST(Job, PermanentFailureCapturesTheLastError) {
  const JobOutcome<int> outcome = run_job<int>(fast_retry(3), [](int) -> int {
    throw std::runtime_error("disk on fire");
  });
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.attempts, 3);
  ASSERT_TRUE(outcome.failure.has_value());
  EXPECT_EQ(outcome.failure->job, "test-job");
  EXPECT_EQ(outcome.failure->attempts, 3);
  EXPECT_FALSE(outcome.failure->timed_out);
  EXPECT_EQ(outcome.failure->message, "disk on fire");

  const std::string text = describe(*outcome.failure);
  EXPECT_NE(text.find("test-job"), std::string::npos);
  EXPECT_NE(text.find("disk on fire"), std::string::npos);
  EXPECT_NE(text.find("failed"), std::string::npos);
}

TEST(Job, NonStdExceptionIsStillCaptured) {
  const JobOutcome<int> outcome =
      run_job<int>(fast_retry(1), [](int) -> int { throw 42; });
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.failure->message, "unknown exception");
}

TEST(Job, SlowAttemptIsClassifiedAsTimeout) {
  JobOptions options = fast_retry(2);
  options.timeout = milliseconds(5);
  const JobOutcome<int> outcome = run_job<int>(options, [](int) {
    std::this_thread::sleep_for(milliseconds(25));
    return 1;
  });
  EXPECT_FALSE(outcome.ok());
  ASSERT_TRUE(outcome.failure.has_value());
  EXPECT_TRUE(outcome.failure->timed_out);
  EXPECT_NE(describe(*outcome.failure).find("timed out"), std::string::npos);
}

TEST(Job, ZeroTimeoutMeansUnlimited) {
  JobOptions options = fast_retry(1);
  options.timeout = milliseconds(0);
  const JobOutcome<int> outcome = run_job<int>(options, [](int) {
    std::this_thread::sleep_for(milliseconds(10));
    return 5;
  });
  EXPECT_TRUE(outcome.ok());
}

TEST(Job, BackoffGrowsGeometricallyAndCaps) {
  EXPECT_EQ(backoff_delay(1), kInitialBackoff);
  EXPECT_EQ(backoff_delay(2), milliseconds(2));
  EXPECT_EQ(backoff_delay(3), milliseconds(4));
  EXPECT_EQ(backoff_delay(7), milliseconds(64));
  EXPECT_EQ(backoff_delay(8), kMaxBackoff);   // 128 ms, capped
  EXPECT_EQ(backoff_delay(40), kMaxBackoff);  // stays capped
}

}  // namespace
}  // namespace hemo::rt
