// Index fan-out unit tests: index order for any worker count, the empty
// range, the caller's thread as the only worker, the lowest-index
// exception, join-before-rethrow (directly and through
// ExperimentRunner::run_indexed), and a ThreadSanitizer-friendly stress
// case.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rtad/core/experiment_runner.hpp"
#include "rtad/sim/fan_out.hpp"

namespace rtad::sim {
namespace {

TEST(FanOut, ResultsComeBackInIndexOrderForAnyWorkerCount) {
  constexpr std::size_t kN = 8;
  for (const std::size_t jobs : {3u, 8u, 16u}) {  // jobs <, = and > n
    std::mutex mutex;
    std::set<std::thread::id> threads;
    const auto out = fan_out(jobs, kN, [&](std::size_t i) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
      }
      // Early indices finish last, so completion order is reversed.
      std::this_thread::sleep_for(std::chrono::milliseconds(kN - i));
      return i * i;
    });
    ASSERT_EQ(out.size(), kN) << jobs;
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i * i) << jobs;
    EXPECT_LE(threads.size(), std::min(jobs, kN)) << jobs;
  }
}

TEST(FanOut, EmptyRangeCallsNothing) {
  std::atomic<int> calls{0};
  const auto out = fan_out(4, 0, [&](std::size_t) { return ++calls; });
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(calls.load(), 0);
}

TEST(FanOut, OneJobRunsEveryIndexOnTheCallersThread) {
  const auto caller = std::this_thread::get_id();
  for (const std::size_t jobs : {0u, 1u}) {
    const auto ids = fan_out(
        jobs, 5, [](std::size_t) { return std::this_thread::get_id(); });
    ASSERT_EQ(ids.size(), 5u);
    for (const auto id : ids) EXPECT_EQ(id, caller) << jobs;
  }
}

TEST(FanOut, RethrowsTheLowestIndexException) {
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    std::atomic<int> calls{0};
    try {
      fan_out(jobs, 8, [&](std::size_t i) {
        ++calls;
        if (i == 3 || i == 5 || i == 7) {
          throw std::runtime_error(std::to_string(i));
        }
        return i;
      });
      ADD_FAILURE() << "no exception at jobs " << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << jobs;
    }
    EXPECT_EQ(calls.load(), 8) << jobs;  // a failure stops no other index
  }
}

// Index 0 throws at once while index 1 is still working: the exception
// must not reach the caller before index 1 returns, or the caller unwinds
// (and frees) state that index 1 still uses.
template <typename Run>
void expect_joined_before_rethrow(Run run) {
  std::atomic<bool> slow_done{false};
  EXPECT_THROW(run([&slow_done](std::size_t i) {
                 if (i == 0) throw std::runtime_error("fast failure");
                 std::this_thread::sleep_for(std::chrono::milliseconds(200));
                 slow_done.store(true);
                 return 0;
               }),
               std::runtime_error);
  EXPECT_TRUE(slow_done.load());
}

TEST(FanOut, JoinsEveryCallBeforeRethrowing) {
  expect_joined_before_rethrow(
      [](const auto& fn) { return fan_out(2, 2, fn); });
}

TEST(FanOut, RunIndexedJoinsEveryCallBeforeRethrowing) {
  core::ExperimentRunner runner(2);
  expect_joined_before_rethrow(
      [&runner](const auto& fn) { return runner.run_indexed(2, fn); });
}

// Many tiny calls on many threads, results written to disjoint slots:
// under TSan this exercises the shared counter and the join with zero
// expected reports.
TEST(FanOut, StressManySmallCallsNoRaces) {
  constexpr std::size_t kCalls = 4000;
  std::vector<std::uint64_t> slots(kCalls, 0);
  const auto out = fan_out(8, kCalls, [&slots](std::size_t i) {
    slots[i] = i + 1;
    return i;
  });
  std::uint64_t sum = 0;
  for (const auto v : slots) sum += v;
  EXPECT_EQ(sum, kCalls * (kCalls + 1) / 2);
  for (std::size_t i = 0; i < kCalls; ++i) EXPECT_EQ(out[i], i);
}

}  // namespace
}  // namespace rtad::sim
