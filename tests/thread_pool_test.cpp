// Work-stealing thread-pool unit tests: result ordering, exception
// propagation, drain-on-shutdown, nested submission, zero-worker sizing,
// and a ThreadSanitizer-friendly stress case.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rtad/sim/thread_pool.hpp"

namespace rtad::sim {
namespace {

TEST(ThreadPool, ResultsComeBackInSubmissionOrder) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] {
      if (i % 7 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      return i * i;
    }));
  }
  // Completion order is arbitrary; collecting futures in submission order
  // is what makes parallel experiment output deterministic.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, ExceptionPropagatesOutOfWorker) {
  ThreadPool pool(2);
  auto boom = pool.submit(
      []() -> int { throw std::runtime_error("worker exploded"); });
  EXPECT_THROW(
      {
        try {
          boom.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "worker exploded");
          throw;
        }
      },
      std::runtime_error);
  // The worker survives the exception and keeps serving tasks.
  EXPECT_EQ(pool.submit([] { return 41 + 1; }).get(), 42);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> executed{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.submit([&executed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        executed.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    // Destructor runs with most tasks still queued behind 2 workers.
  }
  EXPECT_EQ(executed.load(), 32);
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

TEST(ThreadPool, NestedSubmitFromWorkerCompletes) {
  std::atomic<int> children{0};
  {
    ThreadPool pool(1);  // single worker: children queue behind the parent
    pool.submit([&] {
        for (int i = 0; i < 8; ++i) {
          pool.submit(
              [&children] { children.fetch_add(1, std::memory_order_relaxed); });
        }
      }).get();
  }  // drain guarantees the children ran even though nobody kept futures
  EXPECT_EQ(children.load(), 8);
}

TEST(ThreadPool, ZeroWorkersMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(),
            std::max(1u, std::thread::hardware_concurrency()));
}

// Many tiny tasks from many submitters, results written to disjoint slots:
// under TSan this exercises queue locking, stealing, and the wake path with
// zero expected reports.
TEST(ThreadPool, StressManySmallTasksNoRaces) {
  constexpr std::size_t kTasks = 4000;
  std::vector<std::uint64_t> slots(kTasks, 0);
  {
    ThreadPool pool(8);
    std::vector<std::future<void>> futures;
    futures.reserve(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
      futures.push_back(
          pool.submit([&slots, i] { slots[i] = i + 1; }));
    }
    for (auto& f : futures) f.get();
  }
  std::uint64_t sum = 0;
  for (const auto v : slots) sum += v;
  EXPECT_EQ(sum, kTasks * (kTasks + 1) / 2);
}

}  // namespace
}  // namespace rtad::sim
