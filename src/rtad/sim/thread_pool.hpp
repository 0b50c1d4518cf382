// Work-stealing thread pool for fanning independent simulations across
// cores.
//
// Each worker owns a deque: it pushes/pops its own back (LIFO, cache-warm)
// and steals from the fronts of the others when idle (FIFO, oldest-first).
// External submissions are distributed round-robin so a burst of cells from
// the main thread lands evenly. Results travel through std::future, which
// also carries exceptions out of workers.
//
// Determinism contract: the pool never reorders *results* — callers that
// need reproducible output collect futures in submission order (see
// core::ExperimentRunner). Only the execution schedule varies with worker
// count; whatever each task computes must depend solely on its arguments.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rtad::sim {

class ThreadPool {
 public:
  /// `workers == 0` means std::thread::hardware_concurrency() (at least
  /// 1).
  explicit ThreadPool(std::size_t workers = 0);

  /// Drains every queued task (they run, their futures become ready), then
  /// joins the workers. Nothing submitted is ever silently dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Queue `fn` and return a future for its result. Safe to call from
  /// worker threads (nested submits go to the calling worker's own deque);
  /// do not block a worker on a future of a *queued* task — block only on
  /// work that is already running (e.g. a call_once peer).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void enqueue(std::function<void()> task);
  void worker_loop(std::size_t index);
  /// Pop from own back, else steal from another queue's front.
  std::function<void()> take_task(std::size_t index);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<std::size_t> queued_{0};  ///< tasks pushed but not yet popped
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> next_queue_{0};  ///< round-robin cursor
};

}  // namespace rtad::sim
