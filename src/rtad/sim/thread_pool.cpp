#include "rtad/sim/thread_pool.hpp"

#include <algorithm>

namespace rtad::sim {

namespace {

/// Identity of the current thread within its owning pool, for routing
/// nested submits back to the submitting worker's deque.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  std::size_t target;
  if (tls_pool == this) {
    target = tls_worker;  // nested submit: keep it local, thieves balance
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  {
    // Pairing the counter bump with wake_mutex_ closes the missed-wakeup
    // window against the predicate re-check in worker_loop.
    std::lock_guard<std::mutex> lock(wake_mutex_);
    queued_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_one();
}

std::function<void()> ThreadPool::take_task(std::size_t index) {
  {
    auto& own = *queues_[index];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      auto task = std::move(own.tasks.back());
      own.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  for (std::size_t off = 1; off < queues_.size(); ++off) {
    auto& victim = *queues_[(index + off) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      auto task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  return nullptr;
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_pool = this;
  tls_worker = index;
  for (;;) {
    if (auto task = take_task(index)) {
      task();  // packaged_task captures exceptions into the future
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] {
      return stopping_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    // Drain-on-shutdown: exit only once every queue is provably empty.
    if (stopping_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

}  // namespace rtad::sim
