// Minimal fork-join thread pool for the sharded batch planner.
//
// parallel_for(tasks, fn) runs fn(0), ..., fn(tasks - 1) across the pool's
// workers plus the calling thread and blocks until every task has returned.
// Tasks are expected to be coarse (one shard of a batch each), so scheduling
// is a plain shared counter under one mutex — no work stealing, no futures.
// Determinism note: the pool only decides *which thread* runs a task, never
// task inputs or ordering-sensitive state; sharded stepping stays bit-
// reproducible regardless of worker count (see DESIGN.md §7).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace now {

class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is valid: parallel_for then runs inline).
  explicit ThreadPool(std::size_t workers) {
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Runs fn(0..tasks-1), the caller acting as one more worker; returns when
  /// all tasks completed. Not reentrant: one parallel_for at a time. A task
  /// that throws does not strand the pool: once every task has finished,
  /// the first exception caught is rethrown to the caller (an inline run
  /// propagates it at once).
  void parallel_for(std::size_t tasks,
                    const std::function<void(std::size_t)>& fn) {
    if (tasks == 0) return;
    if (workers_.empty() || tasks == 1) {
      for (std::size_t i = 0; i < tasks; ++i) fn(i);
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      fn_ = &fn;
      next_task_ = 0;
      task_limit_ = tasks;
      pending_ = tasks;
      ++generation_;
    }
    wake_.notify_all();
    run_tasks();
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
    fn_ = nullptr;
    if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, {}));
  }

 private:
  /// Claims tasks until the batch is drained. Every claimed index is matched
  /// by exactly one pending_ decrement, so the caller's done_ wait cannot
  /// return while any task body is still running.
  void run_tasks() {
    while (true) {
      std::size_t index;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (next_task_ >= task_limit_) return;
        index = next_task_++;
      }
      std::exception_ptr error;
      try {
        (*fn_)(index);
      } catch (...) {
        error = std::current_exception();
      }
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (error != nullptr && error_ == nullptr) error_ = error;
        --pending_;
        if (pending_ == 0) done_.notify_all();
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock,
                   [this, seen] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      run_tasks();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t next_task_ = 0;
  std::size_t task_limit_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;  // first task exception of this parallel_for
  bool stop_ = false;
};

}  // namespace now
