#pragma once
/// \file thread_pool.hpp
/// \brief A fixed-size worker pool with a FIFO task queue.
///
/// The routing engine submits one batch-search worker loop per thread for
/// each shard batch; other callers can use it as a conventional task pool.
/// Tasks are std::function<void()>. An exception escaping a task is caught
/// at the task boundary and surfaced as a util::Status through
/// task_failures() — it never terminates the process, and the pool keeps
/// serving the queue. The destructor drains the queue: already-submitted
/// tasks run to completion before join.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.hpp"
#include "util/status.hpp"

namespace ocr::util {

class ThreadPool {
 public:
  /// Spawns \p threads workers; \p threads <= 0 uses hardware_threads().
  /// A non-empty \p metrics_prefix publishes `<prefix>.queue_depth` and
  /// `<prefix>.active_workers` gauges into the global MetricsRegistry,
  /// updated on every queue/activity transition.
  explicit ThreadPool(int threads, const std::string& metrics_prefix = "");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues \p task; runs on some worker in FIFO order.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

  /// Statuses of tasks that threw, in completion order. A non-empty list
  /// means some submitted work did not finish; callers decide whether
  /// that is fatal (the engine treats it as a degraded run).
  std::vector<Status> task_failures() const;

  /// First failure, or OK when every task completed.
  Status first_failure() const;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Tasks submitted but not yet picked up by a worker.
  std::size_t queue_depth() const;

  /// Workers currently running a task.
  int active() const;

  /// std::thread::hardware_concurrency with a floor of 1.
  static int hardware_threads();

 private:
  void worker_loop();
  /// Pushes queue/active into the gauges; call with mu_ held.
  void publish_gauges_locked();

  Gauge* depth_gauge_ = nullptr;   // null when no metrics prefix
  Gauge* active_gauge_ = nullptr;  // null when no metrics prefix
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for tasks/stop
  std::condition_variable idle_cv_;   // wait_idle waits for quiescence
  std::deque<std::function<void()>> queue_;
  std::vector<Status> failures_;
  int active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ocr::util
