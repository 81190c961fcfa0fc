#pragma once
/// \file watchdog.hpp
/// \brief Deadline and stall enforcement for routing runs.
///
/// The watchdog owns a small monitor thread that fires a CancelSource
/// when either limit trips:
///
/// * **deadline** — wall clock since construction exceeds the limit
///   (`StatusKind::kDeadlineExceeded`), checked every poll and once more
///   by stop(), so a run that ends past its deadline between two polls
///   still reports it;
/// * **stall** — the cancel token's progress counter (bumped by the MBFS
///   inner loops and the committer) has not advanced for the stall
///   window (`StatusKind::kCancelled`, "stalled"), which catches a stuck
///   worker that stopped examining vertices entirely.
///
/// Cancellation is cooperative: search loops observe the token within a
/// bounded number of vertex expansions, so a run terminates well inside
/// 2x the deadline at any thread count. Zero limits disable the
/// corresponding check; with both zero no thread is started at all.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/cancel.hpp"

namespace ocr::engine {

class Watchdog {
 public:
  struct Options {
    /// Wall-clock budget for the whole run; 0 = no deadline.
    std::chrono::milliseconds deadline{0};
    /// Cancel if progress stands still this long; 0 = disabled.
    std::chrono::milliseconds stall{0};
    /// Monitor poll interval.
    std::chrono::milliseconds poll{5};
  };

  /// Starts monitoring \p source immediately (if any limit is set).
  Watchdog(util::CancelSource& source, Options options);

  /// stop(). Does not un-cancel the source.
  ~Watchdog();

  /// Joins the monitor thread, then fires the deadline if it has passed
  /// and nothing cancelled the source yet. Idempotent; read fired() after
  /// it for the run's final answer.
  void stop();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Whether this watchdog fired the cancel (deadline or stall).
  bool fired() const { return fired_.load(std::memory_order_relaxed); }

  /// Maps the source's progress counter to the elapsed time a deadline
  /// is checked against.
  using ProgressClock = std::chrono::nanoseconds (*)(long long progress);

  /// Test seam: watchdogs constructed afterwards check their deadline
  /// against \p clock instead of the wall clock (process-wide; nullptr
  /// restores the wall clock). It lets a test place a deadline inside
  /// level B's search, the only code that reports progress, on any
  /// machine speed.
  static void set_test_clock(ProgressClock clock);

 private:
  void monitor();
  bool deadline_passed() const;
  void fire_deadline();
  void fire(util::Status reason);

  util::CancelSource& source_;
  Options options_;
  ProgressClock clock_;  ///< nullptr: the wall clock
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> fired_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
};

}  // namespace ocr::engine
