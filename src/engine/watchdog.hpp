#pragma once
/// \file watchdog.hpp
/// \brief Deadline enforcement for routing runs.
///
/// The watchdog owns a small monitor thread that fires a CancelSource
/// (`StatusKind::kDeadlineExceeded`) once the wall clock since
/// construction exceeds the deadline. It checks every poll and once more
/// in stop(), so a run that ends past its deadline between two polls
/// still reports it.
///
/// Cancellation is cooperative: search loops observe the token within a
/// bounded number of vertex expansions, so a run terminates well inside
/// 2x the deadline at any thread count. A zero deadline starts no thread
/// at all. A job whose worker stops making progress altogether is the
/// daemon's concern (service::JobExecutor::Options::hang_ms).

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
    /// Monitor poll interval.
    std::chrono::milliseconds poll{5};
  };

  /// Starts monitoring \p source immediately (if a deadline is set).
  Watchdog(util::CancelSource& source, Options options);

  /// stop(). Does not un-cancel the source.
  ~Watchdog();

  /// Joins the monitor thread, then fires the deadline if it has passed
  /// and nothing cancelled the source yet. Idempotent; read fired() after
  /// it for the run's final answer.
  void stop();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Whether this watchdog fired the cancel.
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
