#pragma once
/// \file cancel.hpp
/// \brief Cooperative cancellation and deadlines for long-running routing
/// loops.
///
/// A `CancelSource` owns the cancellation state; `CancelToken`s are cheap
/// shared views handed down through options structs into the MBFS inner
/// loops. Cancellation is cooperative and *sticky*: the first cancel()
/// wins, later calls are ignored, and a cancelled token never resets.
///
/// A source may carry a deadline (set_deadline) and a hang limit
/// (set_hang_limit). No thread watches either: every cancelled() check,
/// on a token or on the source, enforces them. The first check past the
/// deadline cancels with StatusKind::kDeadlineExceeded. A check that
/// finds the progress counter where the previous check left it starts a
/// freeze timer (set_hang_limit starts one too), a check that finds it
/// moved stops the timer, and the first check that finds it unmoved with
/// the timer past the hang limit of wall time cancels with kCancelled
/// (stage "supervise"). Either yields to whatever cancelled first. The
/// checks sit in the search loops (every 64 vertex expansions), so a run
/// stops within a bounded amount of work after its deadline at any
/// thread count; the run's owner makes one final check when the run
/// returns, so a deadline that passed between two checks is still
/// reported. Without a limit a check costs one more relaxed load; while
/// progress moves, a hang-limited check reads no clock and takes no lock.
///
/// Tokens carry the progress counter that search loops bump as they
/// examine vertices; the hang limit (the daemon's
/// service::JobExecutor::Options::hang_ms) reads it to tell a slow job
/// (progress advancing) from a stuck one (counter frozen).
///
/// Determinism note: a token that never fires is free of side effects on
/// routing results — checks are pure reads — so cancelled()-guarded code
/// stays bit-identical to unguarded code until a cancel actually happens.

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>

#include "util/status.hpp"

namespace ocr::util {

namespace internal {
struct CancelState {
  std::atomic<bool> cancelled{false};
  std::atomic<bool> limited{false};       // a deadline or hang limit is set
  std::atomic<long long> progress{0};
  std::atomic<long long> deadline_ms{0};  // 0 = none; released after start
  std::atomic<long long> start_ns{0};     // steady clock at set_deadline
  std::atomic<long long> hang_ms{0};      // 0 = none
  std::atomic<long long> beat_progress{0};  // progress at the last check
  std::atomic<long long> frozen_ns{0};  // freeze timer start; 0 = stopped
  std::mutex mu;                        // guards reason
  Status reason;                        // first cancel() wins
};

void cancel(CancelState& state, Status reason);

/// Cancels \p state when its deadline has passed or its progress has
/// been frozen past its hang limit; returns whether it is cancelled.
bool check_limits(CancelState& state);

inline bool cancelled(CancelState& state) {
  return state.cancelled.load(std::memory_order_relaxed) ||
         (state.limited.load(std::memory_order_relaxed) &&
          check_limits(state));
}
}  // namespace internal

/// Read-side view of a CancelSource. Copyable, cheap, thread-safe.
class CancelToken {
 public:
  /// A token that can never fire (the default for all options structs).
  CancelToken() = default;

  bool valid() const { return state_ != nullptr; }

  /// Whether the source is cancelled; fires a passed limit.
  bool cancelled() const {
    return state_ != nullptr && internal::cancelled(*state_);
  }

  /// Why the source cancelled; OK status while not cancelled.
  Status reason() const;

  /// Bumps the shared progress counter (relaxed; hang heartbeat).
  void note_progress(long long amount = 1) const {
    if (state_ != nullptr) {
      state_->progress.fetch_add(amount, std::memory_order_relaxed);
    }
  }

  long long progress() const {
    return state_ == nullptr
               ? 0
               : state_->progress.load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<internal::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::CancelState> state_;
};

/// Write-side owner. Create one per run; hand token() to workers.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<internal::CancelState>()) {}

  CancelToken token() const { return CancelToken(state_); }

  /// Requests cancellation with \p reason. First call wins; later calls
  /// are no-ops so the original cause is preserved.
  void cancel(Status reason) { internal::cancel(*state_, std::move(reason)); }

  /// Starts a \p budget deadline now; 0 (or less) = none.
  void set_deadline(std::chrono::milliseconds budget);

  /// Cancels at the first check that finds progress frozen for \p limit
  /// of wall time; the freeze timer starts now. 0 (or less) = none.
  void set_hang_limit(std::chrono::milliseconds limit);

  /// Whether the source is cancelled; fires a passed limit.
  bool cancelled() const { return internal::cancelled(*state_); }

  Status reason() const { return token().reason(); }
  long long progress() const { return token().progress(); }

 private:
  std::shared_ptr<internal::CancelState> state_;
};

/// Maps a source's progress counter to the elapsed time its deadline is
/// checked against.
using ProgressClock = std::chrono::nanoseconds (*)(long long progress);

/// Test seam: deadline checks measure elapsed time with \p clock instead
/// of the wall clock (process-wide; nullptr restores the wall clock). It
/// lets a test place a deadline inside level B's search, the only code
/// that reports progress, on any machine speed. Hang limits keep the
/// wall clock: a function of progress cannot advance while it is frozen.
void set_deadline_test_clock(ProgressClock clock);

}  // namespace ocr::util
