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
/// A source may carry a deadline (set_deadline). No thread watches it:
/// every cancelled() check, on a token or on the source, enforces it, and
/// the first check past it cancels with StatusKind::kDeadlineExceeded
/// unless something cancelled first. The checks sit in the search loops
/// (every 64 vertex expansions), so a run stops within a bounded amount
/// of work after its deadline at any thread count; the run's owner makes
/// one final check when the run returns, so a deadline that passed
/// between two checks is still reported. Without a deadline a check
/// costs one more relaxed load.
///
/// Tokens also carry a progress counter that search loops bump as they
/// examine vertices; the daemon's hang supervision
/// (service::JobExecutor::Options::hang_ms) reads it to distinguish a
/// slow job (progress advancing) from a stuck one (counter frozen).
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
  std::atomic<long long> progress{0};
  std::atomic<long long> deadline_ms{0};  // 0 = none; released after start
  std::atomic<long long> start_ns{0};     // steady clock at set_deadline
  std::mutex mu;              // guards reason
  Status reason;              // first cancel() wins
};

void cancel(CancelState& state, Status reason);

/// Cancels \p state with kDeadlineExceeded when its deadline has passed;
/// returns whether it is cancelled.
bool check_deadline(CancelState& state);

inline bool cancelled(CancelState& state) {
  return state.cancelled.load(std::memory_order_relaxed) ||
         (state.deadline_ms.load(std::memory_order_relaxed) != 0 &&
          check_deadline(state));
}
}  // namespace internal

/// Read-side view of a CancelSource. Copyable, cheap, thread-safe.
class CancelToken {
 public:
  /// A token that can never fire (the default for all options structs).
  CancelToken() = default;

  bool valid() const { return state_ != nullptr; }

  /// Whether the source is cancelled; fires a passed deadline.
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

  /// Whether the source is cancelled; fires a passed deadline.
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
/// that reports progress, on any machine speed.
void set_deadline_test_clock(ProgressClock clock);

}  // namespace ocr::util
