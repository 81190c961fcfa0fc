#pragma once
/// \file cancel.hpp
/// \brief Cooperative cancellation for long-running routing loops.
///
/// A `CancelSource` owns the cancellation state; `CancelToken`s are cheap
/// shared views handed down through options structs into the MBFS inner
/// loops. Cancellation is cooperative and *sticky*: the first cancel()
/// wins, later calls are ignored, and a cancelled token never resets.
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
  std::mutex mu;              // guards reason
  Status reason;              // first cancel() wins
};
}  // namespace internal

/// Read-side view of a CancelSource. Copyable, cheap, thread-safe.
class CancelToken {
 public:
  /// A token that can never fire (the default for all options structs).
  CancelToken() = default;

  bool valid() const { return state_ != nullptr; }

  bool cancelled() const {
    return state_ != nullptr &&
           state_->cancelled.load(std::memory_order_relaxed);
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
  void cancel(Status reason);

  bool cancelled() const {
    return state_->cancelled.load(std::memory_order_relaxed);
  }

  Status reason() const { return token().reason(); }
  long long progress() const { return token().progress(); }

 private:
  std::shared_ptr<internal::CancelState> state_;
};

}  // namespace ocr::util
