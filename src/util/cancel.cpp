#include "util/cancel.hpp"

#include <algorithm>

#include "util/str.hpp"

namespace ocr::util {
namespace {

std::atomic<ProgressClock> g_test_clock{nullptr};

long long steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool deadline_passed(internal::CancelState& state, long long budget) {
  const ProgressClock clock = g_test_clock.load(std::memory_order_relaxed);
  const std::chrono::nanoseconds elapsed =
      clock != nullptr
          ? clock(state.progress.load(std::memory_order_relaxed))
          : std::chrono::nanoseconds(
                steady_ns() - state.start_ns.load(std::memory_order_relaxed));
  return elapsed >= std::chrono::milliseconds(budget);
}

/// Whether progress has stayed frozen for \p limit ms. A check that
/// sees it moved stops the freeze timer with relaxed atomics alone; only
/// a check that finds it unmoved reads the clock, to start or test the
/// timer. Concurrent checks may race on the timer, but one that sees
/// progress move always stops it again.
bool progress_frozen(internal::CancelState& state, long long limit) {
  const long long progress = state.progress.load(std::memory_order_relaxed);
  if (progress != state.beat_progress.load(std::memory_order_relaxed)) {
    state.beat_progress.store(progress, std::memory_order_relaxed);
    if (state.frozen_ns.load(std::memory_order_relaxed) != 0) {
      state.frozen_ns.store(0, std::memory_order_relaxed);
    }
    return false;
  }
  const long long now = steady_ns();
  long long since = 0;
  if (state.frozen_ns.compare_exchange_strong(since, now,
                                              std::memory_order_relaxed)) {
    return false;  // this check started the timer
  }
  return now - since >= limit * 1'000'000;
}

}  // namespace

void set_deadline_test_clock(ProgressClock clock) {
  g_test_clock.store(clock);
}

namespace internal {

void cancel(CancelState& state, Status reason) {
  const std::lock_guard<std::mutex> lock(state.mu);
  if (state.cancelled.load(std::memory_order_relaxed)) return;
  state.reason = std::move(reason);
  // Release so reason() readers that observe cancelled == true see it.
  state.cancelled.store(true, std::memory_order_release);
}

bool check_limits(CancelState& state) {
  // Acquire pairs with set_deadline's release: start_ns is this deadline's.
  const long long budget = state.deadline_ms.load(std::memory_order_acquire);
  if (budget != 0 && deadline_passed(state, budget)) {
    cancel(state, Status::deadline_exceeded(
                      format("deadline of %lld ms exceeded", budget))
                      .with_stage("deadline"));
    return true;
  }
  const long long hang = state.hang_ms.load(std::memory_order_relaxed);
  if (hang != 0 && progress_frozen(state, hang)) {
    cancel(state, Status::cancelled(format(
                      "worker hung: progress frozen for %lld ms", hang))
                      .with_stage("supervise"));
    return true;
  }
  return false;
}

}  // namespace internal

Status CancelToken::reason() const {
  if (state_ == nullptr ||
      !state_->cancelled.load(std::memory_order_acquire)) {
    return Status();
  }
  const std::lock_guard<std::mutex> lock(state_->mu);
  return state_->reason;
}

void CancelSource::set_deadline(std::chrono::milliseconds budget) {
  state_->start_ns.store(steady_ns(), std::memory_order_relaxed);
  state_->deadline_ms.store(std::max<long long>(0, budget.count()),
                            std::memory_order_release);
  if (budget.count() > 0) state_->limited.store(true);
}

void CancelSource::set_hang_limit(std::chrono::milliseconds limit) {
  state_->beat_progress.store(
      state_->progress.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  state_->frozen_ns.store(steady_ns(), std::memory_order_relaxed);
  state_->hang_ms.store(std::max<long long>(0, limit.count()),
                        std::memory_order_relaxed);
  if (limit.count() > 0) state_->limited.store(true);
}

}  // namespace ocr::util
