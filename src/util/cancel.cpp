#include "util/cancel.hpp"

#include "util/str.hpp"

namespace ocr::util {
namespace {

std::atomic<ProgressClock> g_test_clock{nullptr};

long long steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
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

bool check_deadline(CancelState& state) {
  // Acquire pairs with set_deadline's release: start_ns is this deadline's.
  const long long budget = state.deadline_ms.load(std::memory_order_acquire);
  if (budget == 0) return false;
  const ProgressClock clock = g_test_clock.load(std::memory_order_relaxed);
  const std::chrono::nanoseconds elapsed =
      clock != nullptr
          ? clock(state.progress.load(std::memory_order_relaxed))
          : std::chrono::nanoseconds(
                steady_ns() - state.start_ns.load(std::memory_order_relaxed));
  if (elapsed < std::chrono::milliseconds(budget)) return false;
  cancel(state, Status::deadline_exceeded(
                    format("deadline of %lld ms exceeded", budget))
                    .with_stage("deadline"));
  return true;
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
  state_->deadline_ms.store(budget.count() > 0 ? budget.count() : 0,
                            std::memory_order_release);
}

}  // namespace ocr::util
