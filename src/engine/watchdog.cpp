#include "engine/watchdog.hpp"

#include "util/str.hpp"

namespace ocr::engine {
namespace {
std::atomic<Watchdog::ProgressClock> g_test_clock{nullptr};
}  // namespace

void Watchdog::set_test_clock(ProgressClock clock) {
  g_test_clock.store(clock);
}

Watchdog::Watchdog(util::CancelSource& source, Options options)
    : source_(source), options_(options), clock_(g_test_clock.load()),
      start_(std::chrono::steady_clock::now()) {
  if (options_.deadline.count() > 0) {
    thread_ = std::thread([this] { monitor(); });
  }
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (!source_.cancelled() && deadline_passed()) fire_deadline();
}

bool Watchdog::deadline_passed() const {
  if (options_.deadline.count() <= 0) return false;
  const auto elapsed = clock_ == nullptr
                           ? std::chrono::steady_clock::now() - start_
                           : clock_(source_.progress());
  return elapsed >= options_.deadline;
}

void Watchdog::fire_deadline() {
  fired_.store(true, std::memory_order_relaxed);
  source_.cancel(util::Status::deadline_exceeded(
                     util::format("deadline of %lld ms exceeded",
                                  static_cast<long long>(
                                      options_.deadline.count())))
                     .with_stage("watchdog"));
}

void Watchdog::monitor() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_.load(std::memory_order_relaxed)) {
    cv_.wait_for(lock, options_.poll, [this] {
      return stop_.load(std::memory_order_relaxed);
    });
    if (stop_.load(std::memory_order_relaxed)) return;
    if (source_.cancelled()) return;  // someone else fired; done watching

    if (deadline_passed()) {
      fire_deadline();
      return;
    }
  }
}

}  // namespace ocr::engine
