#include "service/queue.hpp"

#include <utility>

namespace ocr::service {

JobQueue::JobQueue(std::size_t limit, util::MetricsRegistry& registry)
    : limit_(limit),
      depth_gauge_(registry.gauge("service.queue_depth")),
      inflight_gauge_(registry.gauge("service.inflight")) {
  depth_gauge_.set(0);
  inflight_gauge_.set(0);
}

void JobQueue::promote_due() {
  const Clock::time_point now = Clock::now();
  const std::size_t before = entries_.size();
  while (!scheduled_.empty() &&
         (closed_ || scheduled_.begin()->first <= now)) {
    entries_.push_back(std::move(scheduled_.begin()->second));
    scheduled_.erase(scheduled_.begin());
  }
  if (entries_.size() != before) {
    depth_gauge_.set(static_cast<long long>(entries_.size()));
  }
}

bool JobQueue::try_push(Entry& entry) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // A due retry is ahead of this job and counts against the bound.
    promote_due();
    if (closed_ || entries_.size() >= limit_) return false;
    entries_.push_back(std::move(entry));
    depth_gauge_.set(static_cast<long long>(entries_.size()));
  }
  ready_cv_.notify_one();
  return true;
}

void JobQueue::push_retry(Entry entry, Clock::time_point due) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    scheduled_.emplace(due, std::move(entry));
  }
  // One woken worker re-reads the earliest due time.
  ready_cv_.notify_one();
}

std::optional<JobQueue::Entry> JobQueue::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    promote_due();
    if (!entries_.empty()) break;
    if (closed_) return std::nullopt;  // closed and drained
    if (scheduled_.empty()) {
      ready_cv_.wait(lock);
    } else {
      // A copy: a hard drain may erase the entry while this waits.
      const Clock::time_point due = scheduled_.begin()->first;
      ready_cv_.wait_until(lock, due);
    }
  }
  Entry entry = std::move(entries_.front());
  entries_.pop_front();
  ++inflight_;
  depth_gauge_.set(static_cast<long long>(entries_.size()));
  inflight_gauge_.set(static_cast<long long>(inflight_));
  // Hand what is left to another idle worker: a waiting one may sleep
  // past the next due time, or not at all.
  if (!entries_.empty() || !scheduled_.empty()) ready_cv_.notify_one();
  return entry;
}

std::vector<JobQueue::Entry> JobQueue::take_scheduled() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(scheduled_.size());
  for (auto& [due, entry] : scheduled_) out.push_back(std::move(entry));
  scheduled_.clear();
  return out;
}

void JobQueue::note_done() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (inflight_ > 0) --inflight_;
  inflight_gauge_.set(static_cast<long long>(inflight_));
}

void JobQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  ready_cv_.notify_all();
}

std::size_t JobQueue::depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t JobQueue::inflight() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

}  // namespace ocr::service
