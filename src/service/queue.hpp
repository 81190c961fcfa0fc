#pragma once
/// \file queue.hpp
/// \brief Bounded FIFO job queue with overload rejection, scheduled
/// retries and depth gauges.
///
/// The admission contract: `try_push` never blocks — it either accepts
/// the entry or returns false (queue at its bound, or closed), and the
/// caller answers the client immediately. `pop` blocks the worker drain
/// loops until an entry or close-and-drained. The queue publishes
/// `service.queue_depth` and `service.inflight` gauges into the global
/// MetricsRegistry on every transition so admission behaviour is
/// observable live.
///
/// Retries wait in the queue itself: `push_retry` schedules an entry for
/// a due time, outside the FIFO, its bound and its depth. `try_push` and
/// `pop` first move every due entry to the back of the FIFO, where it
/// counts toward the depth (a due retry is still exempt from the bound,
/// but a fresh job is not admitted past it), and an idle worker sleeps
/// until the earliest due time, so the workers are the retry timers.
/// `close` makes every scheduled entry due at once.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "service/job.hpp"
#include "util/metrics.hpp"

namespace ocr::service {

class JobQueue {
 public:
  using Clock = std::chrono::steady_clock;

  /// One accepted submission: the job plus its completion callback.
  struct Entry {
    RoutingJob job;
    std::function<void(JobResult)> on_complete;
  };

  explicit JobQueue(std::size_t limit,
                    util::MetricsRegistry& registry =
                        util::MetricsRegistry::global());

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Non-blocking: false when the queue holds \p limit entries or is
  /// closed. The caller still owns \p entry on failure.
  bool try_push(Entry& entry);

  /// Schedules a retried job to enter the FIFO at \p due, ignoring the
  /// depth bound (the job was already admitted once; bouncing it off the
  /// limit again would turn a transient failure into a dropped job).
  /// Never fails: once closed, the entry is due at once.
  void push_retry(Entry entry, Clock::time_point due);

  /// Blocks for the next entry, waiting out scheduled entries. nullopt
  /// once closed *and* drained — entries accepted before close() and
  /// every scheduled entry are always delivered.
  std::optional<Entry> pop();

  /// Hard drain: removes and returns every scheduled entry.
  std::vector<Entry> take_scheduled();

  /// Marks a popped entry finished (decrements the inflight gauge).
  void note_done();

  /// Stops try_push, makes every scheduled entry due, and wakes every
  /// blocked pop.
  void close();

  /// FIFO entries; scheduled ones are not counted.
  std::size_t depth() const;
  std::size_t limit() const { return limit_; }
  /// Entries popped but not yet note_done()'d.
  std::size_t inflight() const;

 private:
  /// Moves every due scheduled entry to the back of the FIFO (all of
  /// them once closed). Called under mu_.
  void promote_due();

  const std::size_t limit_;
  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::deque<Entry> entries_;
  std::multimap<Clock::time_point, Entry> scheduled_;  ///< by due time
  std::size_t inflight_ = 0;
  bool closed_ = false;
  util::Gauge& depth_gauge_;
  util::Gauge& inflight_gauge_;
};

}  // namespace ocr::service
