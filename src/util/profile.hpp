#pragma once
/// \file profile.hpp
/// \brief Span-based wall-clock profiler with Chrome trace-event export.
///
/// A Span is an RAII region: constructed at stage/section entry, it
/// records {name, thread, nesting depth, start, duration} into the
/// owning Profiler's per-thread ring buffer when it is destroyed. The
/// profiler is off by default and the disabled cost is one relaxed
/// atomic load plus a branch — spans can therefore sit permanently in
/// hot-ish paths (per net, per stage; not per MBFS vertex).
///
///   OCR_SPAN("flow.levelB");                  // rest of scope
///   { util::Span s("engine.commit"); ... }    // explicit scope
///
/// Records are kept in fixed-capacity per-thread rings (oldest records
/// are overwritten past capacity and counted as dropped), merged at
/// export time. Export renders the Chrome trace-event JSON format
/// (`{"traceEvents":[...]}`), loadable at https://ui.perfetto.dev — see
/// docs/OBSERVABILITY.md for the walkthrough. A TraceSink can mirror its
/// events into the profiler as instant events (TraceSink::set_mirror),
/// so per-net trace records and spans share one timeline and one output
/// pipeline.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ocr::util {

class Profiler {
 public:
  /// One finished span or instant event, in profiler-relative time.
  struct Record {
    std::string name;
    std::uint32_t tid = 0;    ///< profiler-assigned, dense from 1
    std::uint32_t depth = 0;  ///< nesting level on its thread (0 = top)
    std::int64_t start_us = 0;
    std::int64_t dur_us = 0;  ///< -1 = instant event (no duration)
  };

  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The process-wide profiler every OCR_SPAN uses.
  static Profiler& global();

  /// Starts capturing. \p ring_capacity is per thread, in records;
  /// re-enabling keeps existing records (clear() first for a fresh run).
  void enable(std::size_t ring_capacity = kDefaultCapacity);
  void disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records an instant event (a point on the timeline; Chrome renders a
  /// marker). No-op while disabled.
  void instant(std::string name);

  /// Drops all records (keeps enabled state and thread registrations).
  void clear();

  /// Merged snapshot of every thread's ring, ordered by start time.
  std::vector<Record> records() const;
  /// Total records lost to ring wrap-around across all threads.
  std::uint64_t dropped() const;

  /// Sum of span durations per name over depth-0 spans only — the
  /// per-stage wall times the run manifest reports (nested spans would
  /// double-count their parents).
  std::vector<std::pair<std::string, std::int64_t>> stage_totals() const;

  /// Chrome trace-event JSON: one complete ("ph":"X") event per span,
  /// one instant ("ph":"i") event per instant record.
  std::string to_chrome_json() const;
  bool write_chrome_json(const std::string& path) const;

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

 private:
  friend class Span;

  struct ThreadLog {
    std::uint32_t tid = 0;            ///< dense export id, assigned from 1
    std::thread::id owner;            ///< registering thread
    std::uint32_t depth = 0;          ///< open spans on this thread
    std::vector<Record> ring;
    std::uint64_t recorded = 0;       ///< total records ever written
  };

  /// This thread's log, created (under the mutex) on first use and
  /// cached thread-locally per profiler identity.
  ThreadLog* acquire_log();
  void push(ThreadLog* log, Record record);
  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::atomic<bool> enabled_{false};
  const std::uint64_t id_;  ///< process-unique, for thread-local caching
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::size_t capacity_ = kDefaultCapacity;
};

/// RAII profiling span. When the owning profiler is disabled at
/// construction the span is inert (one branch); enablement mid-span is
/// ignored for that span.
class Span {
 public:
  explicit Span(const char* name, Profiler& profiler = Profiler::global())
      : profiler_(profiler) {
    if (!profiler_.enabled()) return;
    log_ = profiler_.acquire_log();
    name_ = name;
    depth_ = log_->depth++;
    start_us_ = profiler_.now_us();
  }

  ~Span() {
    if (log_ == nullptr) return;
    --log_->depth;
    Profiler::Record record;
    record.name = name_;
    record.depth = depth_;
    record.start_us = start_us_;
    record.dur_us = profiler_.now_us() - start_us_;
    profiler_.push(log_, std::move(record));
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Profiler& profiler_;
  Profiler::ThreadLog* log_ = nullptr;  ///< null = inert span
  const char* name_ = "";
  std::uint32_t depth_ = 0;
  std::int64_t start_us_ = 0;
};

#define OCR_SPAN_CONCAT_(a, b) a##b
#define OCR_SPAN_CONCAT(a, b) OCR_SPAN_CONCAT_(a, b)
/// Profiles the rest of the enclosing scope under \p name.
#define OCR_SPAN(name) \
  ::ocr::util::Span OCR_SPAN_CONCAT(ocr_span_, __LINE__)(name)

}  // namespace ocr::util
