#pragma once
/// \file metrics.hpp
/// \brief Thread-safe metrics registry: named counters, gauges and
/// fixed-bucket histograms with cheap atomic hot-path updates.
///
/// This is the single accumulation point for run-level observability:
/// each layer counts into its own plain struct (SearchWorkspace,
/// EngineStats, FlowMetrics) and publishes it here once per run, so one
/// snapshot serializes every number a run produced (`ocr_route
/// --metrics-json`, the bench manifests, the run manifest).
///
/// Usage pattern: resolve instruments once (registration takes a mutex),
/// update them lock-free from any thread (relaxed atomics — totals are
/// exact, cross-instrument ordering is not), snapshot at the end.
///
///   auto& commits = MetricsRegistry::global().counter("engine.commits");
///   commits.add();                       // hot path: one relaxed fetch_add
///   MetricsSnapshot s = MetricsRegistry::global().snapshot();
///   s.write_json_file("metrics.json");
///
/// Instruments live as long as their registry; references returned by
/// counter()/gauge()/histogram() are stable (node-based storage), so hot
/// loops may cache them across the whole run. reset() zeroes values but
/// keeps every registered instrument alive.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ocr::util {

/// Monotonically increasing total. add() is a relaxed atomic fetch_add.
class Counter {
 public:
  void add(long long delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

/// Last-write-wins scalar (thread counts, completion permille, ...).
class Gauge {
 public:
  void set(long long value) {
    value_.store(value, std::memory_order_relaxed);
  }
  /// Raises the gauge to \p value if it is below it (atomic max) — for
  /// high-water marks reported independently by several owners (e.g. one
  /// search workspace per worker thread).
  void set_max(long long value) {
    long long cur = value_.load(std::memory_order_relaxed);
    while (cur < value && !value_.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }
  long long value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

/// Fixed-boundary histogram. Bucket i counts observations v with
/// bounds[i-1] < v <= bounds[i] (first bucket: v <= bounds[0]); one
/// implicit overflow bucket counts v > bounds.back(). Boundaries are
/// fixed at registration; observe() is a binary search plus one relaxed
/// fetch_add, safe from any thread.
class Histogram {
 public:
  explicit Histogram(std::vector<long long> bounds);

  void observe(long long value);

  const std::vector<long long>& bounds() const { return bounds_; }
  /// Count in bucket \p i, i in [0, bounds().size()] — the last index is
  /// the overflow bucket.
  long long bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  long long count() const { return count_.load(std::memory_order_relaxed); }
  long long sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::vector<long long> bounds_;  // strictly increasing upper bounds
  std::vector<std::atomic<long long>> counts_;  // bounds_.size() + 1
  std::atomic<long long> count_{0};
  std::atomic<long long> sum_{0};
};

/// Point-in-time copy of every registered instrument, detached from the
/// registry (safe to serialize while the run keeps counting).
struct MetricsSnapshot {
  struct HistogramValue {
    std::string name;
    std::vector<long long> bounds;
    std::vector<long long> counts;  ///< bounds.size() + 1 (overflow last)
    long long count = 0;
    long long sum = 0;
  };

  std::vector<std::pair<std::string, long long>> counters;
  std::vector<std::pair<std::string, long long>> gauges;
  std::vector<HistogramValue> histograms;

  /// Looks up a counter/gauge by name; returns \p missing when absent.
  long long counter_value(std::string_view name, long long missing = -1) const;
  long long gauge_value(std::string_view name, long long missing = -1) const;

  /// The counters named \p prefix + "..." as their growth since
  /// \p before, an earlier snapshot of the same registry (one missing
  /// there counts from zero), keyed by the rest of the name and sorted by
  /// it. Gauges and histograms are left out: they do not accumulate.
  std::vector<std::pair<std::string, long long>> counters_since(
      const MetricsSnapshot& before, std::string_view prefix) const;

  /// `{"counters":{...},"gauges":{...},"histograms":{...}}`, names sorted.
  std::string to_json() const;
  bool write_json_file(const std::string& path) const;
};

/// Thread-safe instrument registry. Lookups by name take a mutex and
/// return a stable reference; repeated lookups of the same name return
/// the same instrument. Distinct kinds share a namespace per kind only —
/// a counter and a gauge may use the same name (don't).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by the flows, the engine and the CLI.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Registers a histogram with the given strictly-increasing bucket
  /// upper bounds; on a repeat lookup \p bounds is ignored and the
  /// existing instrument is returned.
  Histogram& histogram(std::string_view name, std::vector<long long> bounds);

  MetricsSnapshot snapshot() const;
  /// Zeroes every instrument but keeps registrations (and the references
  /// callers hold) valid.
  void reset();

 private:
  template <typename T>
  struct Entry {
    std::string name;
    std::unique_ptr<T> instrument;
  };

  mutable std::mutex mu_;
  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Gauge>> gauges_;
  std::vector<Entry<Histogram>> histograms_;
};

/// The global per-net level-B pair, observed once per net by the serial
/// router or the sharded engine's commit loop, whichever commits it.
struct NetSearchHistograms {
  Histogram& search_us;  ///< `levelb.net_search_us`: search time (µs)
  Histogram& vertices;   ///< `levelb.net_vertices`: MBFS expansions
};
NetSearchHistograms net_search_histograms();

}  // namespace ocr::util
