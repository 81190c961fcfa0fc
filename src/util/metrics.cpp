#include "util/metrics.hpp"

#include <algorithm>
#include <fstream>

#include "util/assert.hpp"
#include "util/trace.hpp"

namespace ocr::util {

Histogram::Histogram(std::vector<long long> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.size() + 1) {
  OCR_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                 std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                     bounds_.end(),
             "histogram bounds must be strictly increasing");
}

void Histogram::observe(long long value) {
  // First bound >= value: bucket i holds (bounds[i-1], bounds[i]].
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

long long MetricsSnapshot::counter_value(std::string_view name,
                                         long long missing) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return missing;
}

long long MetricsSnapshot::gauge_value(std::string_view name,
                                       long long missing) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return missing;
}

std::vector<std::pair<std::string, long long>>
MetricsSnapshot::counters_since(const MetricsSnapshot& before,
                                std::string_view prefix) const {
  std::vector<std::pair<std::string, long long>> out;
  for (const auto& [name, value] : counters) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    out.emplace_back(name.substr(prefix.size()),
                     value - before.counter_value(name, 0));
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  const auto scalar_section =
      [](const std::vector<std::pair<std::string, long long>>& values) {
        std::string out = "{";
        bool first = true;
        for (const auto& [name, value] : values) {
          if (!first) out += ",";
          first = false;
          out += "\n    \"" + json_escape(name) +
                 "\": " + std::to_string(value);
        }
        out += first ? "}" : "\n  }";
        return out;
      };
  const auto int_array = [](const std::vector<long long>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) out += ",";
      out += std::to_string(values[i]);
    }
    return out + "]";
  };

  std::string out = "{\n  \"counters\": " + scalar_section(counters) +
                    ",\n  \"gauges\": " + scalar_section(gauges) +
                    ",\n  \"histograms\": {";
  bool first = true;
  for (const HistogramValue& h : histograms) {
    if (!first) out += ",";
    first = false;
    out += "\n    \"" + json_escape(h.name) + "\": {\"bounds\": " +
           int_array(h.bounds) + ", \"counts\": " + int_array(h.counts) +
           ", \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + std::to_string(h.sum) + "}";
  }
  out += first ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

bool MetricsSnapshot::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

template <typename Entry>
typename decltype(Entry::instrument)::element_type* find_entry(
    std::vector<Entry>& entries, std::string_view name) {
  for (Entry& e : entries) {
    if (e.name == name) return e.instrument.get();
  }
  return nullptr;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (Counter* existing = find_entry(counters_, name)) return *existing;
  counters_.push_back({std::string(name), std::make_unique<Counter>()});
  return *counters_.back().instrument;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (Gauge* existing = find_entry(gauges_, name)) return *existing;
  gauges_.push_back({std::string(name), std::make_unique<Gauge>()});
  return *gauges_.back().instrument;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<long long> bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (Histogram* existing = find_entry(histograms_, name)) return *existing;
  histograms_.push_back(
      {std::string(name), std::make_unique<Histogram>(std::move(bounds))});
  return *histograms_.back().instrument;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& e : counters_) {
    snap.counters.emplace_back(e.name, e.instrument->value());
  }
  for (const auto& e : gauges_) {
    snap.gauges.emplace_back(e.name, e.instrument->value());
  }
  for (const auto& e : histograms_) {
    MetricsSnapshot::HistogramValue h;
    h.name = e.name;
    h.bounds = e.instrument->bounds();
    for (std::size_t i = 0; i <= h.bounds.size(); ++i) {
      h.counts.push_back(e.instrument->bucket_count(i));
    }
    h.count = e.instrument->count();
    h.sum = e.instrument->sum();
    snap.histograms.push_back(std::move(h));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : counters_) e.instrument->reset();
  for (auto& e : gauges_) e.instrument->reset();
  for (auto& e : histograms_) e.instrument->reset();
}

NetSearchHistograms net_search_histograms() {
  MetricsRegistry& registry = MetricsRegistry::global();
  return {registry.histogram(
              "levelb.net_search_us",
              {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000}),
          registry.histogram(
              "levelb.net_vertices",
              {16, 64, 256, 1024, 4096, 16384, 65536, 262144})};
}

}  // namespace ocr::util
