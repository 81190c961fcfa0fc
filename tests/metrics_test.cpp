#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace ocr::util {
namespace {

TEST(Counter, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  g.set(7);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  // Bucket i counts bounds[i-1] < v <= bounds[i]; the last bucket is the
  // implicit overflow (> bounds.back()).
  Histogram h({10, 20, 40});
  h.observe(-5);  // <= 10
  h.observe(10);  // <= 10 (boundary lands in its own bucket)
  h.observe(11);  // (10, 20]
  h.observe(20);  // (10, 20]
  h.observe(21);  // (20, 40]
  h.observe(40);  // (20, 40]
  h.observe(41);  // overflow
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 2);
  EXPECT_EQ(h.bucket_count(2), 2);
  EXPECT_EQ(h.bucket_count(3), 1);
  EXPECT_EQ(h.count(), 7);
  EXPECT_EQ(h.sum(), -5 + 10 + 11 + 20 + 21 + 40 + 41);
}

TEST(Histogram, ResetKeepsBounds) {
  Histogram h({1, 2});
  h.observe(1);
  h.observe(100);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.bucket_count(0), 0);
  EXPECT_EQ(h.bucket_count(2), 0);
  EXPECT_EQ(h.bounds(), (std::vector<long long>{1, 2}));
}

TEST(MetricsRegistry, SameNameReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3);

  Histogram& h1 = reg.histogram("h", {1, 2, 3});
  Histogram& h2 = reg.histogram("h", {9});  // bounds ignored on re-lookup
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 3u);

  // Kinds have separate namespaces: a gauge "x" is a new instrument.
  Gauge& g = reg.gauge("x");
  g.set(5);
  EXPECT_EQ(a.value(), 3);
}

TEST(MetricsRegistry, SnapshotSortsAndCopies) {
  MetricsRegistry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.gauge("g").set(9);
  reg.histogram("h", {5}).observe(3);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a");
  EXPECT_EQ(snap.counters[1].first, "b");
  EXPECT_EQ(snap.counter_value("b"), 2);
  EXPECT_EQ(snap.counter_value("missing", -7), -7);
  EXPECT_EQ(snap.gauge_value("g"), 9);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].counts.size(), 2u);

  // The snapshot is detached: later updates do not show up in it.
  reg.counter("a").add(100);
  EXPECT_EQ(snap.counter_value("a"), 1);
}

TEST(MetricsSnapshot, CountersSinceIsExactPrefixFilteredCounterGrowth) {
  MetricsRegistry reg;
  Counter& a = reg.counter("levelb.a");
  a.add(5);
  reg.counter("levelb.b").add(2);
  Counter& other = reg.counter("engine.c");
  other.add(7);
  Gauge& g = reg.gauge("levelb.g");
  g.set(9);
  reg.histogram("levelb.h", {5}).observe(3);
  const MetricsSnapshot before = reg.snapshot();

  a.add(3);
  reg.counter("levelb.new").add(4);  // registered after `before`
  other.add(1);
  g.set(100);
  reg.histogram("levelb.h", {5}).observe(1);
  const MetricsSnapshot after = reg.snapshot();

  // Counters only, prefix dropped, sorted; unchanged ones report zero.
  const std::vector<std::pair<std::string, long long>> expected = {
      {"a", 3}, {"b", 0}, {"new", 4}};
  EXPECT_EQ(after.counters_since(before, "levelb."), expected);
  const std::vector<std::pair<std::string, long long>> engine = {{"c", 1}};
  EXPECT_EQ(after.counters_since(before, "engine."), engine);
  EXPECT_EQ(after.counters_since(before, "").size(), 4u);
  EXPECT_TRUE(after.counters_since(before, "flow.").empty());
  // Against itself every counter grew by zero.
  for (const auto& [name, delta] : after.counters_since(after, "")) {
    EXPECT_EQ(delta, 0) << name;
  }
}

TEST(MetricsRegistry, SnapshotJsonShape) {
  MetricsRegistry reg;
  reg.counter("runs").add(1);
  reg.gauge("width").set(10);
  reg.histogram("lat", {1, 2}).observe(2);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"width\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\": [1,2]"), std::string::npos);
  EXPECT_NE(json.find("\"counts\": [0,1,0]"), std::string::npos);
}

TEST(MetricsRegistry, ResetZeroesButKeepsReferencesValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Histogram& h = reg.histogram("h", {10});
  c.add(5);
  h.observe(3);
  reg.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(h.count(), 0);
  c.add(1);  // the old reference still points at the live instrument
  EXPECT_EQ(reg.snapshot().counter_value("c"), 1);
}

// Eight threads hammer one counter, one gauge and one histogram through
// the registry concurrently; totals must be exact (run under TSan in CI).
TEST(MetricsRegistry, ConcurrentUpdatesAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Resolve through the registry inside the loop on purpose: the
      // name lookup itself must also be thread-safe.
      Counter& c = reg.counter("shared.counter");
      Histogram& h = reg.histogram("shared.hist", {100, 1000});
      for (int i = 0; i < kIters; ++i) {
        c.add();
        reg.gauge("shared.gauge").set(t);
        h.observe(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("shared.counter"),
            static_cast<long long>(kThreads) * kIters);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count,
            static_cast<long long>(kThreads) * kIters);
  // Every thread observed 0..9999: 101 values <= 100 each.
  EXPECT_EQ(snap.histograms[0].counts[0], kThreads * 101LL);
  const long long g = snap.gauge_value("shared.gauge");
  EXPECT_GE(g, 0);
  EXPECT_LT(g, kThreads);
}

TEST(MetricsRegistry, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

}  // namespace
}  // namespace ocr::util
