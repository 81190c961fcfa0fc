/// \file watchdog_test.cpp
/// \brief Deadline watchdog and effort-budget behaviour: a run with
/// a deadline below its natural completion time must terminate well
/// within 2x the deadline at any thread count and report the cancelled
/// nets; budgets must act deterministically across thread counts.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "bench_data/levelb_instance.hpp"
#include "engine/engine.hpp"
#include "engine/watchdog.hpp"
#include "levelb/router.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace ocr::engine {
namespace {

using geom::Rect;

TEST(Watchdog, NoLimitsNeverFires) {
  util::CancelSource source;
  {
    Watchdog watchdog(source, Watchdog::Options{});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(watchdog.fired());
  }
  EXPECT_FALSE(source.cancelled());
}

TEST(Watchdog, DeadlineFiresWithDeadlineStatus) {
  util::CancelSource source;
  Watchdog::Options options;
  options.deadline = std::chrono::milliseconds(10);
  options.poll = std::chrono::milliseconds(2);
  Watchdog watchdog(source, options);
  const auto start = std::chrono::steady_clock::now();
  while (!source.cancelled() &&
         std::chrono::steady_clock::now() - start <
             std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(source.cancelled());
  EXPECT_TRUE(watchdog.fired());
  EXPECT_EQ(source.reason().kind(), util::StatusKind::kDeadlineExceeded);
}

TEST(Watchdog, StopReportsADeadlinePassedBetweenPolls) {
  Watchdog::Options options;
  options.deadline = std::chrono::milliseconds(5);
  options.poll = std::chrono::seconds(60);  // no poll lands in this test
  {
    util::CancelSource source;
    Watchdog watchdog(source, options);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(source.cancelled());
    watchdog.stop();
    EXPECT_TRUE(watchdog.fired());
    ASSERT_TRUE(source.cancelled());
    EXPECT_EQ(source.reason().kind(), util::StatusKind::kDeadlineExceeded);
  }
  {
    // A run that stops before its deadline is not reported.
    options.deadline = std::chrono::seconds(60);
    util::CancelSource source;
    Watchdog watchdog(source, options);
    watchdog.stop();
    EXPECT_FALSE(watchdog.fired());
    EXPECT_FALSE(source.cancelled());
  }
}

/// Acceptance criterion: a deadline below the natural completion time
/// terminates the run within 2x the deadline (plus scheduling slack) at
/// any thread count, and the cancelled nets are reported.
TEST(Watchdog, DeadlinedRouteTerminatesPromptlyAtAnyThreadCount) {
  for (const int threads : {1, 4}) {
    util::Rng rng(11);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, 4000, 4000), 9, 11);
    auto nets = bench_data::uniform_random_nets(rng, 4000, 400);

    util::CancelSource source;
    EngineOptions options;
    options.threads = threads;
    options.levelb.finder.cancel = source.token();

    Watchdog::Options wopt;
    wopt.deadline = std::chrono::milliseconds(20);
    wopt.poll = std::chrono::milliseconds(2);

    const auto start = std::chrono::steady_clock::now();
    levelb::LevelBResult result;
    {
      Watchdog watchdog(source, wopt);
      RoutingEngine router(grid, options);
      result = router.route(nets);
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);

    // The full instance takes far longer than 20 ms; the deadline must
    // have fired and stopped the run. Cooperative cancellation + thread
    // teardown gets generous slack on loaded CI machines, but an
    // un-cancelled run (several seconds) still fails the bound.
    ASSERT_TRUE(source.cancelled()) << "threads=" << threads;
    EXPECT_LT(elapsed.count(), 2 * 20 + 500) << "threads=" << threads;
    EXPECT_GT(result.cancelled_nets, 0) << "threads=" << threads;
    EXPECT_EQ(result.failed_nets + result.routed_nets,
              static_cast<int>(nets.size()));
    for (const levelb::NetResult& net : result.nets) {
      if (net.outcome == util::StatusKind::kCancelled) {
        EXPECT_FALSE(net.complete);
      }
    }
  }
}

/// Budgets are deterministic: the same per-net vertex budget produces the
/// same result (same nets stopped, bit-identical wiring) at any thread
/// count, because budget accounting is per net and ignores wall clock.
TEST(Watchdog, EffortBudgetIsThreadCountInvariant) {
  const auto route_with_budget = [](int threads) {
    util::Rng rng(5);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, 1000, 1000), 9, 11);
    auto nets = bench_data::uniform_random_nets(rng, 1000, 100);
    EngineOptions options;
    options.threads = threads;
    options.levelb.net_vertex_budget = 400;
    RoutingEngine router(grid, options);
    return router.route(nets);
  };
  const levelb::LevelBResult serial = route_with_budget(1);
  EXPECT_GT(serial.budget_nets, 0) << "budget chosen too high to bite";
  for (const int threads : {2, 4}) {
    const levelb::LevelBResult parallel = route_with_budget(threads);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

/// A budget-stopped net is marked with kBudgetExhausted and never carries
/// partial wiring (whole-connect abort).
TEST(Watchdog, BudgetStoppedNetsAreCleanlyAbandoned) {
  util::Rng rng(5);
  auto grid = tig::TrackGrid::uniform(Rect(0, 0, 1000, 1000), 9, 11);
  auto nets = bench_data::uniform_random_nets(rng, 1000, 100);
  levelb::LevelBOptions options;
  options.net_vertex_budget = 400;
  options.ripup_rounds = 0;
  levelb::LevelBRouter router(grid, options);
  const levelb::LevelBResult result = router.route(nets);
  ASSERT_GT(result.budget_nets, 0);
  for (const levelb::NetResult& net : result.nets) {
    if (net.outcome == util::StatusKind::kBudgetExhausted) {
      EXPECT_FALSE(net.complete);
      EXPECT_GT(net.failed_connections, 0);
    }
  }
}

}  // namespace
}  // namespace ocr::engine
