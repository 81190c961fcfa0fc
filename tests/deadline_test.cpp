/// \file deadline_test.cpp
/// \brief Deadlines and hang limits carried by the run's CancelSource,
/// and effort budgets. Every cancelled() check enforces both limits and
/// the first cancel wins; a run with a deadline below its natural
/// completion time terminates well within 2x the deadline at any thread
/// count and reports the cancelled nets; budgets act deterministically
/// across thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "bench_data/levelb_instance.hpp"
#include "bench_data/synthetic.hpp"
#include "engine/engine.hpp"
#include "flow/flow.hpp"
#include "levelb/router.hpp"
#include "partition/partition.hpp"
#include "service/executor.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace ocr {
namespace {

using geom::Rect;
using util::CancelSource;
using util::StatusKind;

/// Measures deadlines with \p clock for the guard's lifetime.
struct TestClock {
  explicit TestClock(util::ProgressClock clock) {
    util::set_deadline_test_clock(clock);
  }
  ~TestClock() { util::set_deadline_test_clock(nullptr); }
};

/// One millisecond per unit of progress.
std::chrono::nanoseconds progress_ms(long long progress) {
  return std::chrono::milliseconds(progress);
}

/// Every deadline has passed at every check.
std::chrono::nanoseconds an_hour_later(long long /*progress*/) {
  return std::chrono::hours(1);
}

/// No time passes at all.
std::chrono::nanoseconds stopped(long long /*progress*/) {
  return std::chrono::nanoseconds(0);
}

/// Checks made on past_from_check; it reads every deadline as passed
/// from check number g_fire_at (1-based) on.
std::atomic<long long> g_checks{0};
std::atomic<long long> g_fire_at{0};

std::chrono::nanoseconds past_from_check(long long /*progress*/) {
  return g_checks.fetch_add(1) + 1 >= g_fire_at.load()
             ? std::chrono::hours(1)
             : std::chrono::nanoseconds(0);
}

/// Routes ami33 through service::execute_run on \p source.
flow::RunReport run_ami33(flow::FlowKind kind, long long deadline_ms,
                          CancelSource& source) {
  const auto ml =
      bench_data::generate_macro_layout(bench_data::ami33_spec());
  const auto partition = partition::partition_by_class(
      ml.assemble(std::vector<geom::Coord>(ml.num_channels(), 0)));
  flow::RunOptions options;
  options.kind = kind;
  options.deadline_ms = deadline_ms;
  options.faults = "-";
  return service::execute_run(ml, partition, options, source);
}

/// Routes ami33 with its deadline first read as passed at check \p n.
flow::RunReport run_ami33_past_from_check(flow::FlowKind kind, long long n) {
  const TestClock clock(past_from_check);
  g_checks.store(0);
  g_fire_at.store(n);
  CancelSource source;
  return run_ami33(kind, 1000, source);
}

TEST(Deadline, NoDeadlineNeverFires) {
  const TestClock clock(an_hour_later);
  CancelSource unset;
  EXPECT_FALSE(unset.cancelled());
  for (const long long budget : {0LL, -5LL}) {
    CancelSource source;
    source.set_deadline(std::chrono::milliseconds(budget));
    EXPECT_FALSE(source.token().cancelled());
    EXPECT_FALSE(source.cancelled());
  }
}

TEST(Deadline, FirstCheckPastTheDeadlineFires) {
  {
    const TestClock clock(progress_ms);
    CancelSource source;
    const util::CancelToken token = source.token();
    source.set_deadline(std::chrono::milliseconds(10));
    token.note_progress(9);
    EXPECT_FALSE(token.cancelled());
    token.note_progress(1);
    EXPECT_TRUE(token.cancelled());  // the token side fires it
    EXPECT_EQ(source.reason().kind(), StatusKind::kDeadlineExceeded);
    EXPECT_EQ(source.reason().stage(), "deadline");
  }
  // On the wall clock, from the source side.
  CancelSource source;
  source.set_deadline(std::chrono::seconds(60));
  EXPECT_FALSE(source.cancelled());
  source.set_deadline(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(source.cancelled());
  EXPECT_EQ(source.reason().kind(), StatusKind::kDeadlineExceeded);
}

/// A hang-limit or drain cancel that lands first keeps its reason, and
/// the run does not report the deadline.
TEST(Deadline, EarlierCancelKeepsItsReason) {
  const TestClock clock(an_hour_later);
  {
    CancelSource source;
    source.set_deadline(std::chrono::milliseconds(1));
    source.cancel(
        util::Status::cancelled("worker hung").with_stage("supervise"));
    EXPECT_TRUE(source.token().cancelled());
    EXPECT_EQ(source.reason().kind(), StatusKind::kCancelled);
    EXPECT_EQ(source.reason().stage(), "supervise");
  }
  CancelSource source;
  source.cancel(util::Status::cancelled("drain deadline").with_stage("drain"));
  const flow::RunReport report =
      run_ami33(flow::FlowKind::kOverCell, 1, source);
  EXPECT_FALSE(report.deadline_fired);
  EXPECT_EQ(report.error.kind(), StatusKind::kCancelled);
  EXPECT_EQ(report.error.stage(), "drain");
}

/// Checks the four-layer flow makes on ami33 when nothing cancels it.
long long four_layer_flow_checks() {
  const TestClock clock(past_from_check);
  g_checks.store(0);
  g_fire_at.store(std::numeric_limits<long long>::max());
  CancelSource source;
  source.set_deadline(std::chrono::seconds(1));
  flow::FlowOptions options;
  options.levelb.finder.cancel = source.token();
  flow::run_four_layer_channel_flow(
      bench_data::generate_macro_layout(bench_data::ami33_spec()), options);
  return g_checks.load();
}

/// A deadline that passes after the flow's last check is still reported
/// by the run's end-of-run check, the first check after the flow's own.
TEST(Deadline, EndOfRunCheckReportsADeadlinePassedBetweenChecks) {
  {
    const long long flow_checks = four_layer_flow_checks();
    ASSERT_GT(flow_checks, 0);
    const flow::RunReport report = run_ami33_past_from_check(
        flow::FlowKind::kFourLayer, flow_checks + 1);
    EXPECT_TRUE(report.deadline_fired);
    EXPECT_EQ(report.status, flow::RunStatus::kPartial);
    EXPECT_EQ(report.error.kind(), StatusKind::kDeadlineExceeded);
    EXPECT_GT(report.metrics.total_channel_tracks, 0);  // routed in full
  }
  // A run that ends before its deadline reports nothing.
  CancelSource source;
  const flow::RunReport report =
      run_ami33(flow::FlowKind::kFourLayer, 60'000, source);
  EXPECT_FALSE(report.deadline_fired);
  EXPECT_EQ(report.status, flow::RunStatus::kClean);
}

/// The four-layer flow checks the run's token before global routing and
/// before each channel, as level A does: past its deadline at every
/// check, it routes no channel and fails.
TEST(Deadline, FourLayerFlowStopsAtItsFirstCheck) {
  const TestClock clock(an_hour_later);
  CancelSource source;
  const flow::RunReport report =
      run_ami33(flow::FlowKind::kFourLayer, 1000, source);
  EXPECT_EQ(report.status, flow::RunStatus::kFailed);
  EXPECT_TRUE(report.deadline_fired);
  EXPECT_EQ(report.error.kind(), StatusKind::kDeadlineExceeded);
  EXPECT_EQ(report.metrics.total_channel_tracks, 0);
  ASSERT_FALSE(report.metrics.problems.empty());
  EXPECT_EQ(report.metrics.problems.front().rfind(
                "level A cancelled before global routing: [deadline]", 0),
            0u)
      << report.metrics.problems.front();
}

/// Both channel loops share one check: a deadline that passes after
/// global routing stops either flow before channel 0 with one problem.
TEST(Deadline, ChannelFlowsStopBeforeTheFirstChannelAlike) {
  for (const flow::FlowKind kind :
       {flow::FlowKind::kTwoLayer, flow::FlowKind::kFourLayer}) {
    const flow::RunReport report = run_ami33_past_from_check(kind, 2);
    SCOPED_TRACE(flow::flow_kind_name(kind));
    EXPECT_EQ(report.status, flow::RunStatus::kFailed);
    EXPECT_TRUE(report.deadline_fired);
    EXPECT_EQ(report.metrics.total_channel_tracks, 0);
    ASSERT_EQ(report.metrics.problems.size(), 1u);
    EXPECT_EQ(report.metrics.problems.front().rfind(
                  "level A cancelled before channel 0: [deadline]", 0),
              0u)
        << report.metrics.problems.front();
  }
}

/// A hang limit cancels at the first check that finds progress frozen
/// with the freeze timer past the limit, whatever the deadline test
/// clock says. set_hang_limit starts the timer, a check that sees
/// progress move stops it, and the next check that finds progress
/// unmoved starts it again.
TEST(HangLimit, FiresAfterFrozenProgress) {
  const TestClock clock(stopped);
  {
    CancelSource source;
    source.set_hang_limit(std::chrono::milliseconds(50));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_TRUE(source.cancelled());  // frozen since set_hang_limit
  }
  CancelSource source;
  const util::CancelToken token = source.token();
  source.set_hang_limit(std::chrono::milliseconds(200));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  token.note_progress();
  EXPECT_FALSE(token.cancelled());  // it moved: the timer stops
  EXPECT_FALSE(token.cancelled());  // unmoved: the timer starts here
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(token.cancelled());  // frozen for 100 ms, not 250
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(source.reason().kind(), StatusKind::kCancelled);
  EXPECT_EQ(source.reason().stage(), "supervise");
  EXPECT_EQ(source.reason().message(),
            "worker hung: progress frozen for 200 ms");
}

/// A job that reports progress between every two checks is slow, not
/// hung, however far apart the checks are.
TEST(HangLimit, NeverFiresWhileProgressAdvancesBetweenChecks) {
  CancelSource source;
  const util::CancelToken token = source.token();
  source.set_hang_limit(std::chrono::milliseconds(1));
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    token.note_progress();
    EXPECT_FALSE(token.cancelled()) << "check " << i;
  }
}

TEST(HangLimit, EarlierCancelKeepsItsReason) {
  {
    CancelSource source;
    source.set_hang_limit(std::chrono::milliseconds(1));
    source.cancel(
        util::Status::cancelled("drain deadline").with_stage("drain"));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(source.cancelled());
    EXPECT_EQ(source.reason().stage(), "drain");
  }
  // A hang that fired first is not overwritten by a later deadline.
  const TestClock clock(an_hour_later);
  CancelSource source;
  source.set_hang_limit(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(source.cancelled());
  source.set_deadline(std::chrono::milliseconds(1));
  EXPECT_TRUE(source.token().cancelled());
  EXPECT_EQ(source.reason().stage(), "supervise");
}

TEST(HangLimit, NoLimitNeverCancelsFrozenProgress) {
  CancelSource unset;
  CancelSource zero;
  zero.set_hang_limit(std::chrono::milliseconds(0));
  CancelSource negative;
  negative.set_hang_limit(std::chrono::milliseconds(-5));
  EXPECT_FALSE(zero.cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (const CancelSource* source : {&unset, &zero, &negative}) {
    EXPECT_FALSE(source->cancelled());
    EXPECT_FALSE(source->token().cancelled());
  }
}

/// Sharded workers check one source from several threads at once: past
/// either limit, one of them fires, and all see one reason.
TEST(Deadline, ConcurrentChecksRecordOneReason) {
  constexpr int kThreads = 8;
  for (const StatusKind kind :
       {StatusKind::kDeadlineExceeded, StatusKind::kCancelled}) {
    CancelSource source;
    if (kind == StatusKind::kDeadlineExceeded) {
      source.set_deadline(std::chrono::milliseconds(1));
    } else {
      source.set_hang_limit(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::atomic<bool> go{false};
    std::vector<int> fired(kThreads, 0);
    std::vector<util::Status> seen(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i, token = source.token()] {
        while (!go.load()) std::this_thread::yield();
        fired[i] = token.cancelled() ? 1 : 0;
        seen[i] = token.reason();
      });
    }
    go.store(true);
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < kThreads; ++i) {
      EXPECT_EQ(fired[i], 1) << "thread " << i;
      EXPECT_EQ(seen[i].kind(), kind);
      EXPECT_EQ(seen[i].to_string(), source.reason().to_string());
    }
  }
}

/// Acceptance criterion: a deadline below the natural completion time
/// terminates the run within 2x the deadline (plus scheduling slack) at
/// any thread count, and the cancelled nets are reported.
TEST(Deadline, DeadlinedRouteTerminatesPromptlyAtAnyThreadCount) {
  for (const int threads : {1, 4}) {
    util::Rng rng(11);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, 4000, 4000), 9, 11);
    auto nets = bench_data::uniform_random_nets(rng, 4000, 400);

    CancelSource source;
    engine::EngineOptions options;
    options.threads = threads;
    options.levelb.finder.cancel = source.token();

    const auto start = std::chrono::steady_clock::now();
    source.set_deadline(std::chrono::milliseconds(20));
    levelb::LevelBResult result;
    {
      engine::RoutingEngine router(grid, options);
      result = router.route(nets);
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);

    // The full instance takes far longer than 20 ms; the deadline must
    // have fired and stopped the run. Cooperative cancellation + thread
    // teardown gets generous slack on loaded CI machines, but an
    // un-cancelled run (several seconds) still fails the bound.
    ASSERT_EQ(source.reason().kind(), StatusKind::kDeadlineExceeded)
        << "threads=" << threads;
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
TEST(Budget, EffortBudgetIsThreadCountInvariant) {
  const auto route_with_budget = [](int threads) {
    util::Rng rng(5);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, 1000, 1000), 9, 11);
    auto nets = bench_data::uniform_random_nets(rng, 1000, 100);
    engine::EngineOptions options;
    options.threads = threads;
    options.levelb.net_vertex_budget = 400;
    engine::RoutingEngine router(grid, options);
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
TEST(Budget, BudgetStoppedNetsAreCleanlyAbandoned) {
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
}  // namespace ocr
