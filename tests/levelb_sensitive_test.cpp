#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "levelb/router.hpp"

namespace ocr::levelb {
namespace {

constexpr geom::Orientation kH = geom::Orientation::kHorizontal;
constexpr geom::Orientation kV = geom::Orientation::kVertical;

using geom::Interval;
using geom::Point;
using geom::Rect;

/// Two horizontal nets on nearby rows: the sensitive one routes first
/// (longest); the second would naturally hug it on the adjacent track.
/// With w24 the second keeps its distance.
struct Scenario {
  LevelBResult result;
  int sensitive_track = 0;
  tig::TrackGrid grid = tig::TrackGrid::uniform(Rect(0, 0, 800, 400),
                                                10, 10);
};

/// Routes the scenario serially, or through the sharded engine when
/// \p threads > 1 (which must give the same answer).
Scenario run(double w24, int threads = 1) {
  Scenario s;
  s.sensitive_track = s.grid.nearest(kH, 205);

  BNet shield{1, {Point{5, 205}, Point{795, 205}}, /*sensitive=*/true};
  // Aggressor: diagonal terminals with two one-corner L candidates — one
  // runs the full length on the track adjacent to the shield (y=215), the
  // other stays far away (y=105). The §3.2 cost stage arbitrates between
  // equal-corner candidates; w24 must push it off the shield.
  BNet aggressor{2, {Point{5, 105}, Point{795, 215}}, false};

  LevelBOptions options;
  // Isolate the w24 term: the drg proximity term would also repel the
  // shield and muddy the measurement.
  options.finder.weights.w21 = 0.0;
  options.finder.weights.w22 = 0.0;
  options.finder.weights.w23 = 0.0;
  options.finder.weights.w24 = w24;
  options.ordering = NetOrdering::kAsGiven;
  engine::EngineOptions eopt;
  eopt.levelb = options;
  eopt.threads = threads;
  engine::RoutingEngine router(s.grid, eopt);
  s.result = router.route({shield, aggressor});
  return s;
}

/// Total length the aggressor runs within one pitch of the shield's row.
geom::Coord parallel_run_length(const Scenario& s) {
  geom::Coord total = 0;
  for (const auto& net : s.result.nets) {
    if (net.id != 2) continue;
    for (const auto& path : net.paths) {
      for (std::size_t leg = 0; leg + 1 < path.points.size(); ++leg) {
        const Point& p = path.points[leg];
        const Point& q = path.points[leg + 1];
        if (p.y != q.y) continue;  // horizontal legs only
        const geom::Coord dy = std::abs(p.y - 205);
        if (dy <= 12) total += std::abs(q.x - p.x);
      }
    }
  }
  return total;
}

TEST(SensitiveNets, PenaltyPushesAggressorAway) {
  // With the penalty active, the aggressor must pick the far L: at most a
  // short vertical crossing near the shield, no long parallel run.
  const Scenario with = run(50.0);
  ASSERT_EQ(with.result.failed_nets, 0);
  EXPECT_LT(parallel_run_length(with), 100);
}

TEST(SensitiveNets, PenaltyNeverIncreasesParallelRun) {
  for (int threads : {1, 4}) {
    const Scenario without = run(0.0, threads);
    const Scenario with = run(50.0, threads);
    ASSERT_EQ(without.result.failed_nets, 0) << "threads=" << threads;
    ASSERT_EQ(with.result.failed_nets, 0) << "threads=" << threads;
    EXPECT_LE(parallel_run_length(with), parallel_run_length(without))
        << "threads=" << threads;
    EXPECT_EQ(with.result, run(50.0, 1).result) << "threads=" << threads;
  }
}

TEST(SensitiveNets, PenaltyDoesNotBreakCompletion) {
  for (const double w24 : {0.0, 1.0, 10.0, 100.0}) {
    const Scenario s = run(w24);
    EXPECT_EQ(s.result.failed_nets, 0) << "w24=" << w24;
  }
}

TEST(SensitiveRuns, OverlapAccounting) {
  SensitiveRuns runs;
  runs.add_h(3, Interval(10, 50));
  runs.add_h(3, Interval(100, 120));
  EXPECT_EQ(runs.overlap({kH, 3}, Interval(0, 200)), 60);
  EXPECT_EQ(runs.overlap({kH, 3}, Interval(30, 110)), 30);
  EXPECT_EQ(runs.overlap({kH, 3}, Interval(60, 90)), 0);
  EXPECT_EQ(runs.overlap({kH, 4}, Interval(0, 200)), 0);
  EXPECT_TRUE(SensitiveRuns{}.empty());
  EXPECT_FALSE(runs.empty());
}

TEST(SensitiveRuns, VerticalOverlap) {
  SensitiveRuns runs;
  runs.add_v(7, Interval(0, 100));
  EXPECT_EQ(runs.overlap({kV, 7}, Interval(50, 150)), 50);
  EXPECT_EQ(runs.overlap({kV, 6}, Interval(50, 150)), 0);
}

}  // namespace
}  // namespace ocr::levelb
