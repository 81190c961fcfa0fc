#include <gtest/gtest.h>

#include <map>

#include "levelb/optimize.hpp"
#include "levelb/router.hpp"
#include "util/rng.hpp"

namespace ocr::levelb {
namespace {

constexpr geom::Orientation kH = geom::Orientation::kHorizontal;
constexpr geom::Orientation kV = geom::Orientation::kVertical;

using geom::Interval;
using geom::Point;
using geom::Rect;

/// Routes nets on a grid with a temporary blocker that forces a Z-shape,
/// then removes the blocker so the post-pass can straighten.
TEST(Straighten, FlattensZAfterBlockerRemoved) {
  auto grid = tig::TrackGrid::uniform(Rect(0, 0, 400, 400), 10, 10);
  // Block the direct horizontal track between the terminals.
  grid.block({kH, grid.nearest(kH, 205)}, Interval(100, 300));
  LevelBOptions options;
  options.ripup_rounds = 0;
  LevelBRouter router(grid);
  auto result = router.route({BNet{1, {Point{5, 205}, Point{395, 205}}}});
  ASSERT_EQ(result.failed_nets, 0);
  ASSERT_GE(result.nets[0].corners, 2);  // forced detour

  // The blocker goes away (e.g. a ripped-up wire).
  grid.unblock({kH, grid.nearest(kH, 205)}, Interval(100, 300));

  const auto stats = straighten_corners(grid, result);
  EXPECT_GT(stats.corners_removed, 0);
  EXPECT_GT(stats.length_saved, 0);
  EXPECT_EQ(result.nets[0].corners, 0);  // straight again
  EXPECT_EQ(result.nets[0].wire_length, 390);
  // The grid reflects the new wiring: the straight track is blocked again.
  EXPECT_FALSE(grid.is_free({kH, grid.nearest(kH, 205)}, Interval(5, 395)));
}

TEST(Straighten, NoopOnAlreadyOptimalPaths) {
  auto grid = tig::TrackGrid::uniform(Rect(0, 0, 400, 400), 10, 10);
  LevelBRouter router(grid);
  auto result = router.route({
      BNet{1, {Point{5, 5}, Point{395, 395}}},
      BNet{2, {Point{5, 395}, Point{395, 5}}},
  });
  ASSERT_EQ(result.failed_nets, 0);
  const auto before_wl = result.total_wire_length;
  const auto before_corners = result.total_corners;
  const auto stats = straighten_corners(grid, result);
  EXPECT_EQ(stats.corners_removed, 0);
  EXPECT_EQ(result.total_wire_length, before_wl);
  EXPECT_EQ(result.total_corners, before_corners);
}

TEST(Straighten, RespectsOtherNets) {
  auto grid = tig::TrackGrid::uniform(Rect(0, 0, 400, 400), 10, 10);
  LevelBRouter router(grid);
  // Net 2's straight track stays occupied by net 1, so net 2's detour
  // must survive the post-pass.
  auto result = router.route({
      BNet{1, {Point{105, 205}, Point{295, 205}}},   // blocks the middle
      BNet{2, {Point{5, 205}, Point{395, 205}}},     // must detour
  });
  ASSERT_EQ(result.failed_nets, 0);
  int detour_corners = 0;
  for (const auto& net : result.nets) {
    if (net.id == 2) detour_corners = net.corners;
  }
  ASSERT_GE(detour_corners, 2);
  straighten_corners(grid, result);
  for (const auto& net : result.nets) {
    if (net.id == 2) {
      EXPECT_GE(net.corners, 2);  // still detoured
    }
  }
}

TEST(Straighten, PreservesCrossNetExclusion) {
  // After optimization, different nets still never share track extents.
  util::Rng rng(4321);
  auto grid = tig::TrackGrid::uniform(Rect(0, 0, 500, 500), 10, 12);
  std::vector<BNet> nets;
  for (int n = 0; n < 30; ++n) {
    nets.push_back(BNet{
        n, {Point{rng.uniform_int(0, 499), rng.uniform_int(0, 499)},
            Point{rng.uniform_int(0, 499), rng.uniform_int(0, 499)},
            Point{rng.uniform_int(0, 499), rng.uniform_int(0, 499)}}});
  }
  LevelBRouter router(grid);
  auto result = router.route(nets);
  straighten_corners(grid, result);

  struct TrackLeg {
    int net;
    Interval span;
  };
  std::map<std::pair<int, int>, std::vector<TrackLeg>> by_track;
  for (const auto& net : result.nets) {
    for (const auto& path : net.paths) {
      for (std::size_t leg = 0; leg + 1 < path.points.size(); ++leg) {
        const auto& p = path.points[leg];
        const auto& q = path.points[leg + 1];
        const auto& t = path.tracks[leg];
        const bool horizontal = t.orient == geom::Orientation::kHorizontal;
        by_track[{horizontal ? 0 : 1, t.index}].push_back(TrackLeg{
            net.id,
            horizontal
                ? Interval(std::min(p.x, q.x), std::max(p.x, q.x))
                : Interval(std::min(p.y, q.y), std::max(p.y, q.y))});
      }
    }
  }
  for (const auto& [track, legs] : by_track) {
    for (std::size_t i = 0; i < legs.size(); ++i) {
      for (std::size_t j = i + 1; j < legs.size(); ++j) {
        if (legs[i].net == legs[j].net) continue;
        ASSERT_FALSE(legs[i].span.overlaps(legs[j].span))
            << "nets " << legs[i].net << "/" << legs[j].net
            << " overlap after straightening";
      }
    }
  }
}

TEST(Straighten, AccountingStaysConsistent) {
  util::Rng rng(2222);
  auto grid = tig::TrackGrid::uniform(Rect(0, 0, 400, 400), 10, 10);
  std::vector<BNet> nets;
  for (int n = 0; n < 20; ++n) {
    nets.push_back(BNet{
        n, {Point{rng.uniform_int(0, 399), rng.uniform_int(0, 399)},
            Point{rng.uniform_int(0, 399), rng.uniform_int(0, 399)}}});
  }
  LevelBRouter router(grid);
  auto result = router.route(nets);
  straighten_corners(grid, result);
  // Totals equal the per-net sums and the per-path sums.
  geom::Coord wl = 0;
  int corners = 0;
  for (const auto& net : result.nets) {
    geom::Coord net_wl = 0;
    int net_corners = 0;
    for (const auto& path : net.paths) {
      net_wl += path.length();
      net_corners += path.corners();
    }
    EXPECT_EQ(net.wire_length, net_wl) << "net " << net.id;
    EXPECT_EQ(net.corners, net_corners) << "net " << net.id;
    wl += net_wl;
    corners += net_corners;
  }
  EXPECT_EQ(result.total_wire_length, wl);
  EXPECT_EQ(result.total_corners, corners);
}

TEST(Straighten, MultiTerminalJunctionsPreserved) {
  // A T-shaped 3-terminal net: straightening one branch must not detach
  // the junction where the second branch meets it.
  auto grid = tig::TrackGrid::uniform(Rect(0, 0, 400, 400), 10, 10);
  LevelBRouter router(grid);
  auto result = router.route(
      {BNet{1, {Point{5, 205}, Point{395, 205}, Point{205, 5}}}});
  ASSERT_EQ(result.failed_nets, 0);
  straighten_corners(grid, result);
  // Every later path still starts/ends on some other path of the net.
  const auto& net = result.nets[0];
  ASSERT_GE(net.paths.size(), 2u);
  for (std::size_t p = 1; p < net.paths.size(); ++p) {
    const Point& tail = net.paths[p].points.back();
    bool attached = false;
    for (std::size_t q = 0; q < net.paths.size(); ++q) {
      if (q == p) continue;
      for (std::size_t leg = 0; leg + 1 < net.paths[q].points.size();
           ++leg) {
        const Point& a = net.paths[q].points[leg];
        const Point& b = net.paths[q].points[leg + 1];
        const Rect box = Rect::from_corners(a, b);
        if (box.contains(tail)) attached = true;
      }
    }
    EXPECT_TRUE(attached) << "path " << p << " lost its junction";
  }
}

}  // namespace
}  // namespace ocr::levelb
