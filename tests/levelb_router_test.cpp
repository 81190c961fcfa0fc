#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "levelb/router.hpp"
#include "util/rng.hpp"

namespace ocr::levelb {
namespace {

constexpr geom::Orientation kH = geom::Orientation::kHorizontal;
constexpr geom::Orientation kV = geom::Orientation::kVertical;

using geom::Interval;
using geom::Point;
using geom::Rect;

tig::TrackGrid make_grid(geom::Coord size = 200) {
  return tig::TrackGrid::uniform(Rect(0, 0, size, size), 10, 10);
}

TEST(LevelBRouter, OrderNetsIsStableOnHalfPerimeter) {
  // Many ties (extents drawn from a few values) and empty nets; each
  // ordering must equal a stable sort that recomputes the key per
  // comparison.
  util::Rng rng(5);
  std::vector<BNet> nets(200);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    nets[i].id = static_cast<int>(i);
    const int terminals = static_cast<int>(rng.uniform_int(0, 3));
    for (int t = 0; t < terminals; ++t) {
      nets[i].terminals.push_back(
          Point{10 * rng.uniform_int(0, 3), 10 * rng.uniform_int(0, 3)});
    }
  }
  const auto extent = [&nets](std::size_t i) -> geom::Coord {
    if (nets[i].terminals.empty()) return 0;
    const Rect box = geom::bounding_box(nets[i].terminals);
    return box.width() + box.height();
  };
  std::vector<std::size_t> given(nets.size());
  for (std::size_t i = 0; i < given.size(); ++i) given[i] = i;
  std::vector<std::size_t> longest = given;
  std::stable_sort(longest.begin(), longest.end(),
                   [&](std::size_t a, std::size_t b) {
                     return extent(a) > extent(b);
                   });
  std::vector<std::size_t> shortest = given;
  std::stable_sort(shortest.begin(), shortest.end(),
                   [&](std::size_t a, std::size_t b) {
                     return extent(a) < extent(b);
                   });
  EXPECT_EQ(order_nets(nets, NetOrdering::kAsGiven), given);
  EXPECT_EQ(order_nets(nets, NetOrdering::kLongestFirst), longest);
  EXPECT_EQ(order_nets(nets, NetOrdering::kShortestFirst), shortest);
}

TEST(LevelBRouter, RoutesTwoTerminalNet) {
  auto grid = make_grid();
  LevelBRouter router(grid);
  const auto result =
      router.route({BNet{1, {Point{5, 5}, Point{155, 105}}}});
  ASSERT_EQ(result.nets.size(), 1u);
  EXPECT_TRUE(result.nets[0].complete);
  EXPECT_EQ(result.routed_nets, 1);
  EXPECT_EQ(result.nets[0].wire_length, 250);
  EXPECT_EQ(result.nets[0].corners, 1);
}

TEST(LevelBRouter, CommitsWiresToGrid) {
  auto grid = make_grid();
  LevelBRouter router(grid);
  router.route({BNet{1, {Point{5, 45}, Point{195, 45}}}});
  // The straight wire on y=45 must now block that track.
  const int i = grid.nearest(kH, 45);
  EXPECT_FALSE(grid.is_free({kH, i}, Interval(5, 195)));
}

TEST(LevelBRouter, SecondNetAvoidsFirst) {
  auto grid = make_grid();
  LevelBRouter router(grid);
  // Net 1 routes straight across y=45; net 2 wants to cross it vertically
  // on x=95 — legal (different layers), but net 2's horizontal pieces must
  // avoid y=45 where occupied.
  const auto result = router.route({
      BNet{1, {Point{5, 45}, Point{195, 45}}},
      BNet{2, {Point{95, 5}, Point{95, 195}}},
  });
  EXPECT_EQ(result.routed_nets, 2);
  EXPECT_EQ(result.failed_nets, 0);
}

TEST(LevelBRouter, MultiTerminalNetConnectsAll) {
  auto grid = make_grid();
  LevelBRouter router(grid);
  const BNet net{
      7, {Point{5, 5}, Point{195, 5}, Point{5, 195}, Point{195, 195},
          Point{95, 95}}};
  const auto result = router.route({net});
  ASSERT_EQ(result.nets.size(), 1u);
  EXPECT_TRUE(result.nets[0].complete);
  // 5 terminals -> 4 connections.
  EXPECT_EQ(result.nets[0].paths.size(), 4u);
  EXPECT_GT(result.nets[0].wire_length, 0);
}

TEST(LevelBRouter, SteinerReuseBeatsStarTopology) {
  auto grid = make_grid(400);
  LevelBRouter router(grid);
  // Terminals on one line: chaining should cost ~ the line length, far
  // less than a star from the first terminal.
  const BNet net{
      3, {Point{5, 205}, Point{105, 205}, Point{205, 205}, Point{305, 205},
          Point{395, 205}}};
  const auto result = router.route({net});
  ASSERT_TRUE(result.nets[0].complete);
  EXPECT_LE(result.nets[0].wire_length, 390 + 40);  // near the chain bound
}

TEST(LevelBRouter, SingleTerminalNetTriviallyComplete) {
  auto grid = make_grid();
  LevelBRouter router(grid);
  const auto result = router.route({BNet{1, {Point{5, 5}}}});
  EXPECT_TRUE(result.nets[0].complete);
  EXPECT_EQ(result.nets[0].wire_length, 0);
}

TEST(LevelBRouter, CoincidentTerminalsDeduplicated) {
  auto grid = make_grid();
  LevelBRouter router(grid);
  const auto result =
      router.route({BNet{1, {Point{5, 5}, Point{6, 6}, Point{5, 5}}}});
  // All three snap to (5,5): nothing to route.
  EXPECT_TRUE(result.nets[0].complete);
  EXPECT_EQ(result.nets[0].wire_length, 0);
}

TEST(LevelBRouter, ObstacleForcesDetourOrFailure) {
  auto grid = make_grid();
  // Wall the middle on both layers except a gap at the top.
  const Rect wall(90, 0, 110, 160);
  grid.block_region_h(wall);
  grid.block_region_v(wall);
  LevelBRouter router(grid);
  const auto result =
      router.route({BNet{1, {Point{5, 45}, Point{195, 45}}}});
  ASSERT_TRUE(result.nets[0].complete);
  // Must detour above y=160.
  geom::Coord max_y = 0;
  for (const auto& path : result.nets[0].paths) {
    for (const auto& p : path.points) max_y = std::max(max_y, p.y);
  }
  EXPECT_GT(max_y, 160);
}

TEST(LevelBRouter, FullyWalledNetFails) {
  auto grid = make_grid();
  const Rect wall(90, 0, 110, 200);
  grid.block_region_h(wall);
  grid.block_region_v(wall);
  LevelBRouter router(grid);
  const auto result =
      router.route({BNet{1, {Point{5, 45}, Point{195, 45}}}});
  EXPECT_FALSE(result.nets[0].complete);
  EXPECT_EQ(result.failed_nets, 1);
  EXPECT_GT(result.nets[0].failed_connections, 0);
}

TEST(LevelBRouter, LongestFirstOrderingUsed) {
  auto grid = make_grid(400);
  LevelBOptions opts;
  opts.ordering = NetOrdering::kLongestFirst;
  LevelBRouter router(grid, opts);
  const auto result = router.route({
      BNet{1, {Point{5, 5}, Point{25, 5}}},        // short
      BNet{2, {Point{5, 105}, Point{395, 305}}},   // long
  });
  ASSERT_EQ(result.nets.size(), 2u);
  // Longest routed first -> appears first in results.
  EXPECT_EQ(result.nets[0].id, 2);
  EXPECT_EQ(result.nets[1].id, 1);
}

TEST(LevelBRouter, AsGivenOrderingPreserved) {
  auto grid = make_grid(400);
  LevelBOptions opts;
  opts.ordering = NetOrdering::kAsGiven;
  LevelBRouter router(grid, opts);
  const auto result = router.route({
      BNet{1, {Point{5, 5}, Point{25, 5}}},
      BNet{2, {Point{5, 105}, Point{395, 305}}},
  });
  EXPECT_EQ(result.nets[0].id, 1);
  EXPECT_EQ(result.nets[1].id, 2);
}

TEST(LevelBRouterProperty, ManyRandomNetsMostlyComplete) {
  util::Rng rng(909);
  auto grid = make_grid(600);
  LevelBRouter router(grid);
  std::vector<BNet> nets;
  for (int n = 0; n < 40; ++n) {
    BNet net{n, {}};
    const int degree = static_cast<int>(rng.uniform_int(2, 5));
    for (int t = 0; t < degree; ++t) {
      net.terminals.push_back(Point{rng.uniform_int(0, 599),
                                    rng.uniform_int(0, 599)});
    }
    nets.push_back(std::move(net));
  }
  const auto result = router.route(nets);
  EXPECT_GE(result.completion_rate(), 0.95);
  EXPECT_GT(result.total_wire_length, 0);
}

TEST(LevelBRouterProperty, CommittedNetsNeverOverlapOnTracks) {
  // Different nets must never share any point of any track (crossing on
  // perpendicular tracks is fine — different layers).
  util::Rng rng(911);
  auto grid = make_grid(400);
  LevelBRouter router(grid);
  std::vector<BNet> nets;
  for (int n = 0; n < 25; ++n) {
    BNet net{n, {Point{rng.uniform_int(0, 399), rng.uniform_int(0, 399)},
                 Point{rng.uniform_int(0, 399), rng.uniform_int(0, 399)}}};
    nets.push_back(std::move(net));
  }
  const auto result = router.route(nets);
  EXPECT_GT(result.routed_nets, 15);

  struct TrackLeg {
    int net;
    Interval span;
  };
  std::map<std::pair<int, int>, std::vector<TrackLeg>> by_track;
  for (const auto& net_result : result.nets) {
    for (const auto& path : net_result.paths) {
      for (std::size_t leg = 0; leg + 1 < path.points.size(); ++leg) {
        const Point& p = path.points[leg];
        const Point& q = path.points[leg + 1];
        const auto& t = path.tracks[leg];
        const bool horizontal = t.orient == geom::Orientation::kHorizontal;
        const Interval span =
            horizontal
                ? Interval(std::min(p.x, q.x), std::max(p.x, q.x))
                : Interval(std::min(p.y, q.y), std::max(p.y, q.y));
        by_track[{horizontal ? 0 : 1, t.index}].push_back(
            TrackLeg{net_result.id, span});
      }
    }
  }
  for (const auto& [track, legs] : by_track) {
    for (std::size_t i = 0; i < legs.size(); ++i) {
      for (std::size_t j = i + 1; j < legs.size(); ++j) {
        if (legs[i].net == legs[j].net) continue;
        EXPECT_FALSE(legs[i].span.overlaps(legs[j].span))
            << "nets " << legs[i].net << " and " << legs[j].net
            << " overlap on track (" << track.first << "," << track.second
            << ")";
      }
    }
  }
}

}  // namespace
}  // namespace ocr::levelb
