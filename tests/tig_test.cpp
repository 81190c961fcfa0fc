#include <gtest/gtest.h>

#include "tig/graph.hpp"
#include "tig/track_grid.hpp"

namespace ocr::tig {
namespace {

constexpr geom::Orientation kH = geom::Orientation::kHorizontal;
constexpr geom::Orientation kV = geom::Orientation::kVertical;

using geom::Interval;
using geom::Point;
using geom::Rect;

TrackGrid small_grid() {
  return TrackGrid({10, 20, 30}, {5, 15, 25, 35}, Rect(0, 0, 40, 40));
}

TEST(TrackGrid, ConstructionAndAccess) {
  const TrackGrid g = small_grid();
  EXPECT_EQ(g.num_h(), 3);
  EXPECT_EQ(g.num_v(), 4);
  EXPECT_EQ(g.h_y(1), 20);
  EXPECT_EQ(g.v_x(3), 35);
  EXPECT_EQ(g.crossing(1, 2), (Point{25, 20}));
}

TEST(TrackGrid, UniformConstruction) {
  const TrackGrid g = TrackGrid::uniform(Rect(0, 0, 100, 60), 10, 10);
  EXPECT_EQ(g.num_h(), 6);   // y = 5, 15, ..., 55
  EXPECT_EQ(g.num_v(), 10);  // x = 5, 15, ..., 95
  EXPECT_EQ(g.h_y(0), 5);
  EXPECT_EQ(g.v_x(9), 95);
}

TEST(TrackGrid, NonUniformSpacingSupported) {
  // The paper allows "different spacing" between tracks.
  const TrackGrid g({5, 7, 30}, {1, 100}, Rect(0, 0, 120, 40));
  EXPECT_EQ(g.nearest(kH, 6), 0);   // tie goes to the lower track
  EXPECT_EQ(g.nearest(kH, 17), 1);  // |17-7| = 10 < |30-17| = 13
  EXPECT_EQ(g.nearest(kH, 20), 2);  // |20-30| = 10 < |20-7| = 13
  EXPECT_EQ(g.nearest(kV, 49), 0);
  EXPECT_EQ(g.nearest(kV, 52), 1);
}

TEST(TrackGrid, NearestClamping) {
  const TrackGrid g = small_grid();
  EXPECT_EQ(g.nearest(kH, -100), 0);
  EXPECT_EQ(g.nearest(kH, 999), 2);
  EXPECT_EQ(g.snap(Point{0, 0}), (Point{5, 10}));
  EXPECT_EQ(g.snap(Point{36, 26}), (Point{35, 30}));
}

TEST(TrackGrid, BlockAndQuery) {
  TrackGrid g = small_grid();
  EXPECT_TRUE(g.is_free({kH, 0}, Interval(0, 40)));
  g.block({kH, 0}, Interval(10, 20));
  EXPECT_FALSE(g.is_free({kH, 0}, Interval(0, 40)));
  EXPECT_TRUE(g.is_free({kH, 0}, Interval(21, 40)));
  EXPECT_FALSE(g.crossing_free(0, 1));  // v1 at x=15 inside [10,20]
  EXPECT_TRUE(g.crossing_free(0, 0));   // x=5 free
  g.unblock({kH, 0}, Interval(10, 20));
  EXPECT_TRUE(g.is_free({kH, 0}, Interval(0, 40)));
}

TEST(TrackGrid, FreeSegments) {
  TrackGrid g = small_grid();
  g.block({kH, 1}, Interval(14, 16));
  const auto left = g.free_segment({kH, 1}, 5);
  ASSERT_TRUE(left.has_value());
  EXPECT_EQ(*left, Interval(0, 13));
  const auto right = g.free_segment({kH, 1}, 25);
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(*right, Interval(17, 40));
  EXPECT_FALSE(g.free_segment({kH, 1}, 15).has_value());
}

TEST(TrackGrid, RegionBlocking) {
  TrackGrid g = small_grid();
  g.block_region_h(Rect(10, 15, 30, 25));  // covers h track at y=20 only
  EXPECT_FALSE(g.is_free({kH, 1}, Interval(10, 30)));
  EXPECT_TRUE(g.is_free({kH, 0}, Interval(0, 40)));
  EXPECT_TRUE(g.is_free({kH, 2}, Interval(0, 40)));

  g.block_region_v(Rect(10, 15, 30, 25));  // covers v tracks at x=15, 25
  EXPECT_FALSE(g.is_free({kV, 1}, Interval(15, 25)));
  EXPECT_FALSE(g.is_free({kV, 2}, Interval(15, 25)));
  EXPECT_TRUE(g.is_free({kV, 0}, Interval(0, 40)));
  EXPECT_TRUE(g.is_free({kV, 3}, Interval(0, 40)));
}

TEST(TrackGrid, DistanceToBlocked) {
  TrackGrid g = small_grid();
  EXPECT_FALSE(g.distance_to_blocked({kH, 0}, 20).has_value());
  g.block({kH, 0}, Interval(30, 35));
  const auto d = g.distance_to_blocked({kH, 0}, 20);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 10);
  EXPECT_EQ(*g.distance_to_blocked({kH, 0}, 32), 0);
}

TEST(TrackGrid, BlockedFraction) {
  TrackGrid g = small_grid();
  EXPECT_DOUBLE_EQ(g.blocked_fraction({kH, 0}, Interval(0, 40)), 0.0);
  g.block({kH, 0}, Interval(0, 20));
  EXPECT_DOUBLE_EQ(g.blocked_fraction({kH, 0}, Interval(0, 40)), 0.5);
  EXPECT_DOUBLE_EQ(g.blocked_fraction({kH, 0}, Interval(0, 20)), 1.0);
}

TEST(TrackGrid, BlockPastTheUniverseIsClipped) {
  // A block reaching past the die edge blocks the track only up to the
  // edge: it reads exactly like the same block clipped at the edge, also
  // from the edge and beyond it. The h tracks' universe is x in [0, 40].
  TrackGrid past = small_grid();
  TrackGrid clipped = small_grid();
  past.block({kH, 0}, Interval(30, 60));
  clipped.block({kH, 0}, Interval(30, 40));
  past.block({kH, 1}, Interval(-30, -10));  // wholly outside: no block
  for (const geom::Coord x : {-20, 0, 20, 40, 45, 60}) {
    for (const int i : {0, 1}) {
      EXPECT_EQ(past.distance_to_blocked({kH, i}, x),
                clipped.distance_to_blocked({kH, i}, x))
          << "track " << i << " at " << x;
      EXPECT_EQ(past.blocked_fraction({kH, i}, Interval(x, x + 10)),
                clipped.blocked_fraction({kH, i}, Interval(x, x + 10)))
          << "track " << i << " at " << x;
    }
  }
  EXPECT_EQ(past.distance_to_blocked({kH, 0}, 45), 5);  // the edge at 40
  EXPECT_FALSE(past.distance_to_blocked({kH, 1}, 0).has_value());
  EXPECT_TRUE(past.is_free({kH, 1}, Interval(-40, 80)));
}

TEST(Graph, CompleteWithoutObstacles) {
  const TrackGrid g = small_grid();
  const TrackIntersectionGraph tig = build_tig(g);
  EXPECT_EQ(tig.num_h, 3);
  EXPECT_EQ(tig.num_v, 4);
  EXPECT_EQ(tig.num_edges(), 12u);
  EXPECT_TRUE(tig.complete());
}

TEST(Graph, ObstacleRemovesEdges) {
  TrackGrid g = small_grid();
  g.block({kH, 1}, Interval(14, 26));  // kills crossings (h2,v2) and (h2,v3)
  const TrackIntersectionGraph tig = build_tig(g);
  EXPECT_EQ(tig.num_edges(), 10u);
  EXPECT_FALSE(tig.complete());
  EXPECT_EQ(tig.adjacency_h[1], (std::vector<int>{0, 3}));
}

TEST(Graph, BipartiteConsistency) {
  TrackGrid g = small_grid();
  g.block({kV, 2}, Interval(0, 40));  // v3 fully blocked
  const TrackIntersectionGraph tig = build_tig(g);
  EXPECT_TRUE(tig.adjacency_v[2].empty());
  for (const auto& adj : tig.adjacency_h) {
    for (int j : adj) EXPECT_NE(j, 2);
  }
  // Edge count symmetric across the two sides.
  std::size_t from_v = 0;
  for (const auto& adj : tig.adjacency_v) from_v += adj.size();
  EXPECT_EQ(from_v, tig.num_edges());
}

TEST(Graph, ToStringLabelsTracks) {
  const TrackGrid g = small_grid();
  const auto str = build_tig(g).to_string();
  EXPECT_NE(str.find("h1: v1 v2 v3 v4"), std::string::npos);
}

}  // namespace
}  // namespace ocr::tig
