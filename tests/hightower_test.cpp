#include <gtest/gtest.h>

#include "levelb/path.hpp"
#include "maze/hightower.hpp"
#include "maze/lee.hpp"
#include "util/rng.hpp"

namespace ocr::maze {
namespace {

using geom::Interval;
using geom::Point;
using geom::Rect;

tig::TrackGrid open_grid(geom::Coord size = 200) {
  return tig::TrackGrid::uniform(Rect(0, 0, size, size), 10, 10);
}

TEST(Hightower, StraightConnection) {
  const auto grid = open_grid();
  const auto r = hightower_connect(grid, Point{5, 25}, Point{175, 25});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.path.length(), 170);
  EXPECT_EQ(r.path.corners(), 0);
}

TEST(Hightower, LShape) {
  const auto grid = open_grid();
  const auto r = hightower_connect(grid, Point{5, 5}, Point{175, 175});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.path.length(), 340);
  EXPECT_LE(r.path.corners(), 2);
  EXPECT_TRUE(
      levelb::validate_path(grid, r.path, Point{5, 5}, Point{175, 175})
          .empty());
}

TEST(Hightower, IdenticalEndpoints) {
  const auto grid = open_grid();
  const auto r = hightower_connect(grid, Point{5, 5}, Point{5, 5});
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.path.empty());
}

TEST(Hightower, DetoursAroundObstacle) {
  auto grid = open_grid();
  const Rect wall(90, 0, 110, 160);
  grid.block_region_h(wall);
  grid.block_region_v(wall);
  const auto r = hightower_connect(grid, Point{5, 45}, Point{195, 45});
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(
      levelb::validate_path(grid, r.path, Point{5, 45}, Point{195, 45})
          .empty());
}

TEST(Hightower, ReportsUnreachable) {
  auto grid = open_grid();
  const Rect wall(90, 0, 110, 200);
  grid.block_region_h(wall);
  grid.block_region_v(wall);
  const auto r = hightower_connect(grid, Point{5, 45}, Point{195, 45});
  EXPECT_FALSE(r.found);
}

TEST(Hightower, ExpandsFarFewerProbesThanLeeCells) {
  const auto grid = open_grid(1000);
  const Point a{5, 5};
  const Point b{995, 995};
  const auto ht = hightower_connect(grid, a, b);
  const auto lee = lee_connect(grid, a, b);
  ASSERT_TRUE(ht.found);
  ASSERT_TRUE(lee.found);
  EXPECT_LT(ht.probes_expanded, lee.cells_expanded / 10);
}

TEST(HightowerProperty, ValidPathsAndBoundedMeander) {
  util::Rng rng(606);
  int found = 0;
  long long ht_total = 0;
  long long lee_total = 0;
  for (int trial = 0; trial < 30; ++trial) {
    auto grid = open_grid(300);
    for (int k = 0; k < 6; ++k) {
      const geom::Coord x = rng.uniform_int(0, 250);
      const geom::Coord y = rng.uniform_int(0, 250);
      const Rect r(x, y, x + rng.uniform_int(10, 40),
                   y + rng.uniform_int(10, 40));
      grid.block_region_h(r);
      grid.block_region_v(r);
    }
    const Point a = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    const Point b = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    if (a == b) continue;
    const auto ht = hightower_connect(grid, a, b);
    if (!ht.found) continue;  // line search is incomplete; that's expected
    ++found;
    const auto problems = levelb::validate_path(grid, ht.path, a, b);
    ASSERT_TRUE(problems.empty())
        << "trial " << trial << ": " << problems.front();
    const auto lee = lee_connect(grid, a, b);
    ASSERT_TRUE(lee.found);  // anything Hightower finds, Lee must too
    ht_total += ht.path.length();
    lee_total += lee.path.length();
    // Individual probes can meander badly (line search makes no length
    // guarantee), but never absurdly: cap at one grid perimeter extra.
    EXPECT_LE(ht.path.length(), lee.path.length() + 4 * 300)
        << "trial " << trial;
    // Each leg rides free track extents.
    for (std::size_t leg = 0; leg + 1 < ht.path.points.size(); ++leg) {
      const Point& p = ht.path.points[leg];
      const Point& q = ht.path.points[leg + 1];
      const auto& t = ht.path.tracks[leg];
      if (t.orient == geom::Orientation::kHorizontal) {
        ASSERT_TRUE(grid.is_free(
            t, Interval(std::min(p.x, q.x), std::max(p.x, q.x))));
      } else {
        ASSERT_TRUE(grid.is_free(
            t, Interval(std::min(p.y, q.y), std::max(p.y, q.y))));
      }
    }
  }
  EXPECT_GT(found, 20);  // mostly complete on lightly blocked grids
  // In aggregate, the meander overhead stays moderate.
  EXPECT_LE(ht_total, 2 * lee_total);
}

}  // namespace
}  // namespace ocr::maze
