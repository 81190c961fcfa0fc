#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "levelb/figure1.hpp"
#include "levelb/path_finder.hpp"
#include "levelb/workspace.hpp"
#include "util/rng.hpp"

namespace ocr::levelb {
namespace {

constexpr geom::Orientation kH = geom::Orientation::kHorizontal;
constexpr geom::Orientation kV = geom::Orientation::kVertical;

using geom::Interval;
using geom::Point;
using geom::Rect;

tig::TrackGrid open_grid() {
  // 8x8 uniform grid, tracks at 5, 15, ..., 75.
  return tig::TrackGrid::uniform(Rect(0, 0, 80, 80), 10, 10);
}

CostContext plain_ctx(const tig::TrackGrid& grid) {
  return make_cost_context(grid, nullptr);
}

TEST(PathFinder, StraightHorizontal) {
  const auto grid = open_grid();
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 25}, Point{75, 25},
                                plain_ctx(grid));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.corners, 0);
  EXPECT_EQ(r.path.length(), 70);
  EXPECT_EQ(r.path.points.size(), 2u);
}

TEST(PathFinder, StraightVertical) {
  const auto grid = open_grid();
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{35, 5}, Point{35, 75},
                                plain_ctx(grid));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.corners, 0);
  EXPECT_EQ(r.path.length(), 70);
}

TEST(PathFinder, LShapeOneCorner) {
  const auto grid = open_grid();
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 5}, Point{75, 75},
                                plain_ctx(grid));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.corners, 1);
  EXPECT_EQ(r.path.length(), 140);  // Manhattan-optimal
  EXPECT_TRUE(validate_path(grid, r.path, Point{5, 5}, Point{75, 75})
                  .empty());
}

TEST(PathFinder, IdenticalEndpoints) {
  const auto grid = open_grid();
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 5}, Point{5, 5}, plain_ctx(grid));
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.path.empty());
}

TEST(PathFinder, DetoursAroundBlockedStraight) {
  auto grid = open_grid();
  // Block the direct horizontal track between the terminals.
  grid.block({kH, 2}, Interval(30, 50));  // y=25
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 25}, Point{75, 25},
                                plain_ctx(grid));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.corners, 2);  // up/down and back
  EXPECT_GT(r.path.length(), 70);
  EXPECT_TRUE(validate_path(grid, r.path, Point{5, 25}, Point{75, 25})
                  .empty());
}

TEST(PathFinder, PathAvoidsObstacleRegion) {
  auto grid = open_grid();
  // A solid block in the middle of the die on both layers.
  const Rect obstacle(25, 25, 55, 55);
  grid.block_region_h(obstacle);
  grid.block_region_v(obstacle);
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 45}, Point{75, 45},
                                plain_ctx(grid));
  ASSERT_TRUE(r.found);
  // No leg may cross the obstacle interior.
  for (std::size_t leg = 0; leg + 1 < r.path.points.size(); ++leg) {
    const Point& p = r.path.points[leg];
    const Point& q = r.path.points[leg + 1];
    const Rect leg_box = Rect::from_corners(p, q);
    EXPECT_FALSE(leg_box.interior_overlaps(obstacle))
        << "leg " << leg << " crosses the obstacle";
    // Also endpoints: crossings inside the obstacle would be blocked.
    EXPECT_FALSE(obstacle.contains(p) && obstacle.contains(q) &&
                 p != q);
  }
}

TEST(PathFinder, ReportsUnreachable) {
  auto grid = open_grid();
  // Wall off the right half on both layers.
  const Rect wall(38, 0, 42, 80);
  grid.block_region_h(wall);
  for (int j = 0; j < grid.num_v(); ++j) {
    if (grid.v_x(j) >= 38 && grid.v_x(j) <= 42) {
      grid.block({kV, j}, Interval(0, 80));
    }
  }
  // The wall blocks every horizontal track on x in [38,42]; no vertical
  // track can bypass x=38..42 because wires must ride tracks.
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 25}, Point{75, 25},
                                plain_ctx(grid));
  EXPECT_FALSE(r.found);
}

TEST(PathFinder, WindowGrowsWhenNeeded) {
  auto grid = open_grid();
  // Terminals on the same row; block a tall region forcing a detour far
  // outside the initial window.
  for (int i = 0; i < grid.num_h(); ++i) {
    if (grid.h_y(i) <= 55) grid.block({kH, i}, Interval(30, 50));
  }
  for (int j = 0; j < grid.num_v(); ++j) {
    if (grid.v_x(j) >= 30 && grid.v_x(j) <= 50) {
      grid.block({kV, j}, Interval(0, 55));
    }
  }
  PathFinder::Options opts;
  opts.window_margin = 1;
  const PathFinder finder(grid, opts);
  const auto r = finder.connect(Point{5, 5}, Point{75, 5}, plain_ctx(grid));
  ASSERT_TRUE(r.found);
  EXPECT_GT(r.stats.window_growths, 0);
  EXPECT_TRUE(validate_path(grid, r.path, Point{5, 5}, Point{75, 5})
                  .empty());
}

TEST(PathFinder, MinimumCornersPreferredOverLength) {
  auto grid = open_grid();
  // Make the 1-corner L paths impossible; a 2-corner detour remains. The
  // finder must never return a 3+-corner path even if shorter in length.
  grid.block({kH, 0}, Interval(70, 80));   // corner at (75, 5)
  grid.block({kV, 0}, Interval(70, 80));   // corner at (5, 75)
  const PathFinder finder(grid);
  const auto r = finder.connect(Point{5, 5}, Point{75, 75},
                                plain_ctx(grid));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.corners, 2);
  EXPECT_EQ(r.path.length(), 140);  // still Manhattan-optimal via Z-shape
}

// ---- Figure 1 / Figure 2 reproduction --------------------------------

TEST(Figure1, ReproducesPaperOutcome) {
  const Figure1Instance fig = make_figure1_instance();
  PathFinder::Options opts;
  opts.keep_trees = true;
  const PathFinder finder(fig.grid, opts);
  const auto ctx = make_cost_context(fig.grid, nullptr);
  const auto r = finder.connect(fig.b1, fig.b2, ctx);
  ASSERT_TRUE(r.found);
  // The paper: the (v2, h4, v6) path with a single corner wins.
  EXPECT_EQ(r.corners, 1);
  ASSERT_EQ(r.path.points.size(), 3u);
  EXPECT_EQ(r.path.points[0], fig.b1);
  EXPECT_EQ(r.path.points[1], (Point{20, 40}));  // corner on (v2, h4)
  EXPECT_EQ(r.path.points[2], fig.b2);
}

TEST(Figure1, FindsAllThreeCandidatePaths) {
  // Paper: "three possible paths can be identified — one path (v2,h4,v6)
  // from the MBFS that started from vertex v2, and two paths
  // (h2,v3,h4,v6) and (h2,v5,h4,v6) from the MBFS that started from h2."
  const Figure1Instance fig = make_figure1_instance();
  const PathFinder finder(fig.grid);
  const auto ctx = make_cost_context(fig.grid, nullptr);
  const auto r = finder.connect(fig.b1, fig.b2, ctx);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.stats.candidates, 3);
}

TEST(Figure1, TreeFromV2FindsOnePath) {
  const Figure1Instance fig = make_figure1_instance();
  PathFinder::Options opts;
  opts.keep_trees = true;
  const PathFinder finder(fig.grid, opts);
  const auto ctx = make_cost_context(fig.grid, nullptr);
  const auto r = finder.connect(fig.b1, fig.b2, ctx);
  ASSERT_TRUE(r.found);
  // Tree rooted at v2 (vertical pass): root is v2.
  ASSERT_FALSE(r.tree_v.nodes.empty());
  EXPECT_EQ(r.tree_v.nodes[0].track.orient, geom::Orientation::kVertical);
  EXPECT_EQ(r.tree_v.nodes[0].track.index, 1);  // v2 is index 1
}

TEST(Figure1, DirectH2V6CompletionIsBlocked) {
  // Net C's wire on v6 must prevent the (h2, v6) one-corner path.
  const Figure1Instance fig = make_figure1_instance();
  EXPECT_FALSE(fig.grid.is_free({kV, 5}, Interval(20, 40)));
  // And h4 is blocked between v1 and v2 (net A).
  EXPECT_FALSE(fig.grid.is_free({kH, 3}, Interval(10, 20)));
  // Obstacle O1 blocks v4 at h2's y.
  EXPECT_FALSE(fig.grid.is_free({kV, 3}, Interval(20, 20)));
}

TEST(Figure1, TreePrintingMentionsTracks) {
  const Figure1Instance fig = make_figure1_instance();
  PathFinder::Options opts;
  opts.keep_trees = true;
  const PathFinder finder(fig.grid, opts);
  const auto ctx = make_cost_context(fig.grid, nullptr);
  const auto r = finder.connect(fig.b1, fig.b2, ctx);
  const std::string tree = r.tree_h.to_string();
  EXPECT_NE(tree.find("h2"), std::string::npos);
  EXPECT_NE(tree.find("v3"), std::string::npos);
  EXPECT_NE(tree.find("v5"), std::string::npos);
}

// ---- property tests ----------------------------------------------------

TEST(PathFinderProperty, RandomObstaclesValidPaths) {
  util::Rng rng(2025);
  for (int trial = 0; trial < 40; ++trial) {
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, 200, 200), 10, 10);
    // Scatter obstacles.
    const int blocks = static_cast<int>(rng.uniform_int(0, 15));
    for (int k = 0; k < blocks; ++k) {
      const geom::Coord x = rng.uniform_int(0, 180);
      const geom::Coord y = rng.uniform_int(0, 180);
      const Rect r(x, y, x + rng.uniform_int(5, 40),
                   y + rng.uniform_int(5, 40));
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
    const PathFinder finder(grid);
    const auto ctx = make_cost_context(grid, nullptr);
    const auto r = finder.connect(a, b, ctx);
    if (!r.found) continue;  // walled off is legitimate
    const auto problems = validate_path(grid, r.path, a, b);
    ASSERT_TRUE(problems.empty())
        << "trial " << trial << ": " << problems.front();
    // Every leg must be free in the grid.
    for (std::size_t leg = 0; leg + 1 < r.path.points.size(); ++leg) {
      const Point& p = r.path.points[leg];
      const Point& q = r.path.points[leg + 1];
      const auto& t = r.path.tracks[leg];
      if (t.orient == geom::Orientation::kHorizontal) {
        ASSERT_TRUE(grid.is_free(
            t, Interval(std::min(p.x, q.x), std::max(p.x, q.x))))
            << "trial " << trial;
      } else {
        ASSERT_TRUE(grid.is_free(
            t, Interval(std::min(p.y, q.y), std::max(p.y, q.y))))
            << "trial " << trial;
      }
    }
  }
}

TEST(PathFinderProperty, TransposeGivesSameSearchCounts) {
  // Transposing a grid (the track families swap, and so do their blocks
  // and every point's coordinates) maps each MBFS pass onto the other, so
  // the search counts must match — in both axes of the one expansion
  // body. Paths are not compared: cost ties pick by candidate order, and
  // the vertical-rooted pass's arrivals come first.
  util::Rng rng(41);
  const auto transpose = [](const Point& p) { return Point{p.y, p.x}; };
  const auto track_coords = [&rng](geom::Coord size) {
    std::vector<geom::Coord> coords;
    for (geom::Coord v = rng.uniform_int(0, 6); v <= size;
         v += rng.uniform_int(4, 16)) {
      coords.push_back(v);
    }
    return coords;
  };
  const geom::Coord width = 200;
  const geom::Coord height = 160;
  int found = 0;
  for (int g = 0; g < 60; ++g) {
    const std::vector<geom::Coord> ys = track_coords(height);
    const std::vector<geom::Coord> xs = track_coords(width);
    tig::TrackGrid grid(ys, xs, Rect(0, 0, width, height));
    tig::TrackGrid grid_t(xs, ys, Rect(0, 0, height, width));
    for (int b = 0; b < 60; ++b) {
      const geom::Orientation o = rng.uniform_int(0, 1) == 0 ? kH : kV;
      const int k = static_cast<int>(rng.uniform_int(
          0, static_cast<std::int64_t>(grid.coords(o).size()) - 1));
      const geom::Coord len = o == kH ? width : height;
      const geom::Coord lo = rng.uniform_int(0, len);
      const Interval span(lo, std::min(len, lo + rng.uniform_int(0, len / 2)));
      grid.block({o, k}, span);
      grid_t.block({geom::perpendicular(o), k}, span);
    }
    const auto random_crossing = [&rng, &grid] {
      return grid.crossing(
          static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
          static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    };
    const PathFinder finder(grid);
    const PathFinder finder_t(grid_t);
    SearchWorkspace ws;
    SearchWorkspace ws_t;
    for (int c = 0; c < 20; ++c) {
      const Point a = random_crossing();
      const Point b = random_crossing();
      const std::vector<Point> own{random_crossing(), random_crossing()};
      const std::vector<Point> own_t{transpose(own[0]), transpose(own[1])};
      const auto r = finder.connect(a, b, make_cost_context(grid, &own), ws);
      const auto r_t = finder_t.connect(transpose(a), transpose(b),
                                        make_cost_context(grid_t, &own_t),
                                        ws_t);
      ASSERT_EQ(r.found, r_t.found) << "grid " << g << " connect " << c;
      EXPECT_EQ(r.corners, r_t.corners) << "grid " << g << " connect " << c;
      EXPECT_EQ(r.stats.vertices_examined, r_t.stats.vertices_examined)
          << "grid " << g << " connect " << c;
      EXPECT_EQ(r.stats.candidates, r_t.stats.candidates)
          << "grid " << g << " connect " << c;
      EXPECT_EQ(r.stats.window_growths, r_t.stats.window_growths)
          << "grid " << g << " connect " << c;
      ASSERT_EQ(ws.mbfs_crossings, ws_t.mbfs_crossings)
          << "grid " << g << " connect " << c;
      if (r.found) ++found;
    }
  }
  // Most connects succeed; the rest cover the unreachable outcome.
  EXPECT_GT(found, 800);
  EXPECT_LT(found, 1100);
}

TEST(PathFinderProperty, ProvenSecondPassMatchesRunningBoth) {
  // After a failing v-rooted pass that reached the h-root segment,
  // connect credits the h-rooted pass instead of running it (DESIGN.md
  // §8). keep_trees forces both passes, so it is the reference: on
  // congested grids, where many connects fail, results, counters,
  // footprints and cancel heartbeats must all match it, and a vertex
  // budget at (or one past) the skipping run's final count must stop
  // both runs alike.
  util::Rng rng(1807);
  util::CancelSource source;  // never fires; only its heartbeat is read
  util::CancelSource ref_source;
  PathFinderOptions options;
  options.cancel = source.token();
  PathFinderOptions ref_options;
  ref_options.cancel = ref_source.token();
  ref_options.keep_trees = true;
  SearchWorkspace ws;
  SearchWorkspace ws_ref;
  SearchWorkspace ws_budget;
  SearchWorkspace ws_budget_ref;
  long long failing_steps = 0;
  for (int g = 0; g < 40; ++g) {
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, 300, 300), 10, 10);
    for (int k = 0; k < 70; ++k) {
      const geom::Coord x = rng.uniform_int(0, 290);
      const geom::Coord y = rng.uniform_int(0, 290);
      const Rect r(x, y, x + rng.uniform_int(2, 40),
                   y + rng.uniform_int(2, 40));
      // Some blocks cover one layer only, as committed wiring does.
      const auto layers = rng.uniform_int(0, 2);
      if (layers != 1) grid.block_region_h(r);
      if (layers != 2) grid.block_region_v(r);
    }
    const auto random_crossing = [&rng, &grid] {
      return grid.crossing(
          static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
          static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    };
    const PathFinder finder(grid, options);
    const PathFinder reference(grid, ref_options);
    for (int c = 0; c < 30; ++c) {
      const Point a = random_crossing();
      const Point b = random_crossing();
      if (a == b) continue;
      SCOPED_TRACE(testing::Message() << "grid " << g << " connect " << c);
      SearchFootprint footprint;
      SearchFootprint ref_footprint;
      CostContext ctx = make_cost_context(grid, nullptr);
      CostContext ref_ctx = ctx;
      ctx.footprint = &footprint;
      ref_ctx.footprint = &ref_footprint;
      const long long proven0 = ws.mbfs_passes_proven;
      const auto r = finder.connect(a, b, ctx, ws);
      const auto r_ref = reference.connect(a, b, ref_ctx, ws_ref);
      ASSERT_EQ(r.found, r_ref.found);
      EXPECT_EQ(r.path, r_ref.path);
      EXPECT_EQ(r.corners, r_ref.corners);
      ASSERT_EQ(r.stats.vertices_examined, r_ref.stats.vertices_examined);
      EXPECT_EQ(r.stats.candidates, r_ref.stats.candidates);
      EXPECT_EQ(r.stats.window_growths, r_ref.stats.window_growths);
      ASSERT_EQ(ws.mbfs_crossings, ws_ref.mbfs_crossings);
      EXPECT_TRUE(footprint == ref_footprint);
      ASSERT_EQ(source.progress(), ref_source.progress());
      failing_steps += r_ref.stats.window_growths + (r_ref.found ? 0 : 1);
      if (ws.mbfs_passes_proven == proven0) continue;

      // Budget stops land where running both passes puts them.
      const long long spent = r.stats.vertices_examined;
      for (const long long budget : {spent, spent + 1}) {
        SCOPED_TRACE(testing::Message() << "budget " << budget);
        const auto rb = finder.connect(a, b, ctx, ws_budget, budget);
        const auto rb_ref =
            reference.connect(a, b, ref_ctx, ws_budget_ref, budget);
        EXPECT_EQ(rb.budget_exhausted, rb_ref.budget_exhausted);
        EXPECT_EQ(rb.budget_exhausted, budget == spent);
        EXPECT_EQ(rb.found, rb_ref.found);
        EXPECT_EQ(rb.stats.vertices_examined, rb_ref.stats.vertices_examined);
        EXPECT_EQ(ws_budget.mbfs_crossings, ws_budget_ref.mbfs_crossings);
      }
      ASSERT_EQ(source.progress(), ref_source.progress());
    }
  }
  // Non-vacuous: the reference never skips, and the skip fires on at
  // least a quarter of the failing window steps (386 of 976 here).
  EXPECT_EQ(ws_ref.mbfs_passes_proven, 0);
  EXPECT_GT(ws.mbfs_passes_proven, 0);
  EXPECT_GE(ws.mbfs_passes_proven * 4, failing_steps)
      << ws.mbfs_passes_proven << " proven of " << failing_steps
      << " failing steps";
}

TEST(PathFinderProperty, PublishMetricsFoldsEveryWorkCounter) {
  // Connects on congested grids, with the dup term counting into the
  // workspace, until every listed counter has moved; publish_metrics()
  // must then add each to `levelb.<name>` and zero the workspace.
  util::Rng rng(2404);
  SearchWorkspace ws;
  const auto all_moved = [&ws] {
    for (const WorkCounter& c : kWorkCounters) {
      if (ws.*c.member == 0) return false;
    }
    return true;
  };
  const PathFinderOptions options;
  for (int g = 0; g < 40 && !all_moved(); ++g) {
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, 300, 300), 10, 10);
    for (int k = 0; k < 70; ++k) {
      const geom::Coord x = rng.uniform_int(0, 290);
      const geom::Coord y = rng.uniform_int(0, 290);
      const Rect r(x, y, x + rng.uniform_int(2, 40),
                   y + rng.uniform_int(2, 40));
      grid.block_region_h(r);
      grid.block_region_v(r);
    }
    const auto random_crossing = [&rng, &grid] {
      return grid.crossing(
          static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
          static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    };
    const std::vector<Point> own = {random_crossing(), random_crossing()};
    CostContext ctx = make_cost_context(grid, &own);
    ctx.workspace = &ws;
    const PathFinder finder(grid, options);
    for (int c = 0; c < 30; ++c) {
      const Point a = random_crossing();
      const Point b = random_crossing();
      if (a != b) finder.connect(a, b, ctx, ws);
    }
  }
  ASSERT_TRUE(all_moved());

  util::MetricsRegistry& reg = util::MetricsRegistry::global();
  std::vector<long long> expected;
  std::vector<long long> before;
  for (const WorkCounter& c : kWorkCounters) {
    EXPECT_EQ(std::string(c.name).rfind("levelb.", 0), 0u) << c.name;
    expected.push_back(ws.*c.member);
    before.push_back(reg.counter(c.name).value());
  }
  ws.publish_metrics();
  for (std::size_t i = 0; i < std::size(kWorkCounters); ++i) {
    const WorkCounter& c = kWorkCounters[i];
    EXPECT_EQ(reg.counter(c.name).value() - before[i], expected[i]) << c.name;
    EXPECT_EQ(ws.*c.member, 0) << c.name;
  }
}

TEST(PathFinderProperty, SelectionPicksTheFirstCheapestMinimumCornerPath) {
  // connect() stops costing a candidate once its partial cost reaches the
  // best so far, which is exact only while every term is non-negative.
  // Oracle: the full cost of every minimum-corner distinct candidate the
  // final window step left in the workspace, summed in connect()'s order
  // (w1 length, then the w24 leg terms, then each corner); the pick must
  // be its argmin, first index on ties. Weights are non-negative; the
  // oracle's context has no workspace, so its dup scratch and counters
  // leave `ws` alone.
  util::Rng rng(3107);
  SearchWorkspace ws;
  int checked = 0;
  int later_winners = 0;  // argmin is not the first minimum-corner path
  for (int g = 0; g < 40; ++g) {
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, 300, 300), 10, 10);
    for (int k = 0; k < 50; ++k) {
      const geom::Coord x = rng.uniform_int(0, 290);
      const geom::Coord y = rng.uniform_int(0, 290);
      const Rect r(x, y, x + rng.uniform_int(2, 40),
                   y + rng.uniform_int(2, 40));
      grid.block_region_h(r);
      grid.block_region_v(r);
    }
    const auto random_crossing = [&rng, &grid] {
      return grid.crossing(
          static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
          static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    };
    SensitiveRuns sensitive;
    for (int k = 0; k < 12; ++k) {
      const tig::TrackRef t =
          rng.chance(0.5)
              ? tig::TrackRef{kH, static_cast<int>(rng.uniform_int(
                                      0, grid.num_h() - 1))}
              : tig::TrackRef{kV, static_cast<int>(rng.uniform_int(
                                      0, grid.num_v() - 1))};
      const geom::Coord lo = rng.uniform_int(0, 250);
      sensitive.add(t, Interval(lo, lo + rng.uniform_int(10, 50)));
    }
    // Every fourth grid prices wire length alone, so equal-length
    // candidates tie exactly.
    const bool length_only = g % 4 == 0;
    const auto weight = [&rng, length_only](double hi) {
      return length_only || rng.chance(0.25) ? 0.0
                                             : rng.uniform_real(0.0, hi);
    };
    PathFinderOptions options;
    options.weights.w1 = length_only ? 1.0 : weight(2.0);
    options.weights.w21 = weight(3.0);
    options.weights.w22 = weight(3.0);
    options.weights.w23 = weight(3.0);
    options.weights.w24 = weight(3.0);
    const std::vector<Point> own = {random_crossing(), random_crossing(),
                                    random_crossing()};
    CostContext ctx = make_cost_context(grid, &own);
    ctx.sensitive = &sensitive;
    ctx.workspace = &ws;
    CostContext oracle_ctx = ctx;
    oracle_ctx.workspace = nullptr;
    const PathFinder finder(grid, options);
    for (int c = 0; c < 30; ++c) {
      const Point a = random_crossing();
      const Point b = random_crossing();
      if (a == b) continue;
      const long long evaluated0 = ws.candidates_evaluated;
      const auto r = finder.connect(a, b, ctx, ws);
      // Failures and straight connects run no selection.
      if (!r.found || ws.candidates_evaluated == evaluated0) continue;
      SCOPED_TRACE(testing::Message() << "grid " << g << " connect " << c);
      const int min_corners = *std::min_element(ws.unique_corners.begin(),
                                                ws.unique_corners.end());
      int first = -1;
      int best = -1;
      double best_cost = 0.0;
      for (std::size_t i = 0; i < ws.unique.size(); ++i) {
        if (ws.unique_corners[i] != min_corners) continue;
        const int u = ws.unique[i];
        const Path& p = ws.candidates[static_cast<std::size_t>(u)];
        double cost = options.weights.w1 * static_cast<double>(p.length()) /
                      static_cast<double>(ctx.pitch);
        for (std::size_t leg = 0; leg + 1 < p.points.size(); ++leg) {
          cost += leg_parallel_cost(
              grid, options.weights, oracle_ctx, p.tracks[leg],
              geom::leg_extent(p.points[leg], p.points[leg + 1],
                               p.tracks[leg].orient));
        }
        for (std::size_t leg = 1; leg + 1 < p.points.size(); ++leg) {
          const tig::TrackRef& t_in = p.tracks[leg - 1];
          const tig::TrackRef& t_out = p.tracks[leg];
          const int h = t_in.orient == kH ? t_in.index : t_out.index;
          const int v = t_in.orient == kV ? t_in.index : t_out.index;
          cost += corner_cost(grid, options.weights, oracle_ctx,
                              p.points[leg], h, v);
        }
        if (first < 0) first = u;
        if (best < 0 || cost < best_cost) {
          best = u;
          best_cost = cost;
        }
      }
      ASSERT_GE(best, 0);
      EXPECT_EQ(r.corners, min_corners);
      EXPECT_EQ(r.path, ws.candidates[static_cast<std::size_t>(best)]);
      ++checked;
      if (best != first) ++later_winners;
    }
  }
  EXPECT_GT(checked, 100);
  EXPECT_GT(later_winners, 0) << checked << " selections checked";
}

TEST(PathFinderProperty, LengthAtLeastManhattan) {
  util::Rng rng(303);
  const auto grid = tig::TrackGrid::uniform(Rect(0, 0, 300, 300), 10, 10);
  const PathFinder finder(grid);
  const auto ctx = make_cost_context(grid, nullptr);
  for (int trial = 0; trial < 50; ++trial) {
    const Point a = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    const Point b = grid.crossing(
        static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
        static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    if (a == b) continue;
    const auto r = finder.connect(a, b, ctx);
    ASSERT_TRUE(r.found);
    // On an empty grid the minimum-corner path is Manhattan-optimal.
    EXPECT_EQ(r.path.length(), geom::manhattan(a, b)) << "trial " << trial;
    EXPECT_LE(r.corners, 1);
  }
}

}  // namespace
}  // namespace ocr::levelb
