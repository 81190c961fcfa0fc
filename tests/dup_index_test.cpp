/// \file dup_index_test.cpp
/// \brief The bucket-indexed dup term against a linear scan.
///
/// corner_dup reads the unrouted terminals through UnroutedSuffix's bucket
/// index and must return exactly (bit for bit) what one linear scan over
/// "unrouted suffix, then the net's own terminals" returns. The reference
/// below is that scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "levelb/cost.hpp"
#include "levelb/net_core.hpp"
#include "levelb/router.hpp"
#include "levelb/workspace.hpp"
#include "tig/track_grid.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace ocr::levelb {
namespace {

using geom::Coord;
using geom::Point;

/// The dup term as one linear scan over \p points in order.
double linear_dup(const std::vector<Point>& points, const Point& p,
                  Coord radius) {
  double total = 0.0;
  for (const Point& u : points) {
    const Coord d = geom::manhattan(p, u);
    if (d < radius) {
      total += 1.0 - static_cast<double>(d) / static_cast<double>(radius);
    }
  }
  return std::min(total, 4.0);
}

/// Nets in ordering sequence (order = identity) and their flat array.
struct Fixture {
  std::vector<std::vector<Point>> nets;
  std::vector<std::size_t> order;
  std::vector<Point> flat;
  std::vector<std::size_t> offset;  // offset[k] = first flat index of net k
};

Fixture make_fixture(std::vector<std::vector<Point>> nets) {
  Fixture f;
  f.nets = std::move(nets);
  for (std::size_t k = 0; k < f.nets.size(); ++k) {
    f.order.push_back(k);
    f.offset.push_back(f.flat.size());
    f.flat.insert(f.flat.end(), f.nets[k].begin(), f.nets[k].end());
  }
  f.offset.push_back(f.flat.size());
  return f;
}

/// Checks corner_dup at \p queries for every ordering position (the
/// suffix after it), with and without an own-terminal tail, on an index
/// built with bucket edge \p cell. Returns the number of comparisons.
int expect_matches_linear(const Fixture& f, Coord radius, Coord cell,
                          const std::vector<Point>& queries,
                          const std::vector<Point>& own) {
  const UnroutedSuffix unrouted(f.nets, f.order, cell);
  int checked = 0;
  SearchWorkspace ws;
  for (std::size_t k = 0; k < f.nets.size(); ++k) {
    for (const std::vector<Point>* tail :
         {static_cast<const std::vector<Point>*>(nullptr), &own}) {
      std::vector<Point> scan(
          f.flat.begin() + static_cast<std::ptrdiff_t>(f.offset[k + 1]),
          f.flat.end());
      if (tail != nullptr) scan.insert(scan.end(), tail->begin(), tail->end());
      CostContext ctx;
      ctx.dup_radius = radius;
      ctx.unrouted = unrouted.suffix(k);
      ctx.own_terminals = tail;
      ctx.workspace = (k % 2 == 0) ? &ws : nullptr;  // both scratch paths
      for (const Point& q : queries) {
        const double want = linear_dup(scan, q, radius);
        const double got = corner_dup(ctx, q);
        EXPECT_EQ(got, want) << "position " << k << " query (" << q.x << ","
                             << q.y << ") radius " << radius << " cell "
                             << cell;
        ++checked;
      }
    }
  }
  return checked;
}

/// Points on bucket edges (multiples of \p r and ±1) inside [0, die].
std::vector<Point> edge_points(Coord r, Coord die) {
  std::vector<Coord> coords;
  for (Coord m = 0; m <= die; m += r) {
    for (const Coord c : {m - 1, m, m + 1}) {
      if (c >= 0 && c <= die) coords.push_back(c);
    }
  }
  coords.push_back(die);
  std::vector<Point> pts;
  for (std::size_t i = 0; i < coords.size(); i += 3) {
    for (std::size_t j = 0; j < coords.size(); j += 2) {
      pts.push_back(Point{coords[i], coords[j]});
    }
  }
  return pts;
}

TEST(DupIndex, MatchesLinearScanOnRandomNets) {
  util::Rng rng(11);
  constexpr Coord kDie = 400;
  std::vector<std::vector<Point>> nets;
  for (int n = 0; n < 40; ++n) {
    std::vector<Point> net;
    const int degree = static_cast<int>(rng.uniform_int(1, 5));
    for (int t = 0; t < degree; ++t) {
      net.push_back(
          Point{rng.uniform_int(0, kDie), rng.uniform_int(0, kDie)});
    }
    nets.push_back(std::move(net));
  }
  const Fixture f = make_fixture(std::move(nets));
  std::vector<Point> queries;
  for (int q = 0; q < 60; ++q) {
    queries.push_back(
        Point{rng.uniform_int(0, kDie), rng.uniform_int(0, kDie)});
  }
  const std::vector<Point> own{{100, 100}, {104, 97}, {100, 100}};
  constexpr Coord kRadius = 40;
  // The routers' edge (= radius), plus smaller and larger edges: the
  // query is exact for any bucket size.
  for (const Coord cell : {kRadius, Coord{1}, Coord{7}, Coord{130}}) {
    EXPECT_GT(expect_matches_linear(f, kRadius, cell, queries, own), 0);
  }
}

TEST(DupIndex, MatchesLinearScanOnBucketEdgesAndDieBorders) {
  constexpr Coord kRadius = 16;
  constexpr Coord kDie = 96;
  const std::vector<Point> on_edges = edge_points(kRadius, kDie);
  // Split the edge points into nets of three, in a shuffled-looking but
  // fixed order so flat indices do not follow bucket order.
  std::vector<std::vector<Point>> nets;
  for (std::size_t i = 0; i < on_edges.size(); i += 3) {
    std::vector<Point> net;
    for (std::size_t t = i; t < std::min(i + 3, on_edges.size()); ++t) {
      net.push_back(on_edges[(t * 7) % on_edges.size()]);
    }
    nets.push_back(std::move(net));
  }
  const Fixture f = make_fixture(std::move(nets));
  const std::vector<Point> own{{0, 0}, {kDie, kDie}, {kRadius, kRadius - 1}};
  EXPECT_GT(expect_matches_linear(f, kRadius, kRadius, on_edges, own), 0);
}

TEST(DupIndex, DuplicatePointsAndSaturatedHubs) {
  // Many coincident terminals saturate the 4.0 cap; the cap must apply to
  // the same partial sums as the scan.
  std::vector<std::vector<Point>> nets;
  for (int n = 0; n < 12; ++n) {
    nets.push_back({Point{50, 50}, Point{50, 50}, Point{53, 49}});
  }
  nets.push_back({Point{10, 10}});
  const Fixture f = make_fixture(std::move(nets));
  const std::vector<Point> queries{{50, 50}, {55, 50}, {60, 60}, {10, 10},
                                   {0, 0}};
  const std::vector<Point> own{{50, 50}, {51, 51}};
  EXPECT_GT(expect_matches_linear(f, 8, 8, queries, own), 0);
}

TEST(DupIndex, EmptySuffixIsOwnTerminalsOnly) {
  // Rip-up re-routes carry no unrouted view: only the net's own
  // terminals count.
  const std::vector<Point> own{{20, 20}, {24, 20}, {90, 90}};
  CostContext ctx;
  ctx.dup_radius = 10;
  ctx.own_terminals = &own;
  for (const Point& q : {Point{20, 20}, Point{22, 21}, Point{50, 50}}) {
    EXPECT_EQ(corner_dup(ctx, q), linear_dup(own, q, 10));
  }
  ctx.own_terminals = nullptr;
  EXPECT_EQ(corner_dup(ctx, Point{20, 20}), 0.0);
}

TEST(DupIndex, SuffixAtEndAndSpreadEdge) {
  const Fixture f = make_fixture({{Point{5, 5}, Point{6, 6}}});
  const UnroutedSuffix unrouted(f.nets, f.order, 10);
  CostContext ctx;
  ctx.dup_radius = 10;
  ctx.unrouted = unrouted.suffix(0);  // the last position: nothing after
  EXPECT_EQ(corner_dup(ctx, Point{5, 5}), 0.0);

  const UnroutedSuffix spread(f.nets, f.order);  // edge from the spread
  ctx.unrouted = spread.suffix(0);
  EXPECT_EQ(corner_dup(ctx, Point{5, 5}), 0.0);
}

TEST(DupIndex, CountsOnlyTheNeighbourhood) {
  // Far-away terminals are never tested: the index reads the 3x3 buckets
  // around the corner, and only entries at or past the suffix offset.
  std::vector<std::vector<Point>> nets;
  for (int n = 0; n < 100; ++n) {
    nets.push_back({Point{1000 + 50 * n, 1000}});
  }
  nets.push_back({Point{10, 10}, Point{12, 10}});
  const Fixture f = make_fixture(std::move(nets));
  const UnroutedSuffix unrouted(f.nets, f.order, 20);
  SearchWorkspace ws;
  CostContext ctx;
  ctx.dup_radius = 20;
  ctx.unrouted = unrouted.suffix(0);
  ctx.workspace = &ws;
  const double got = corner_dup(ctx, Point{11, 10});
  std::vector<Point> scan(f.flat.begin() + 1, f.flat.end());
  EXPECT_EQ(got, linear_dup(scan, Point{11, 10}, 20));
  EXPECT_EQ(ws.dup_points_tested, 2);
}

TEST(DupIndex, RouterPublishesWorkCounters) {
  util::MetricsRegistry& reg = util::MetricsRegistry::global();
  const long long crossings0 = reg.counter("levelb.mbfs_crossings").value();
  const long long dup0 = reg.counter("levelb.dup_points_tested").value();
  tig::TrackGrid grid =
      tig::TrackGrid::uniform(geom::Rect(0, 0, 400, 400), 10, 10);
  std::vector<BNet> nets;
  util::Rng rng(3);
  for (int n = 0; n < 20; ++n) {
    BNet net{n, {}, false};
    for (int t = 0; t < 3; ++t) {
      net.terminals.push_back(
          Point{rng.uniform_int(0, 399), rng.uniform_int(0, 399)});
    }
    nets.push_back(std::move(net));
  }
  LevelBRouter router(grid);
  const LevelBResult result = router.route(nets);
  EXPECT_GT(result.routed_nets, 0);
  EXPECT_GT(reg.counter("levelb.mbfs_crossings").value(), crossings0);
  EXPECT_GT(reg.counter("levelb.dup_points_tested").value(), dup0);
}

}  // namespace
}  // namespace ocr::levelb
