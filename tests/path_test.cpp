/// \file path_test.cpp
/// \brief Path::canonicalize against the allocating reference it replaced,
/// the MBFS visited set, and the heap traffic of a steady-state
/// PathFinder::connect.
///
/// The in-place compaction must keep the exact drop-zero-length-leg and
/// merge-collinear rules of the two-buffer form below, including dropping
/// a merged leg that doubles back onto its start and the empty result
/// when fewer than two points survive; its output is a fixed point.
/// Random rectilinear polylines over a small coordinate set make every
/// rule fire often. This binary counts global operator new calls, so a
/// connect whose workspace has warmed up can be shown to allocate only
/// the path it returns, and the visited set's extra-segment vector to
/// keep its storage across passes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "levelb/path.hpp"
#include "levelb/path_finder.hpp"
#include "levelb/workspace.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined, GCC pairs the free() with a `new` expression and
// reports a false -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ocr::levelb {
namespace {

using geom::Orientation;
using geom::Point;
using tig::TrackRef;

/// The allocating canonicalize: builds the kept points and tracks in
/// fresh vectors, then moves them in.
void reference_canonicalize(Path& path) {
  if (path.points.size() < 2) return;
  std::vector<Point> pts{path.points.front()};
  std::vector<TrackRef> trk;
  for (std::size_t i = 1; i < path.points.size(); ++i) {
    if (path.points[i] == pts.back()) continue;  // zero-length leg
    const bool collinear =
        !trk.empty() && trk.back() == path.tracks[i - 1] &&
        ((pts.back().y == path.points[i].y &&
          trk.back().orient == Orientation::kHorizontal) ||
         (pts.back().x == path.points[i].x &&
          trk.back().orient == Orientation::kVertical)) &&
        pts.size() >= 2;
    if (collinear && pts[pts.size() - 2] == path.points[i]) {
      pts.pop_back();  // the merged leg would have zero length
      trk.pop_back();
    } else if (collinear) {
      pts.back() = path.points[i];  // extend the previous leg
    } else {
      pts.push_back(path.points[i]);
      trk.push_back(path.tracks[i - 1]);
    }
  }
  if (pts.size() < 2) {
    path.points.clear();
    path.tracks.clear();
    return;
  }
  path.points = std::move(pts);
  path.tracks = std::move(trk);
}

constexpr int kTracks = 4;  // per orientation; coordinate = 10 * index

/// A random polyline over a kTracks x kTracks grid. Legs are mostly
/// rectilinear moves on the track they ride, mixed with zero-length legs,
/// runs of moves along one track, legs re-labelled with another track at
/// the same coordinate, and fully degenerate inputs.
Path random_polyline(util::Rng& rng) {
  const auto coord = [&rng] { return 10 * rng.uniform_int(0, kTracks - 1); };
  const auto track = [&rng](Orientation o) {
    return TrackRef{o, static_cast<int>(rng.uniform_int(0, kTracks - 1))};
  };
  Path path;
  Point cur{coord(), coord()};
  path.points.push_back(cur);
  const int legs = static_cast<int>(rng.uniform_int(0, 8));
  const bool degenerate = rng.uniform_int(0, 9) == 0;
  for (int i = 0; i < legs; ++i) {
    TrackRef t;
    const std::int64_t kind = degenerate ? 0 : rng.uniform_int(0, 9);
    if (kind == 0) {  // zero-length leg on either track through cur
      t = rng.uniform_int(0, 1) == 0
              ? TrackRef{Orientation::kHorizontal, static_cast<int>(cur.y / 10)}
              : TrackRef{Orientation::kVertical, static_cast<int>(cur.x / 10)};
    } else if (kind <= 4) {  // horizontal move (possibly of length zero)
      cur.x = coord();
      t = TrackRef{Orientation::kHorizontal, static_cast<int>(cur.y / 10)};
    } else if (kind <= 8) {  // vertical move
      cur.y = coord();
      t = TrackRef{Orientation::kVertical, static_cast<int>(cur.x / 10)};
    } else {  // same-coordinate move labelled with an arbitrary track
      if (rng.uniform_int(0, 1) == 0) {
        cur.x = coord();
      } else {
        cur.y = coord();
      }
      t = track(rng.uniform_int(0, 1) == 0 ? Orientation::kHorizontal
                                            : Orientation::kVertical);
    }
    path.points.push_back(cur);
    path.tracks.push_back(t);
  }
  return path;
}

TEST(PathCanonicalize, MatchesAllocatingReference) {
  util::Rng rng(20261018);
  int emptied = 0;
  int merged = 0;
  int kept_whole = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const Path input = random_polyline(rng);
    Path expected = input;
    reference_canonicalize(expected);
    Path actual = input;
    const Point* storage = actual.points.data();
    actual.canonicalize();
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + input.to_string());
    ASSERT_EQ(actual.points, expected.points);
    ASSERT_EQ(actual.tracks, expected.tracks);
    if (!actual.points.empty()) {
      EXPECT_EQ(actual.points.data(), storage) << "points were reallocated";
      ASSERT_EQ(actual.tracks.size() + 1, actual.points.size());
    }
    for (std::size_t i = 0; i + 1 < actual.points.size(); ++i) {
      ASSERT_NE(actual.points[i], actual.points[i + 1]) << "zero-length leg";
    }
    Path again = actual;
    again.canonicalize();
    ASSERT_EQ(again.points, actual.points) << "not a fixed point";
    ASSERT_EQ(again.tracks, actual.tracks) << "not a fixed point";
    if (input.points.size() < 2) continue;
    if (actual.points.empty()) {
      ++emptied;
    } else if (actual.points.size() < input.points.size()) {
      ++merged;
    } else {
      ++kept_whole;
    }
  }
  // Every rule fired many times.
  EXPECT_GT(emptied, 1000);
  EXPECT_GT(merged, 5000);
  EXPECT_GT(kept_whole, 1000);
}

TEST(PathCanonicalize, MergesARunOnOneTrack) {
  const TrackRef h{Orientation::kHorizontal, 0};
  Path path;
  path.points = {{0, 0}, {10, 0}, {10, 0}, {20, 0}, {30, 0}};
  path.tracks = {h, h, h, h};
  path.canonicalize();
  EXPECT_EQ(path.points, (std::vector<Point>{{0, 0}, {30, 0}}));
  EXPECT_EQ(path.tracks, (std::vector<TrackRef>{h}));
}

TEST(PathCanonicalize, KeepsCollinearLegsOnDifferentTracks) {
  const TrackRef h0{Orientation::kHorizontal, 0};
  const TrackRef h1{Orientation::kHorizontal, 1};
  Path path;
  path.points = {{0, 0}, {10, 0}, {20, 0}};
  path.tracks = {h0, h1};
  path.canonicalize();
  EXPECT_EQ(path.points.size(), 3u);
  EXPECT_EQ(path.tracks, (std::vector<TrackRef>{h0, h1}));
}

TEST(PathCanonicalize, AllZeroLengthLegsComeOutEmpty) {
  const TrackRef v{Orientation::kVertical, 2};
  Path path;
  path.points = {{20, 10}, {20, 10}, {20, 10}};
  path.tracks = {v, v};
  path.canonicalize();
  EXPECT_TRUE(path.points.empty());
  EXPECT_TRUE(path.tracks.empty());
}

TEST(CollectDistinct, MatchesPairwiseScanWithDuplicates) {
  // Candidates drawn from a small pool (some canonicalize to empty), so
  // most are duplicates; counts vary so the table shrinks and grows
  // within one workspace.
  util::Rng rng(99);
  SearchWorkspace ws;
  long long duplicates = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<Path> pool(static_cast<std::size_t>(rng.uniform_int(1, 8)));
    for (Path& p : pool) {
      p = random_polyline(rng);
      p.canonicalize();
    }
    const auto count = static_cast<std::size_t>(rng.uniform_int(0, 40));
    if (ws.candidates.size() < count) ws.candidates.resize(count);
    for (std::size_t k = 0; k < count; ++k) {
      ws.candidates[k] = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    }
    ws.collect_distinct(count);

    std::vector<int> expected;
    std::vector<int> expected_corners;
    for (std::size_t k = 0; k < count; ++k) {
      const Path& c = ws.candidates[k];
      if (c.empty()) continue;
      bool seen = false;
      for (const int u : expected) {
        seen = seen || ws.candidates[static_cast<std::size_t>(u)] == c;
      }
      if (seen) {
        ++duplicates;
        continue;
      }
      expected.push_back(static_cast<int>(k));
      expected_corners.push_back(c.corners());
    }
    ASSERT_EQ(ws.unique, expected) << "trial " << trial;
    ASSERT_EQ(ws.unique_corners, expected_corners) << "trial " << trial;
  }
  EXPECT_GT(duplicates, 10000);
}

TEST(PathFinderAllocations, SteadyStateConnectAllocatesOnlyItsResult) {
  // Obstacles make multi-corner connections with many candidates. The
  // first round warms the workspace; the identical second round may then
  // allocate nothing but each found path's two vectors.
  util::Rng rng(7);
  auto grid = tig::TrackGrid::uniform(geom::Rect(0, 0, 400, 400), 10, 10);
  for (int k = 0; k < 25; ++k) {
    const geom::Coord x = rng.uniform_int(0, 360);
    const geom::Coord y = rng.uniform_int(0, 360);
    const geom::Rect r(x, y, x + rng.uniform_int(5, 40),
                       y + rng.uniform_int(5, 40));
    grid.block_region_h(r);
    grid.block_region_v(r);
  }
  std::vector<std::pair<Point, Point>> pairs;
  for (int k = 0; k < 200; ++k) {
    const auto crossing = [&] {
      return grid.crossing(
          static_cast<int>(rng.uniform_int(0, grid.num_h() - 1)),
          static_cast<int>(rng.uniform_int(0, grid.num_v() - 1)));
    };
    pairs.emplace_back(crossing(), crossing());
  }
  const PathFinder finder(grid);
  SearchWorkspace ws;
  CostContext ctx = make_cost_context(grid, nullptr);
  ctx.workspace = &ws;
  const auto round = [&](int& paths, int& candidates) {
    paths = 0;
    candidates = 0;
    for (const auto& [a, b] : pairs) {
      const PathFinder::Result r = finder.connect(a, b, ctx, ws);
      if (!r.path.empty()) ++paths;
      candidates += r.stats.candidates;
    }
  };
  int paths = 0;
  int candidates = 0;
  round(paths, candidates);
  const long long before = g_allocations.load();
  round(paths, candidates);
  const long long allocations = g_allocations.load() - before;
  EXPECT_GT(paths, 100);
  EXPECT_GT(candidates, 2 * paths);
  EXPECT_EQ(allocations, 2LL * paths);
}


/// Runs one pass over \p ws that visits \p extra + 1 disjoint segments
/// of track 0: [0,5], [10,15], [20,25], ...
void visit_run(SearchWorkspace& ws, int extra) {
  ws.begin_pass();
  for (int k = 0; k <= extra; ++k) {
    visit(ws, ws.visited[0][0], geom::Interval(10 * k, 10 * k + 5));
  }
}

/// A workspace with \p tracks horizontal visit slots and no grid.
SearchWorkspace slots_workspace(int tracks = 1) {
  SearchWorkspace ws;
  ws.visited[0].resize(static_cast<std::size_t>(tracks));
  return ws;
}

TEST(VisitedSet, RecordsDistinctSegmentsOfOneTrack) {
  SearchWorkspace ws = slots_workspace();
  visit_run(ws, 2);
  const SearchWorkspace::VisitSlot& slot = ws.visited[0][0];
  for (const geom::Coord v : {0, 5, 10, 15, 20, 25}) {
    EXPECT_TRUE(visited_holds(ws, slot, v)) << v;
  }
  for (const geom::Coord v : {-1, 6, 9, 16, 19, 26}) {
    EXPECT_FALSE(visited_holds(ws, slot, v)) << v;
  }
  EXPECT_EQ(ws.visited_more.size(), 2u);
}

TEST(VisitedSet, GrowingKeepsEarlierSegments) {
  SearchWorkspace ws = slots_workspace();
  visit_run(ws, 200);  // visited_more reallocates several times
  for (int k = 0; k <= 200; ++k) {
    EXPECT_TRUE(visited_holds(ws, ws.visited[0][0], 10 * k + 3)) << k;
  }
}

TEST(VisitedSet, NewPassForgetsEveryMark) {
  SearchWorkspace ws = slots_workspace();
  visit_run(ws, 3);
  const std::uint64_t generation = ws.generation;
  ws.begin_pass();
  EXPECT_GT(ws.generation, generation);
  EXPECT_TRUE(ws.visited_more.empty());
  for (int k = 0; k <= 3; ++k) {
    EXPECT_FALSE(visited_holds(ws, ws.visited[0][0], 10 * k));
  }
  // The stale slot is overwritten whole: no segment of the old pass
  // survives behind the new first one.
  visit(ws, ws.visited[0][0], geom::Interval(10, 15));
  EXPECT_EQ(ws.visited[0][0].more, -1);
  EXPECT_TRUE(visited_holds(ws, ws.visited[0][0], 12));
  EXPECT_FALSE(visited_holds(ws, ws.visited[0][0], 2));
}

TEST(VisitedSet, CapacityIsKeptAcrossPasses) {
  SearchWorkspace ws = slots_workspace();
  visit_run(ws, 64);
  const std::size_t capacity = ws.visited_more.capacity();
  const long long before = g_allocations.load();
  for (int pass = 0; pass < 10; ++pass) visit_run(ws, 64);
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_EQ(ws.visited_more.capacity(), capacity);
}

TEST(VisitedSet, HighWaterTracksLargestPass) {
  SearchWorkspace ws = slots_workspace();
  visit_run(ws, 1);
  visit_run(ws, 5);
  visit_run(ws, 2);
  EXPECT_EQ(ws.visited_more_high_water, 5u);  // finished passes only
  visit_run(ws, 7);  // still open: counted when published
  util::MetricsRegistry& reg = util::MetricsRegistry::global();
  reg.reset();
  ws.publish_arena_metrics();
  constexpr long long kEntry = sizeof(SearchWorkspace::VisitMore);
  EXPECT_EQ(reg.gauge("levelb.visited_more_high_water_bytes").value(),
            7 * kEntry);
  EXPECT_EQ(reg.gauge("levelb.visited_more_reserved_bytes").value(),
            static_cast<long long>(ws.visited_more.capacity()) * kEntry);
}

TEST(VisitedSet, InterleavedTracksKeepTheirOwnSegments) {
  constexpr int kSlots = 50;
  SearchWorkspace ws = slots_workspace(kSlots);
  ws.begin_pass();
  // Track t gets the points 100k + t for k = 0..3, interleaved across
  // tracks, so each track's chain skips the other tracks' entries.
  for (int k = 0; k < 4; ++k) {
    for (int t = 0; t < kSlots; ++t) {
      const geom::Coord c = 100 * k + t;
      visit(ws, ws.visited[0][static_cast<std::size_t>(t)],
            geom::Interval(c, c));
    }
  }
  for (int t = 0; t < kSlots; ++t) {
    const auto& slot = ws.visited[0][static_cast<std::size_t>(t)];
    for (int k = 0; k < 4; ++k) {
      EXPECT_TRUE(visited_holds(ws, slot, 100 * k + t));
      EXPECT_FALSE(visited_holds(ws, slot, 100 * k + (t + 1) % kSlots));
    }
  }
}

}  // namespace
}  // namespace ocr::levelb
