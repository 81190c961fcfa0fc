/// \file track_record_test.cpp
/// \brief The per-track occupancy records of TrackGrid: the gap lists and
/// crossing spans that block/unblock patch eagerly must answer every
/// occupancy query exactly like the reference primitives
/// (IntervalSet::free_gap_containing plus first_at_or_above /
/// last_at_or_below) and a dense per-track reference model, through
/// arbitrary block/unblock/region/rip-up histories and across copies; a
/// mutated grid must serve concurrent readers without data races; and a
/// track family holds no records until its first block.

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "geom/interval_set.hpp"
#include "tig/track_grid.hpp"
#include "util/rng.hpp"

namespace ocr::tig {
namespace {

constexpr geom::Orientation kH = geom::Orientation::kHorizontal;
constexpr geom::Orientation kV = geom::Orientation::kVertical;

using geom::Interval;
using geom::IntervalSet;
using geom::Rect;

TrackGrid make_grid() {
  return TrackGrid::uniform(Rect(0, 0, 100, 100), 10, 10);
}

/// Queries track \p t at \p c through the grid (the record's gap list) and
/// through the reference IntervalSet primitives, and expects identical
/// gap and crossing-index-range answers.
void expect_consistent(const TrackGrid& grid, TrackRef t, geom::Coord c) {
  int al = 0, ah = -1;
  const std::optional<Interval> a = grid.free_segment_span(t, c, &al, &ah);
  const std::optional<Interval> b =
      grid.track(t).blocked().free_gap_containing(grid.span(t.orient), c);
  ASSERT_EQ(a.has_value(), b.has_value()) << t.index << " at " << c;
  if (a.has_value()) {
    const geom::Orientation perp = geom::perpendicular(t.orient);
    EXPECT_EQ(a->lo, b->lo) << t.index << " at " << c;
    EXPECT_EQ(a->hi, b->hi) << t.index << " at " << c;
    EXPECT_EQ(al, grid.first_at_or_above(perp, b->lo))
        << t.index << " at " << c;
    EXPECT_EQ(ah, grid.last_at_or_below(perp, b->hi))
        << t.index << " at " << c;
    EXPECT_EQ(grid.free_segment(t, c), a) << t.index << " at " << c;
  }
}

/// Dense mirror of a grid's occupancy, one IntervalSet per track and
/// family (indexed by geom::axis), updated through the same operation
/// stream as the grid under test.
struct DenseRef {
  std::vector<IntervalSet> blocked[2];

  explicit DenseRef(const TrackGrid& grid) {
    for (const geom::Orientation o : geom::kOrientations) {
      blocked[geom::axis(o)].resize(grid.coords(o).size());
    }
  }

  IntervalSet& at(TrackRef t) {
    return blocked[geom::axis(t.orient)][static_cast<std::size_t>(t.index)];
  }
  const IntervalSet& at(TrackRef t) const {
    return blocked[geom::axis(t.orient)][static_cast<std::size_t>(t.index)];
  }
};

/// Compares every observable of track \p t between grid and reference at
/// probe coordinate \p c.
void expect_equal(const TrackGrid& grid, const DenseRef& ref, TrackRef t,
                  geom::Coord c) {
  const IntervalSet& expect = ref.at(t);
  ASSERT_EQ(grid.track(t).blocked().runs(), expect.runs())
      << "track " << t.index;
  const std::optional<Interval> gap =
      expect.free_gap_containing(grid.span(t.orient), c);
  const std::optional<Interval> got = grid.free_segment(t, c);
  ASSERT_EQ(got.has_value(), gap.has_value()) << t.index << " at " << c;
  if (gap.has_value()) {
    EXPECT_EQ(got->lo, gap->lo);
    EXPECT_EQ(got->hi, gap->hi);
    // The span variant must report exactly the binary-search index range.
    const geom::Orientation perp = geom::perpendicular(t.orient);
    int first = 0, last = -1;
    const std::optional<Interval> span_gap =
        grid.free_segment_span(t, c, &first, &last);
    ASSERT_TRUE(span_gap.has_value());
    EXPECT_EQ(span_gap->lo, gap->lo);
    EXPECT_EQ(span_gap->hi, gap->hi);
    EXPECT_EQ(first, grid.first_at_or_above(perp, gap->lo));
    EXPECT_EQ(last, grid.last_at_or_below(perp, gap->hi));
  }
  EXPECT_EQ(grid.is_free(t, Interval{c, c}), gap.has_value());
}

TEST(GapCache, BlockUnblockSequencesMatchCacheOff) {
  TrackGrid grid = make_grid();
  // A scripted history exercising every patch shape: split a gap in two,
  // trim its ends, erase it, re-open it, and merge across boundaries.
  grid.block({kH, 3}, Interval(20, 40));            // split [0,100]
  grid.block({kH, 3}, Interval(0, 5));              // trim the left gap's lo
  grid.block({kH, 3}, Interval(90, 100));           // trim the right gap's hi
  grid.block({kH, 3}, Interval(41, 60));            // extend a blocked run
  grid.block({kH, 3}, Interval(10, 15));            // split again
  grid.unblock({kH, 3}, Interval(20, 40));          // partial re-open + merge
  grid.block({kH, 3}, Interval(0, 100));            // erase every gap
  grid.unblock({kH, 3}, Interval(30, 30));          // single-point gap
  grid.unblock({kH, 3}, Interval(0, 100));          // full rip-up
  for (geom::Coord x = 0; x <= 100; ++x) expect_consistent(grid, {kH, 3}, x);

  grid.block({kV, 7}, Interval(15, 85));
  grid.unblock({kV, 7}, Interval(40, 60));
  grid.block({kV, 7}, Interval(50, 55));
  for (geom::Coord y = 0; y <= 100; ++y) expect_consistent(grid, {kV, 7}, y);
}

TEST(GapCache, AlreadyBlockedAndAlreadyFreeSpansAreNoOps) {
  TrackGrid grid = make_grid();
  grid.block({kH, 2}, Interval(30, 70));
  grid.block({kH, 2}, Interval(40, 50));    // inside an already-blocked run
  grid.unblock({kH, 2}, Interval(80, 90));  // inside an already-free gap
  for (geom::Coord x = 0; x <= 100; ++x) expect_consistent(grid, {kH, 2}, x);
}

TEST(GapCache, RandomizedHistoryMatchesCacheOff) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    TrackGrid grid = make_grid();
    for (int step = 0; step < 80; ++step) {
      const int i = static_cast<int>(rng.uniform_int(0, grid.num_h() - 1));
      const int j = static_cast<int>(rng.uniform_int(0, grid.num_v() - 1));
      const geom::Coord lo = rng.uniform_int(0, 100);
      const geom::Coord hi =
          std::min<geom::Coord>(100, lo + rng.uniform_int(0, 25));
      const Interval span(lo, hi);
      switch (rng.uniform_int(0, 3)) {
        case 0: grid.block({kH, i}, span); break;
        case 1: grid.unblock({kH, i}, span); break;
        case 2: grid.block({kV, j}, span); break;
        default: grid.unblock({kV, j}, span); break;
      }
      // Probe the mutated tracks at a handful of points each step.
      for (int probe = 0; probe < 6; ++probe) {
        const geom::Coord q = rng.uniform_int(0, 100);
        expect_consistent(grid, {kH, i}, q);
        expect_consistent(grid, {kV, j}, q);
      }
    }
  }
}

TEST(GapCache, ConcurrentReadersNeedNoWarmUp) {
  // Reads never write: right after a history of blocks and unblocks, any
  // number of threads may query the grid through a const reference —
  // the contract a sharded batch's workers rely on, with no warm-up step.
  // Run under TSan (the CI tsan-engine job includes this binary) to prove
  // the absence of races; every answer must also match the reference.
  TrackGrid grid = make_grid();
  grid.block({kH, 4}, Interval(25, 75));
  grid.block({kH, 4}, Interval(90, 95));
  grid.unblock({kH, 4}, Interval(40, 50));
  grid.block({kV, 6}, Interval(10, 50));
  grid.unblock({kV, 6}, Interval(30, 30));
  grid.block({kV, 2}, Interval(0, 100));
  const TrackGrid& shared = grid;

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&shared, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int k = 0; k < 2000; ++k) {
        const int i =
            static_cast<int>(rng.uniform_int(0, shared.num_h() - 1));
        const int j =
            static_cast<int>(rng.uniform_int(0, shared.num_v() - 1));
        const geom::Coord q = rng.uniform_int(0, 100);
        expect_consistent(shared, {kH, i}, q);
        expect_consistent(shared, {kV, j}, q);
      }
    });
  }
  for (std::thread& r : readers) r.join();
}

TEST(GapCache, IncrementalPatchingAtHundredThousandTracks) {
  // The records at production scale: a 1M-dbu die at pitch 10 carries
  // ~100k tracks per orientation. Sparse block/unblock histories must stay
  // consistent with the IntervalSet scan, and the whole exercise must run
  // in test time (i.e. nothing iterates all 100k tracks per update).
  TrackGrid grid =
      TrackGrid::uniform(Rect(0, 0, 1000000, 1000000), 10, 10);
  ASSERT_GE(grid.num_h(), 99999);
  ASSERT_GE(grid.num_v(), 99999);

  util::Rng rng(7);
  std::vector<std::pair<int, Interval>> placed_h, placed_v;
  for (int op = 0; op < 1500; ++op) {
    const int i = static_cast<int>(rng.uniform_int(0, grid.num_h() - 1));
    const int j = static_cast<int>(rng.uniform_int(0, grid.num_v() - 1));
    const geom::Coord x = rng.uniform_int(0, 999000);
    const geom::Coord y = rng.uniform_int(0, 999000);
    const Interval hs{x, x + rng.uniform_int(1, 900)};
    const Interval vs{y, y + rng.uniform_int(1, 900)};
    // Probe before the block too: the track may already carry gaps from
    // an earlier op, and the block then patches them.
    expect_consistent(grid, {kH, i}, hs.lo);
    expect_consistent(grid, {kV, j}, vs.lo);
    grid.block({kH, i}, hs);
    grid.block({kV, j}, vs);
    placed_h.emplace_back(i, hs);
    placed_v.emplace_back(j, vs);
    expect_consistent(grid, {kH, i}, hs.lo > 0 ? hs.lo - 1 : hs.hi + 1);
    expect_consistent(grid, {kV, j}, vs.lo > 0 ? vs.lo - 1 : vs.hi + 1);
  }
  // Rip-up half of what was placed (unblock patching), re-probing around
  // every removal.
  for (std::size_t k = 0; k < placed_h.size(); k += 2) {
    grid.unblock({kH, placed_h[k].first}, placed_h[k].second);
    grid.unblock({kV, placed_v[k].first}, placed_v[k].second);
    expect_consistent(grid, {kH, placed_h[k].first}, placed_h[k].second.lo);
    expect_consistent(grid, {kV, placed_v[k].first}, placed_v[k].second.lo);
  }
  EXPECT_GT(grid.grid_bytes(), 0u);
  // Never-blocked tracks answer through the universe fast path, whose
  // crossing span (computed once per orientation) is every crossing track.
  const int untouched = grid.num_h() / 2 + 1;
  expect_consistent(grid, {kH, untouched}, 500000);
  ASSERT_TRUE(grid.track({kH, untouched}).blocked().empty());
  int first = -7, last = -7;
  ASSERT_EQ(grid.free_segment_span({kH, untouched}, 500000, &first, &last),
            grid.span(kH));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(last, grid.num_v() - 1);
}

TEST(ChunkedFuzz, RandomHistoryMatchesDenseReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    // 1000x1000 die at pitch 10: 100 tracks per orientation.
    TrackGrid grid = TrackGrid::uniform(Rect(0, 0, 1000, 1000), 10, 10);
    DenseRef ref(grid);
    auto span = [&rng](const Interval& universe) {
      const geom::Coord a = rng.uniform_int(universe.lo, universe.hi);
      const geom::Coord b = rng.uniform_int(universe.lo, universe.hi);
      return a <= b ? Interval{a, b} : Interval{b, a};
    };
    auto random_track = [&rng, &grid] {
      const geom::Orientation o = rng.uniform_int(0, 1) == 0 ? kH : kV;
      const int n = static_cast<int>(grid.coords(o).size());
      return TrackRef{o, static_cast<int>(rng.uniform_int(0, n - 1))};
    };
    for (int op = 0; op < 600; ++op) {
      const int kind = static_cast<int>(rng.uniform_int(0, 5));
      if (kind <= 1) {  // block one track
        const TrackRef t = random_track();
        const Interval s = span(grid.span(t.orient));
        grid.block(t, s);
        ref.at(t).add(s);
      } else if (kind == 2) {  // unblock (rip-up), often over nothing
        const TrackRef t = random_track();
        const Interval s = span(grid.span(t.orient));
        grid.unblock(t, s);
        ref.at(t).remove(s);
      } else if (kind == 3) {  // rectangular obstacle
        const Interval xs = span(grid.span(kH));
        const Interval ys = span(grid.span(kV));
        const Rect region(xs.lo, ys.lo, xs.hi, ys.hi);
        if (rng.uniform_int(0, 1) == 0) {
          grid.block_region_h(region);
          for (int i = 0; i < grid.num_h(); ++i) {
            if (grid.h_y(i) >= region.ylo && grid.h_y(i) <= region.yhi) {
              ref.at({kH, i}).add(region.x_span());
            }
          }
        } else {
          grid.block_region_v(region);
          for (int j = 0; j < grid.num_v(); ++j) {
            if (grid.v_x(j) >= region.xlo && grid.v_x(j) <= region.xhi) {
              ref.at({kV, j}).add(region.y_span());
            }
          }
        }
      } else {  // probe a random track (touched or not)
        const int i =
            static_cast<int>(rng.uniform_int(0, grid.num_h() - 1));
        const int j =
            static_cast<int>(rng.uniform_int(0, grid.num_v() - 1));
        expect_equal(grid, ref, {kH, i},
                     rng.uniform_int(grid.span(kH).lo, grid.span(kH).hi));
        expect_equal(grid, ref, {kV, j},
                     rng.uniform_int(grid.span(kV).lo, grid.span(kV).hi));
        EXPECT_EQ(grid.crossing_free(i, j),
                  !ref.at({kH, i}).contains(grid.v_x(j)) &&
                      !ref.at({kV, j}).contains(grid.h_y(i)));
      }
    }
    // Full sweep at the end of the history, including copies: a copied
    // grid (the snapshot publication path) must carry identical state.
    const TrackGrid copy = grid;
    for (const geom::Orientation o : geom::kOrientations) {
      for (int k = 0; k < static_cast<int>(grid.coords(o).size()); ++k) {
        expect_equal(grid, ref, {o, k}, grid.span(o).lo);
        expect_equal(copy, ref, {o, k}, grid.span(o).hi);
      }
    }
  }
}

TEST(ChunkedFuzz, SingleTrackGrid) {
  // One track per orientation: every query path must still work (this is
  // the smallest grid a channel can degenerate to).
  TrackGrid grid({50}, {50}, Rect(0, 0, 100, 100));
  ASSERT_EQ(grid.num_h(), 1);
  ASSERT_EQ(grid.num_v(), 1);
  DenseRef ref(grid);
  EXPECT_TRUE(grid.is_free({kH, 0}, Interval{0, 100}));
  expect_equal(grid, ref, {kH, 0}, 50);
  grid.block({kH, 0}, Interval{20, 40});
  ref.at({kH, 0}).add(Interval{20, 40});
  expect_equal(grid, ref, {kH, 0}, 10);
  expect_equal(grid, ref, {kH, 0}, 30);
  expect_equal(grid, ref, {kH, 0}, 90);
  grid.unblock({kH, 0}, Interval{20, 40});
  ref.at({kH, 0}).remove(Interval{20, 40});
  expect_equal(grid, ref, {kH, 0}, 30);
}

TEST(ChunkedFuzz, UnblockOfUntouchedTrackIsANoOp) {
  TrackGrid grid = TrackGrid::uniform(Rect(0, 0, 1000, 1000), 10, 10);
  // Rip-up over a track that was never blocked must not change any
  // answer.
  grid.unblock({kH, 7}, Interval{100, 200});
  grid.unblock({kV, 9}, Interval{300, 400});
  EXPECT_TRUE(grid.is_free({kH, 7}, Interval{0, 1000}));
  EXPECT_TRUE(grid.is_free({kV, 9}, Interval{0, 1000}));
}

TEST(ChunkedFuzz, SparseBlockingMaterializesFewChunks) {
  // 4000 tracks per orientation; grid_bytes must see the blocks.
  TrackGrid grid = TrackGrid::uniform(Rect(0, 0, 40000, 40000), 10, 10);
  ASSERT_GE(grid.num_h(), 3999);
  const std::size_t before = grid.grid_bytes();
  grid.block({kH, 0}, Interval{0, 100});
  grid.block({kH, 2000}, Interval{0, 100});
  grid.block({kV, 3900}, Interval{0, 100});
  EXPECT_GT(grid.grid_bytes(), before);
}

TEST(TrackRecord, FamilyHoldsNoRecordsUntilItsFirstBlock) {
  // A never-blocked grid (an instance grid kept only to be copied) costs
  // its coordinate arrays alone, and so does its copy; the first block of
  // a family sizes that family's records and leaves the other empty.
  TrackGrid grid = TrackGrid::uniform(Rect(0, 0, 1000, 1000), 10, 10);
  const auto coord_bytes = [](const TrackGrid& g) {
    return (g.coords(kH).capacity() + g.coords(kV).capacity()) *
           sizeof(geom::Coord);
  };
  EXPECT_EQ(grid.grid_bytes(), coord_bytes(grid));
  const TrackGrid copy = grid;
  EXPECT_EQ(copy.grid_bytes(), coord_bytes(copy));

  grid.block({kH, 5}, Interval{100, 200});
  const std::size_t h_only =
      coord_bytes(grid) + grid.coords(kH).size() * sizeof(TrackRecord) +
      grid.track({kH, 5}).heap_bytes();
  EXPECT_EQ(grid.grid_bytes(), h_only);

  // Rip-up on the still-empty vertical family leaves it empty.
  grid.unblock({kV, 3}, Interval{0, 1000});
  EXPECT_EQ(grid.grid_bytes(), h_only);
  EXPECT_TRUE(grid.is_free({kV, 3}, Interval{0, 1000}));
}

}  // namespace
}  // namespace ocr::tig
