/// \file gap_cache_test.cpp
/// \brief Free-gap correctness of the per-track occupancy records: the
/// gap lists and crossing spans that block/unblock patch eagerly must
/// answer every free-segment query exactly like the reference primitives
/// (IntervalSet::free_gap_containing plus first_*_at_or_above /
/// last_*_at_or_below), through arbitrary block/unblock/rip-up histories;
/// and a mutated grid must serve concurrent readers without data races.

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "tig/track_grid.hpp"
#include "util/rng.hpp"

namespace ocr::tig {
namespace {

constexpr geom::Orientation kH = geom::Orientation::kHorizontal;
constexpr geom::Orientation kV = geom::Orientation::kVertical;

using geom::Interval;
using geom::Rect;

TrackGrid make_grid() {
  return TrackGrid::uniform(Rect(0, 0, 100, 100), 10, 10);
}

/// Queries one horizontal track at \p x through the grid (the record's
/// gap list) and through the reference IntervalSet primitives, and expects
/// identical gap and crossing-index-range answers.
void expect_h_consistent(const TrackGrid& grid, int i, geom::Coord x) {
  int al = 0, ah = -1;
  const std::optional<Interval> a =
      grid.free_segment_span({kH, i}, x, &al, &ah);
  const std::optional<Interval> b =
      grid.track({kH, i}).blocked().free_gap_containing(grid.span(kH), x);
  ASSERT_EQ(a.has_value(), b.has_value()) << "i=" << i << " x=" << x;
  if (a.has_value()) {
    EXPECT_EQ(a->lo, b->lo) << "i=" << i << " x=" << x;
    EXPECT_EQ(a->hi, b->hi) << "i=" << i << " x=" << x;
    EXPECT_EQ(al, grid.first_v_at_or_above(b->lo)) << "i=" << i << " x=" << x;
    EXPECT_EQ(ah, grid.last_v_at_or_below(b->hi)) << "i=" << i << " x=" << x;
    EXPECT_EQ(grid.free_segment({kH, i}, x), a) << "i=" << i << " x=" << x;
  }
}

void expect_v_consistent(const TrackGrid& grid, int j, geom::Coord y) {
  int al = 0, ah = -1;
  const std::optional<Interval> a =
      grid.free_segment_span({kV, j}, y, &al, &ah);
  const std::optional<Interval> b =
      grid.track({kV, j}).blocked().free_gap_containing(grid.span(kV), y);
  ASSERT_EQ(a.has_value(), b.has_value()) << "j=" << j << " y=" << y;
  if (a.has_value()) {
    EXPECT_EQ(a->lo, b->lo) << "j=" << j << " y=" << y;
    EXPECT_EQ(a->hi, b->hi) << "j=" << j << " y=" << y;
    EXPECT_EQ(al, grid.first_h_at_or_above(b->lo)) << "j=" << j << " y=" << y;
    EXPECT_EQ(ah, grid.last_h_at_or_below(b->hi)) << "j=" << j << " y=" << y;
    EXPECT_EQ(grid.free_segment({kV, j}, y), a) << "j=" << j << " y=" << y;
  }
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
  for (geom::Coord x = 0; x <= 100; ++x) expect_h_consistent(grid, 3, x);

  grid.block({kV, 7}, Interval(15, 85));
  grid.unblock({kV, 7}, Interval(40, 60));
  grid.block({kV, 7}, Interval(50, 55));
  for (geom::Coord y = 0; y <= 100; ++y) expect_v_consistent(grid, 7, y);
}

TEST(GapCache, AlreadyBlockedAndAlreadyFreeSpansAreNoOps) {
  TrackGrid grid = make_grid();
  grid.block({kH, 2}, Interval(30, 70));
  grid.block({kH, 2}, Interval(40, 50));    // inside an already-blocked run
  grid.unblock({kH, 2}, Interval(80, 90));  // inside an already-free gap
  for (geom::Coord x = 0; x <= 100; ++x) expect_h_consistent(grid, 2, x);
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
        expect_h_consistent(grid, i, q);
        expect_v_consistent(grid, j, q);
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
        expect_h_consistent(shared, i, q);
        expect_v_consistent(shared, j, q);
      }
    });
  }
  for (std::thread& r : readers) r.join();
}

TEST(GapCache, IncrementalPatchingAtHundredThousandTracks) {
  // The chunked records at production scale: a 1M-dbu die at pitch 10
  // carries ~100k tracks per orientation. Sparse block/unblock histories
  // must stay consistent with the IntervalSet scan, records must
  // materialize only where blocking happened, and the whole exercise
  // must run in test time (i.e. nothing iterates all 100k tracks per
  // update).
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
    expect_h_consistent(grid, i, hs.lo);
    expect_v_consistent(grid, j, vs.lo);
    grid.block({kH, i}, hs);
    grid.block({kV, j}, vs);
    placed_h.emplace_back(i, hs);
    placed_v.emplace_back(j, vs);
    expect_h_consistent(grid, i, hs.lo > 0 ? hs.lo - 1 : hs.hi + 1);
    expect_v_consistent(grid, j, vs.lo > 0 ? vs.lo - 1 : vs.hi + 1);
  }
  // Rip-up half of what was placed (unblock patching), re-probing around
  // every removal.
  for (std::size_t k = 0; k < placed_h.size(); k += 2) {
    grid.unblock({kH, placed_h[k].first}, placed_h[k].second);
    grid.unblock({kV, placed_v[k].first}, placed_v[k].second);
    expect_h_consistent(grid, placed_h[k].first, placed_h[k].second.lo);
    expect_v_consistent(grid, placed_v[k].first, placed_v[k].second.lo);
  }
  // Sparsity: 1500 blocks on 200k tracks must leave the vast majority of
  // chunks unmaterialized (64 tracks per chunk, ~3.1k chunk slots).
  EXPECT_LE(grid.blocked_chunks(), 2 * 1500u);
  EXPECT_GT(grid.grid_bytes(), 0u);
  // Never-touched tracks answer through the universe fast path, whose
  // crossing span (computed once per orientation) is every crossing track.
  const int untouched = grid.num_h() / 2 + 1;
  expect_h_consistent(grid, untouched, 500000);
  ASSERT_TRUE(grid.track({kH, untouched}).blocked().empty());
  int first = -7, last = -7;
  ASSERT_EQ(grid.free_segment_span({kH, untouched}, 500000, &first, &last),
            grid.span(kH));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(last, grid.num_v() - 1);
}

}  // namespace
}  // namespace ocr::tig
