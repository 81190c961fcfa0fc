/// \file track_record_test.cpp
/// \brief The per-track occupancy records of TrackGrid: the gap lists and
/// crossing spans that block/unblock patch eagerly must answer every
/// occupancy query exactly like a dense per-track reference model
/// (occupancy_model.hpp), through arbitrary block/unblock/region/rip-up
/// histories — blocks past the universe included — and across copies; a
/// mutated grid must serve concurrent readers without data races; and a
/// track family holds no records until its first block.

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "occupancy_model.hpp"
#include "tig/track_grid.hpp"
#include "util/rng.hpp"

namespace ocr::tig {
namespace {

constexpr geom::Orientation kH = geom::Orientation::kHorizontal;
constexpr geom::Orientation kV = geom::Orientation::kVertical;

using geom::Interval;
using geom::Rect;
using testing::DenseRef;

TrackGrid make_grid() {
  return TrackGrid::uniform(Rect(0, 0, 100, 100), 10, 10);
}

/// A grid and its reference model, given the same operations.
struct Mirrored {
  TrackGrid grid;
  DenseRef ref;

  explicit Mirrored(TrackGrid g) : grid(std::move(g)), ref(grid) {}

  void block(TrackRef t, const Interval& span) {
    grid.block(t, span);
    ref.block(t, span);
  }
  void unblock(TrackRef t, const Interval& span) {
    grid.unblock(t, span);
    ref.unblock(t, span);
  }
  /// Checks track \p t's queries at \p c, and over a span around \p c
  /// that may reach past the universe, against the model.
  void expect(TrackRef t, geom::Coord c) const {
    testing::expect_matches(grid, ref, t, c, Interval(c - 13, c + 21));
  }
};

TEST(GapCache, BlockUnblockSequencesMatchCacheOff) {
  Mirrored m(make_grid());
  // A scripted history exercising every patch shape: split a gap in two,
  // trim its ends, erase it, re-open it, and merge across boundaries.
  m.block({kH, 3}, Interval(20, 40));            // split [0,100]
  m.block({kH, 3}, Interval(0, 5));              // trim the left gap's lo
  m.block({kH, 3}, Interval(90, 100));           // trim the right gap's hi
  m.block({kH, 3}, Interval(41, 60));            // extend a blocked run
  m.block({kH, 3}, Interval(10, 15));            // split again
  m.unblock({kH, 3}, Interval(20, 40));          // partial re-open + merge
  m.block({kH, 3}, Interval(0, 100));            // erase every gap
  m.unblock({kH, 3}, Interval(30, 30));          // single-point gap
  m.unblock({kH, 3}, Interval(0, 100));          // full rip-up
  for (geom::Coord x = 0; x <= 100; ++x) m.expect({kH, 3}, x);

  m.block({kV, 7}, Interval(15, 85));
  m.unblock({kV, 7}, Interval(40, 60));
  m.block({kV, 7}, Interval(50, 55));
  for (geom::Coord y = 0; y <= 100; ++y) m.expect({kV, 7}, y);
}

TEST(GapCache, AlreadyBlockedAndAlreadyFreeSpansAreNoOps) {
  Mirrored m(make_grid());
  m.block({kH, 2}, Interval(30, 70));
  m.block({kH, 2}, Interval(40, 50));    // inside an already-blocked run
  m.unblock({kH, 2}, Interval(80, 90));  // inside an already-free gap
  for (geom::Coord x = 0; x <= 100; ++x) m.expect({kH, 2}, x);
}

TEST(GapCache, RandomizedHistoryMatchesCacheOff) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    Mirrored m(make_grid());
    for (int step = 0; step < 80; ++step) {
      const int i = static_cast<int>(rng.uniform_int(0, m.grid.num_h() - 1));
      const int j = static_cast<int>(rng.uniform_int(0, m.grid.num_v() - 1));
      const geom::Coord lo = rng.uniform_int(0, 100);
      const geom::Coord hi =
          std::min<geom::Coord>(100, lo + rng.uniform_int(0, 25));
      const Interval span(lo, hi);
      switch (rng.uniform_int(0, 3)) {
        case 0: m.block({kH, i}, span); break;
        case 1: m.unblock({kH, i}, span); break;
        case 2: m.block({kV, j}, span); break;
        default: m.unblock({kV, j}, span); break;
      }
      // Probe the mutated tracks at a handful of points each step.
      for (int probe = 0; probe < 6; ++probe) {
        const geom::Coord q = rng.uniform_int(0, 100);
        m.expect({kH, i}, q);
        m.expect({kV, j}, q);
      }
      testing::expect_crossing_matches(m.grid, m.ref, i, j);
    }
  }
}

TEST(GapCache, ConcurrentReadersNeedNoWarmUp) {
  // Reads never write: right after a history of blocks and unblocks, any
  // number of threads may query the grid through a const reference —
  // the contract a sharded batch's workers rely on, with no warm-up step.
  // Run under TSan (the CI tsan-engine job includes this binary) to prove
  // the absence of races; every answer must also match the reference.
  Mirrored m(make_grid());
  m.block({kH, 4}, Interval(25, 75));
  m.block({kH, 4}, Interval(90, 95));
  m.unblock({kH, 4}, Interval(40, 50));
  m.block({kV, 6}, Interval(10, 50));
  m.unblock({kV, 6}, Interval(30, 30));
  m.block({kV, 2}, Interval(0, 100));
  const Mirrored& shared = m;

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&shared, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int k = 0; k < 2000; ++k) {
        const int i =
            static_cast<int>(rng.uniform_int(0, shared.grid.num_h() - 1));
        const int j =
            static_cast<int>(rng.uniform_int(0, shared.grid.num_v() - 1));
        const geom::Coord q = rng.uniform_int(0, 100);
        shared.expect({kH, i}, q);
        shared.expect({kV, j}, q);
      }
    });
  }
  for (std::thread& r : readers) r.join();
}

TEST(GapCache, IncrementalPatchingAtHundredThousandTracks) {
  // The records at production scale: a 1M-dbu die at pitch 10 carries
  // ~100k tracks per orientation. Sparse block/unblock histories must stay
  // consistent with the model, and the whole exercise must run in test
  // time (i.e. nothing iterates all 100k tracks per update).
  Mirrored m(TrackGrid::uniform(Rect(0, 0, 1000000, 1000000), 10, 10));
  const TrackGrid& grid = m.grid;
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
    m.expect({kH, i}, hs.lo);
    m.expect({kV, j}, vs.lo);
    m.block({kH, i}, hs);
    m.block({kV, j}, vs);
    placed_h.emplace_back(i, hs);
    placed_v.emplace_back(j, vs);
    m.expect({kH, i}, hs.lo > 0 ? hs.lo - 1 : hs.hi + 1);
    m.expect({kV, j}, vs.lo > 0 ? vs.lo - 1 : vs.hi + 1);
  }
  // Rip-up half of what was placed (unblock patching), re-probing around
  // every removal.
  for (std::size_t k = 0; k < placed_h.size(); k += 2) {
    m.unblock({kH, placed_h[k].first}, placed_h[k].second);
    m.unblock({kV, placed_v[k].first}, placed_v[k].second);
    m.expect({kH, placed_h[k].first}, placed_h[k].second.lo);
    m.expect({kV, placed_v[k].first}, placed_v[k].second.lo);
  }
  EXPECT_GT(grid.grid_bytes(), 0u);
  // Never-blocked tracks answer through the universe fast path, whose
  // crossing span (computed once per orientation) is every crossing track.
  const int untouched = grid.num_h() / 2 + 1;
  m.expect({kH, untouched}, 500000);
  ASSERT_FALSE(grid.distance_to_blocked({kH, untouched}, 0).has_value());
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
    Mirrored m(TrackGrid::uniform(Rect(0, 0, 1000, 1000), 10, 10));
    const TrackGrid& grid = m.grid;
    // Spans reach up to 60 dbu past either end of the universe, so blocks
    // past the die edge are clipped (in the model as in the records).
    auto span = [&rng](const Interval& universe) {
      const geom::Coord a = rng.uniform_int(universe.lo - 60, universe.hi + 60);
      const geom::Coord b = rng.uniform_int(universe.lo - 60, universe.hi + 60);
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
        m.block(t, span(grid.span(t.orient)));
      } else if (kind == 2) {  // unblock (rip-up), often over nothing
        const TrackRef t = random_track();
        m.unblock(t, span(grid.span(t.orient)));
      } else if (kind == 3) {  // rectangular obstacle
        const Interval xs = span(grid.span(kH));
        const Interval ys = span(grid.span(kV));
        const Rect region(xs.lo, ys.lo, xs.hi, ys.hi);
        if (rng.uniform_int(0, 1) == 0) {
          m.grid.block_region_h(region);
          for (int i = 0; i < grid.num_h(); ++i) {
            if (grid.h_y(i) >= region.ylo && grid.h_y(i) <= region.yhi) {
              m.ref.block({kH, i}, region.x_span());
            }
          }
        } else {
          m.grid.block_region_v(region);
          for (int j = 0; j < grid.num_v(); ++j) {
            if (grid.v_x(j) >= region.xlo && grid.v_x(j) <= region.xhi) {
              m.ref.block({kV, j}, region.y_span());
            }
          }
        }
      } else {  // probe a random track (touched or not)
        const int i =
            static_cast<int>(rng.uniform_int(0, grid.num_h() - 1));
        const int j =
            static_cast<int>(rng.uniform_int(0, grid.num_v() - 1));
        testing::expect_matches(grid, m.ref, {kH, i},
                                rng.uniform_int(-60, 1060),
                                span(grid.span(kH)));
        testing::expect_matches(grid, m.ref, {kV, j},
                                rng.uniform_int(-60, 1060),
                                span(grid.span(kV)));
        testing::expect_crossing_matches(grid, m.ref, i, j);
      }
    }
    // Full sweep at the end of the history, including copies: a copied
    // grid (the snapshot publication path) must carry identical state.
    const TrackGrid copy = grid;
    for (const geom::Orientation o : geom::kOrientations) {
      for (int k = 0; k < static_cast<int>(grid.coords(o).size()); ++k) {
        testing::expect_matches(grid, m.ref, {o, k}, grid.span(o).lo,
                                grid.span(o));
        testing::expect_matches(copy, m.ref, {o, k}, grid.span(o).hi,
                                span(grid.span(o)));
      }
    }
  }
}

TEST(ChunkedFuzz, SingleTrackGrid) {
  // One track per orientation: every query path must still work (this is
  // the smallest grid a channel can degenerate to).
  Mirrored m(TrackGrid({50}, {50}, Rect(0, 0, 100, 100)));
  ASSERT_EQ(m.grid.num_h(), 1);
  ASSERT_EQ(m.grid.num_v(), 1);
  EXPECT_TRUE(m.grid.is_free({kH, 0}, Interval{0, 100}));
  m.expect({kH, 0}, 50);
  m.block({kH, 0}, Interval{20, 40});
  m.expect({kH, 0}, 10);
  m.expect({kH, 0}, 30);
  m.expect({kH, 0}, 90);
  m.unblock({kH, 0}, Interval{20, 40});
  m.expect({kH, 0}, 30);
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
