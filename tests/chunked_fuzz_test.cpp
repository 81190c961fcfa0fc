/// \file chunked_fuzz_test.cpp
/// \brief Chunked-vs-dense equivalence for the TrackGrid occupancy
/// storage: randomized block/unblock/region/query histories must answer
/// bit-identically to a dense per-track reference model
/// (std::vector<IntervalSet> + the IntervalSet free-gap primitives),
/// which is exactly the storage the grid used before chunking. Also
/// covers the degenerate shapes chunking introduces: a 1-track grid
/// (one partial chunk) and queries over never-touched chunks.

#include <gtest/gtest.h>

#include <optional>
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

/// Dense mirror of one grid orientation: the pre-chunking representation,
/// updated through the same operation stream as the grid under test.
struct DenseRef {
  std::vector<IntervalSet> blocked;

  explicit DenseRef(int tracks) : blocked(static_cast<std::size_t>(tracks)) {}

  void block(int i, const Interval& span) {
    blocked[static_cast<std::size_t>(i)].add(span);
  }
  void unblock(int i, const Interval& span) {
    blocked[static_cast<std::size_t>(i)].remove(span);
  }
};

/// Compares every observable of horizontal track \p i between grid and
/// reference at probe coordinate \p x.
void expect_h_equal(const TrackGrid& grid, const DenseRef& ref, int i,
                    geom::Coord x) {
  const IntervalSet& expect = ref.blocked[static_cast<std::size_t>(i)];
  ASSERT_EQ(grid.track({kH, i}).blocked().runs(), expect.runs())
      << "track " << i;
  const std::optional<Interval> gap =
      expect.free_gap_containing(grid.span(kH), x);
  const std::optional<Interval> got = grid.free_segment({kH, i}, x);
  ASSERT_EQ(got.has_value(), gap.has_value()) << "i=" << i << " x=" << x;
  if (gap.has_value()) {
    EXPECT_EQ(got->lo, gap->lo);
    EXPECT_EQ(got->hi, gap->hi);
    // The span variant must report exactly the binary-search index range.
    int j_first = 0, j_last = -1;
    const std::optional<Interval> span_gap =
        grid.free_segment_span({kH, i}, x, &j_first, &j_last);
    ASSERT_TRUE(span_gap.has_value());
    EXPECT_EQ(span_gap->lo, gap->lo);
    EXPECT_EQ(span_gap->hi, gap->hi);
    EXPECT_EQ(j_first, grid.first_v_at_or_above(gap->lo));
    EXPECT_EQ(j_last, grid.last_v_at_or_below(gap->hi));
  }
  EXPECT_EQ(grid.is_free({kH, i}, Interval{x, x}), gap.has_value());
}

void expect_v_equal(const TrackGrid& grid, const DenseRef& ref, int j,
                    geom::Coord y) {
  const IntervalSet& expect = ref.blocked[static_cast<std::size_t>(j)];
  ASSERT_EQ(grid.track({kV, j}).blocked().runs(), expect.runs())
      << "track " << j;
  const std::optional<Interval> gap =
      expect.free_gap_containing(grid.span(kV), y);
  const std::optional<Interval> got = grid.free_segment({kV, j}, y);
  ASSERT_EQ(got.has_value(), gap.has_value()) << "j=" << j << " y=" << y;
  if (gap.has_value()) {
    EXPECT_EQ(got->lo, gap->lo);
    EXPECT_EQ(got->hi, gap->hi);
  }
}

TEST(ChunkedFuzz, RandomHistoryMatchesDenseReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    // 1000x1000 die at pitch 10: 100 tracks per orientation, spanning
    // both full and partial chunks.
    TrackGrid grid = TrackGrid::uniform(Rect(0, 0, 1000, 1000), 10, 10);
    DenseRef ref_h(grid.num_h());
    DenseRef ref_v(grid.num_v());
    auto span = [&rng](const Interval& universe) {
      const geom::Coord a = rng.uniform_int(universe.lo, universe.hi);
      const geom::Coord b = rng.uniform_int(universe.lo, universe.hi);
      return a <= b ? Interval{a, b} : Interval{b, a};
    };
    for (int op = 0; op < 600; ++op) {
      const int kind = static_cast<int>(rng.uniform_int(0, 5));
      if (kind <= 1) {  // block one track
        if (rng.uniform_int(0, 1) == 0) {
          const int i = static_cast<int>(
              rng.uniform_int(0, grid.num_h() - 1));
          const Interval s = span(grid.span(kH));
          grid.block({kH, i}, s);
          ref_h.block(i, s);
        } else {
          const int j = static_cast<int>(
              rng.uniform_int(0, grid.num_v() - 1));
          const Interval s = span(grid.span(kV));
          grid.block({kV, j}, s);
          ref_v.block(j, s);
        }
      } else if (kind == 2) {  // unblock (rip-up), often over nothing
        if (rng.uniform_int(0, 1) == 0) {
          const int i = static_cast<int>(
              rng.uniform_int(0, grid.num_h() - 1));
          const Interval s = span(grid.span(kH));
          grid.unblock({kH, i}, s);
          ref_h.unblock(i, s);
        } else {
          const int j = static_cast<int>(
              rng.uniform_int(0, grid.num_v() - 1));
          const Interval s = span(grid.span(kV));
          grid.unblock({kV, j}, s);
          ref_v.unblock(j, s);
        }
      } else if (kind == 3) {  // rectangular obstacle
        const Interval xs = span(grid.span(kH));
        const Interval ys = span(grid.span(kV));
        const Rect region(xs.lo, ys.lo, xs.hi, ys.hi);
        if (rng.uniform_int(0, 1) == 0) {
          grid.block_region_h(region);
          for (int i = 0; i < grid.num_h(); ++i) {
            if (grid.h_y(i) >= region.ylo && grid.h_y(i) <= region.yhi) {
              ref_h.block(i, region.x_span());
            }
          }
        } else {
          grid.block_region_v(region);
          for (int j = 0; j < grid.num_v(); ++j) {
            if (grid.v_x(j) >= region.xlo && grid.v_x(j) <= region.xhi) {
              ref_v.block(j, region.y_span());
            }
          }
        }
      } else {  // probe a random track (touched or not)
        const int i =
            static_cast<int>(rng.uniform_int(0, grid.num_h() - 1));
        const int j =
            static_cast<int>(rng.uniform_int(0, grid.num_v() - 1));
        expect_h_equal(grid, ref_h, i,
                       rng.uniform_int(grid.span(kH).lo, grid.span(kH).hi));
        expect_v_equal(grid, ref_v, j,
                       rng.uniform_int(grid.span(kV).lo, grid.span(kV).hi));
        EXPECT_EQ(grid.crossing_free(i, j),
                  !ref_h.blocked[static_cast<std::size_t>(i)].contains(
                      grid.v_x(j)) &&
                      !ref_v.blocked[static_cast<std::size_t>(j)].contains(
                          grid.h_y(i)));
      }
    }
    // Full sweep at the end of the history, including copies: a copied
    // grid (the snapshot publication path) must carry identical state.
    const TrackGrid copy = grid;
    for (int i = 0; i < grid.num_h(); ++i) {
      expect_h_equal(grid, ref_h, i, grid.span(kH).lo);
      expect_h_equal(copy, ref_h, i, grid.span(kH).hi);
    }
    for (int j = 0; j < grid.num_v(); ++j) {
      expect_v_equal(grid, ref_v, j, grid.span(kV).lo);
      expect_v_equal(copy, ref_v, j, grid.span(kV).hi);
    }
  }
}

TEST(ChunkedFuzz, SingleTrackGrid) {
  // One track per orientation: one partial chunk each, every query path
  // must still work (this is the smallest grid a channel can degenerate
  // to).
  TrackGrid grid({50}, {50}, Rect(0, 0, 100, 100));
  ASSERT_EQ(grid.num_h(), 1);
  ASSERT_EQ(grid.num_v(), 1);
  DenseRef ref_h(1);
  EXPECT_TRUE(grid.is_free({kH, 0}, Interval{0, 100}));
  expect_h_equal(grid, ref_h, 0, 50);
  grid.block({kH, 0}, Interval{20, 40});
  ref_h.block(0, Interval{20, 40});
  expect_h_equal(grid, ref_h, 0, 10);
  expect_h_equal(grid, ref_h, 0, 30);
  expect_h_equal(grid, ref_h, 0, 90);
  grid.unblock({kH, 0}, Interval{20, 40});
  ref_h.unblock(0, Interval{20, 40});
  expect_h_equal(grid, ref_h, 0, 30);
  EXPECT_EQ(grid.blocked_chunks(), 1u);  // the block materialized it
}

TEST(ChunkedFuzz, UnblockOfUntouchedTrackIsANoOp) {
  TrackGrid grid = TrackGrid::uniform(Rect(0, 0, 1000, 1000), 10, 10);
  // Rip-up over a track that was never blocked: must not materialize
  // anything or change any answer.
  grid.unblock({kH, 7}, Interval{100, 200});
  grid.unblock({kV, 9}, Interval{300, 400});
  EXPECT_EQ(grid.blocked_chunks(), 0u);
  EXPECT_TRUE(grid.is_free({kH, 7}, Interval{0, 1000}));
  EXPECT_TRUE(grid.is_free({kV, 9}, Interval{0, 1000}));
}

TEST(ChunkedFuzz, SparseBlockingMaterializesFewChunks) {
  // 4000 tracks per orientation; blocking 3 tracks must materialize at
  // most 3 chunks per orientation — the memory claim of the chunked
  // design, and grid_bytes must see through to the truth.
  TrackGrid grid = TrackGrid::uniform(Rect(0, 0, 40000, 40000), 10, 10);
  ASSERT_GE(grid.num_h(), 3999);
  const std::size_t before = grid.grid_bytes();
  grid.block({kH, 0}, Interval{0, 100});
  grid.block({kH, 2000}, Interval{0, 100});
  grid.block({kV, 3900}, Interval{0, 100});
  EXPECT_LE(grid.blocked_chunks(), 3u);
  EXPECT_GT(grid.grid_bytes(), before);
}

}  // namespace
}  // namespace ocr::tig
