/// \file grid_overlay_test.cpp
/// \brief GridOverlay equivalence: a (base grid + overlay) pair, read
/// through a GridView, must answer every occupancy query exactly as a
/// mutated deep copy of the base and as the dense reference model
/// (occupancy_model.hpp) — fuzzed over randomized block/unblock/brace
/// sequences, plus targeted rebase cases mirroring the worker loop.

#include <gtest/gtest.h>

#include <vector>

#include "occupancy_model.hpp"
#include "tig/grid_view.hpp"
#include "tig/overlay.hpp"
#include "util/rng.hpp"

namespace ocr::tig {
namespace {

constexpr geom::Orientation kH = geom::Orientation::kHorizontal;
constexpr geom::Orientation kV = geom::Orientation::kVertical;

using geom::Coord;
using geom::Interval;
using geom::Rect;
using testing::DenseRef;

TrackGrid make_grid(Coord size) {
  return TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
}

Interval random_span(util::Rng& rng, Coord size) {
  const Coord a = rng.uniform_int(0, size - 1);
  const Coord b = rng.uniform_int(0, size - 1);
  return Interval(std::min(a, b), std::max(a, b));
}

/// Ten random blocks on \p base, mirrored into \p model.
void block_randomly(util::Rng& rng, Coord size, TrackGrid& base,
                    DenseRef& model) {
  for (int b = 0; b < 10; ++b) {
    const geom::Orientation o = rng.uniform_int(0, 1) == 0 ? kH : kV;
    const int n = static_cast<int>(base.coords(o).size());
    const TrackRef t{o, static_cast<int>(rng.uniform_int(0, n - 1))};
    const Interval span = random_span(rng, size);
    base.block(t, span);
    model.block(t, span);
  }
}

/// Asserts every query type answers identically on the overlay and the
/// reference grid (the deep copy the overlay replaces), and as the model
/// does.
void expect_equivalent(const GridView& overlay, const TrackGrid& ref,
                       const DenseRef& model, util::Rng& rng, Coord size) {
  for (const geom::Orientation o : geom::kOrientations) {
    for (int k = 0; k < static_cast<int>(ref.coords(o).size()); ++k) {
      const TrackRef t{o, k};
      for (int probe = 0; probe < 4; ++probe) {
        const Coord c = rng.uniform_int(0, size - 1);
        const Interval span = random_span(rng, size);
        EXPECT_EQ(overlay.free_segment(t, c), ref.free_segment(t, c))
            << geom::orientation_tag(o) << " track " << k << " at " << c;
        int of = -7, ol = -7, rf = -7, rl = -7;
        const auto oseg = overlay.free_segment_span(t, c, &of, &ol);
        const auto rseg = ref.free_segment_span(t, c, &rf, &rl);
        EXPECT_EQ(oseg, rseg);
        if (oseg.has_value() && rseg.has_value()) {
          EXPECT_EQ(of, rf);
          EXPECT_EQ(ol, rl);
        }
        EXPECT_EQ(overlay.distance_to_blocked(t, c),
                  ref.distance_to_blocked(t, c));
        EXPECT_EQ(overlay.is_free(t, span), ref.is_free(t, span));
        EXPECT_EQ(overlay.blocked_fraction(t, span),
                  ref.blocked_fraction(t, span));
        testing::expect_matches(overlay, model, t, c, span);
      }
    }
  }
  for (int probe = 0; probe < 32; ++probe) {
    const int i = static_cast<int>(rng.uniform_int(0, ref.num_h() - 1));
    const int j = static_cast<int>(rng.uniform_int(0, ref.num_v() - 1));
    EXPECT_EQ(overlay.crossing_free(i, j), ref.crossing_free(i, j));
    testing::expect_crossing_matches(overlay, model, i, j);
  }
}

TEST(GridOverlay, UntouchedOverlayMatchesBase) {
  util::Rng rng(1);
  const Coord size = 200;
  TrackGrid base = make_grid(size);
  DenseRef model(base);
  block_randomly(rng, size, base, model);
  GridOverlay overlay(&base);
  EXPECT_EQ(overlay.touched_tracks(), 0u);
  expect_equivalent(overlay, base, model, rng, size);
}

TEST(GridOverlay, FuzzMutationSequencesMatchDeepCopy) {
  // The core identity claim: after any interleaving of blocks and
  // unblocks (commit ops and terminal braces alike), every query on
  // (immutable base + overlay) equals the same query on a deep copy that
  // applied the same ops directly.
  const Coord size = 200;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    TrackGrid base = make_grid(size);
    DenseRef model(base);
    block_randomly(rng, size, base, model);

    TrackGrid copy = base;  // the deep copy the overlay stands in for
    GridOverlay overlay(&base);
    for (int step = 0; step < 40; ++step) {
      const geom::Orientation o = rng.uniform_int(0, 1) == 0 ? kH : kV;
      const bool block = rng.uniform_int(0, 2) != 0;  // blocks dominate
      // Degenerate one-coordinate spans mimic terminal braces; wider
      // spans mimic committed extents.
      Interval span = random_span(rng, size);
      if (rng.uniform_int(0, 3) == 0) span = Interval(span.lo, span.lo);
      const int n = static_cast<int>(base.coords(o).size());
      const TrackRef t{o, static_cast<int>(rng.uniform_int(0, n - 1))};
      if (block) {
        overlay.block(t, span);
        copy.block(t, span);
        model.block(t, span);
      } else {
        overlay.unblock(t, span);
        copy.unblock(t, span);
        model.unblock(t, span);
      }
      if (step % 8 == 7) expect_equivalent(overlay, copy, model, rng, size);
    }
    expect_equivalent(overlay, copy, model, rng, size);
    EXPECT_GT(overlay.touched_tracks(), 0u);
  }
}

TEST(GridOverlay, BraceRoundTripLeavesQueriesAtBase) {
  // unblock-then-reblock of a terminal crossing (the worker's per-net
  // brace) must restore exactly the base occupancy — the gap list is
  // canonical (maximal gaps), so the round trip is lossless.
  util::Rng rng(5);
  const Coord size = 200;
  TrackGrid base = make_grid(size);
  DenseRef model(base);
  base.block({kH, 3}, Interval(0, size));
  base.block({kV, 4}, Interval(0, size));
  model.block({kH, 3}, Interval(0, size));
  model.block({kV, 4}, Interval(0, size));
  GridOverlay overlay(&base);

  const Coord x = base.v_x(4);
  const Coord y = base.h_y(3);
  overlay.unblock({kH, 3}, Interval(x, x));
  overlay.unblock({kV, 4}, Interval(y, y));
  EXPECT_TRUE(GridView(overlay).crossing_free(3, 4));
  overlay.block({kH, 3}, Interval(x, x));
  overlay.block({kV, 4}, Interval(y, y));
  expect_equivalent(overlay, base, model, rng, size);
}

TEST(GridOverlay, RebaseDropsDeltasInOTouched) {
  util::Rng rng(3);
  const Coord size = 200;
  TrackGrid base = make_grid(size);
  GridOverlay overlay(&base);
  overlay.block({kH, 2}, Interval(10, 50));
  overlay.block({kV, 5}, Interval(20, 80));
  EXPECT_EQ(overlay.touched_tracks(), 2u);
  EXPECT_FALSE(GridView(overlay).is_free({kH, 2}, Interval(10, 50)));

  overlay.rebase(&base);
  EXPECT_EQ(overlay.touched_tracks(), 0u);
  EXPECT_TRUE(GridView(overlay).is_free({kH, 2}, Interval(10, 50)));
  expect_equivalent(overlay, base, DenseRef(base), rng, size);
}

}  // namespace
}  // namespace ocr::tig
