/// \file grid_overlay_test.cpp
/// \brief GridOverlay equivalence: a (base grid + overlay) pair, read
/// through a GridView, must answer every occupancy query exactly as a
/// mutated deep copy of the base and as the reference IntervalSet
/// primitives — fuzzed over randomized block/unblock/brace sequences,
/// plus targeted rebase cases mirroring the worker loop.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

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

TrackGrid make_grid(Coord size) {
  return TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
}

Interval random_span(util::Rng& rng, Coord size) {
  const Coord a = rng.uniform_int(0, size - 1);
  const Coord b = rng.uniform_int(0, size - 1);
  return Interval(std::min(a, b), std::max(a, b));
}

/// Asserts the overlay's free-segment answer at \p c on track \p t equals
/// the reference primitives over its effective blocked set:
/// IntervalSet::free_gap_containing and the crossing span binary-searched
/// on \p geometry (the base grid or a copy of it).
void expect_reference(const GridView& overlay, const TrackGrid& geometry,
                      TrackRef t, Coord c) {
  const auto expect = overlay.track(t).blocked().free_gap_containing(
      overlay.span(t.orient), c);
  int first = -7, last = -7;
  ASSERT_EQ(overlay.free_segment_span(t, c, &first, &last), expect)
      << geom::orientation_tag(t.orient) << " track " << t.index << " at "
      << c;
  if (expect.has_value()) {
    const geom::Orientation perp = geom::perpendicular(t.orient);
    EXPECT_EQ(first, geometry.first_at_or_above(perp, expect->lo));
    EXPECT_EQ(last, geometry.last_at_or_below(perp, expect->hi));
  }
}

/// Asserts every query type answers identically on the overlay and the
/// reference grid (the deep copy the overlay replaces), and that the
/// overlay's free segments match the reference primitives.
void expect_equivalent(const GridView& overlay, const TrackGrid& ref,
                       util::Rng& rng, Coord size) {
  for (int i = 0; i < ref.num_h(); ++i) {
    ASSERT_EQ(overlay.track({kH, i}).blocked().runs(),
              ref.track({kH, i}).blocked().runs())
        << "h track " << i;
    for (int probe = 0; probe < 4; ++probe) {
      const Coord x = rng.uniform_int(0, size - 1);
      EXPECT_EQ(overlay.free_segment({kH, i}, x), ref.free_segment({kH, i}, x))
          << "h track " << i << " x=" << x;
      expect_reference(overlay, ref, {kH, i}, x);
      int of = -7, ol = -7, rf = -7, rl = -7;
      const auto oseg = overlay.free_segment_span({kH, i}, x, &of, &ol);
      const auto rseg = ref.free_segment_span({kH, i}, x, &rf, &rl);
      EXPECT_EQ(oseg, rseg);
      if (oseg.has_value() && rseg.has_value()) {
        EXPECT_EQ(of, rf);
        EXPECT_EQ(ol, rl);
      }
      EXPECT_EQ(overlay.distance_to_blocked({kH, i}, x),
                ref.distance_to_blocked({kH, i}, x));
      const Interval span = random_span(rng, size);
      EXPECT_EQ(overlay.is_free({kH, i}, span), ref.is_free({kH, i}, span));
      EXPECT_EQ(overlay.blocked_fraction({kH, i}, span),
                ref.blocked_fraction({kH, i}, span));
    }
  }
  for (int j = 0; j < ref.num_v(); ++j) {
    ASSERT_EQ(overlay.track({kV, j}).blocked().runs(),
              ref.track({kV, j}).blocked().runs())
        << "v track " << j;
    for (int probe = 0; probe < 4; ++probe) {
      const Coord y = rng.uniform_int(0, size - 1);
      EXPECT_EQ(overlay.free_segment({kV, j}, y), ref.free_segment({kV, j}, y))
          << "v track " << j << " y=" << y;
      expect_reference(overlay, ref, {kV, j}, y);
      int of = -7, ol = -7, rf = -7, rl = -7;
      const auto oseg = overlay.free_segment_span({kV, j}, y, &of, &ol);
      const auto rseg = ref.free_segment_span({kV, j}, y, &rf, &rl);
      EXPECT_EQ(oseg, rseg);
      if (oseg.has_value() && rseg.has_value()) {
        EXPECT_EQ(of, rf);
        EXPECT_EQ(ol, rl);
      }
      EXPECT_EQ(overlay.distance_to_blocked({kV, j}, y),
                ref.distance_to_blocked({kV, j}, y));
      const Interval span = random_span(rng, size);
      EXPECT_EQ(overlay.is_free({kV, j}, span), ref.is_free({kV, j}, span));
      EXPECT_EQ(overlay.blocked_fraction({kV, j}, span),
                ref.blocked_fraction({kV, j}, span));
    }
  }
  for (int probe = 0; probe < 32; ++probe) {
    const int i = static_cast<int>(rng.uniform_int(0, ref.num_h() - 1));
    const int j = static_cast<int>(rng.uniform_int(0, ref.num_v() - 1));
    EXPECT_EQ(overlay.crossing_free(i, j), ref.crossing_free(i, j));
  }
}

TEST(GridOverlay, UntouchedOverlayMatchesBase) {
  util::Rng rng(1);
  const Coord size = 200;
  TrackGrid base = make_grid(size);
  for (int b = 0; b < 12; ++b) {
    if (rng.uniform_int(0, 1) == 0) {
      base.block({kH, static_cast<int>(rng.uniform_int(0, base.num_h() - 1))},
                   random_span(rng, size));
    } else {
      base.block({kV, static_cast<int>(rng.uniform_int(0, base.num_v() - 1))},
                   random_span(rng, size));
    }
  }
  GridOverlay overlay(&base);
  EXPECT_EQ(overlay.touched_tracks(), 0u);
  expect_equivalent(overlay, base, rng, size);
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
    for (int b = 0; b < 10; ++b) {
      if (rng.uniform_int(0, 1) == 0) {
        base.block({kH, static_cast<int>(rng.uniform_int(0, base.num_h() - 1))},
                     random_span(rng, size));
      } else {
        base.block({kV, static_cast<int>(rng.uniform_int(0, base.num_v() - 1))},
                     random_span(rng, size));
      }
    }
  
    TrackGrid copy = base;  // the deep copy the overlay stands in for
    GridOverlay overlay(&base);
    for (int step = 0; step < 40; ++step) {
      const bool horizontal = rng.uniform_int(0, 1) == 0;
      const bool block = rng.uniform_int(0, 2) != 0;  // blocks dominate
      // Degenerate one-coordinate spans mimic terminal braces; wider
      // spans mimic committed extents.
      Interval span = random_span(rng, size);
      if (rng.uniform_int(0, 3) == 0) span = Interval(span.lo, span.lo);
      if (horizontal) {
        const int i =
            static_cast<int>(rng.uniform_int(0, base.num_h() - 1));
        if (block) {
          overlay.block({kH, i}, span);
          copy.block({kH, i}, span);
        } else {
          overlay.unblock({kH, i}, span);
          copy.unblock({kH, i}, span);
        }
      } else {
        const int j =
            static_cast<int>(rng.uniform_int(0, base.num_v() - 1));
        if (block) {
          overlay.block({kV, j}, span);
          copy.block({kV, j}, span);
        } else {
          overlay.unblock({kV, j}, span);
          copy.unblock({kV, j}, span);
        }
      }
      if (step % 8 == 7) expect_equivalent(overlay, copy, rng, size);
    }
    expect_equivalent(overlay, copy, rng, size);
    EXPECT_GT(overlay.touched_tracks(), 0u);
  }
}

TEST(GridOverlay, BraceRoundTripLeavesQueriesAtBase) {
  // unblock-then-reblock of a terminal crossing (the worker's per-net
  // brace) must restore exactly the base occupancy — the canonical
  // IntervalSet representation guarantees the round trip is lossless.
  util::Rng rng(5);
  const Coord size = 200;
  TrackGrid base = make_grid(size);
  base.block({kH, 3}, Interval(0, size));
  base.block({kV, 4}, Interval(0, size));
  GridOverlay overlay(&base);

  const Coord x = base.v_x(4);
  const Coord y = base.h_y(3);
  overlay.unblock({kH, 3}, Interval(x, x));
  overlay.unblock({kV, 4}, Interval(y, y));
  EXPECT_TRUE(GridView(overlay).crossing_free(3, 4));
  overlay.block({kH, 3}, Interval(x, x));
  overlay.block({kV, 4}, Interval(y, y));
  expect_equivalent(overlay, base, rng, size);
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
  expect_equivalent(overlay, base, rng, size);
}

}  // namespace
}  // namespace ocr::tig
