#pragma once
/// Shared helpers for the track-record tests: a dense reference model of a
/// grid's occupancy — one geom::IntervalSet of blocked runs per track,
/// with blocks clipped to the track's universe as TrackRecord::block clips
/// them — and the checks that every occupancy query of a grid or overlay
/// answers exactly as the model does.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "geom/interval_set.hpp"
#include "tig/grid_view.hpp"

namespace ocr::tig::testing {

/// Dense mirror of a grid's occupancy, one IntervalSet per track and
/// family (indexed by geom::axis), updated through the same operation
/// stream as the grid under test.
struct DenseRef {
  std::vector<geom::IntervalSet> blocked[2];
  geom::Interval universe[2];

  explicit DenseRef(const TrackGrid& grid) {
    for (const geom::Orientation o : geom::kOrientations) {
      blocked[geom::axis(o)].resize(grid.coords(o).size());
      universe[geom::axis(o)] = grid.span(o);
    }
  }

  const geom::IntervalSet& at(TrackRef t) const {
    return blocked[geom::axis(t.orient)][static_cast<std::size_t>(t.index)];
  }
  /// Blocks \p span on \p t, clipped to the track's universe.
  void block(TrackRef t, const geom::Interval& span) {
    const geom::Interval& u = universe[geom::axis(t.orient)];
    if (!span.overlaps(u)) return;
    mut(t).add(geom::Interval(std::max(span.lo, u.lo),
                              std::min(span.hi, u.hi)));
  }
  void unblock(TrackRef t, const geom::Interval& span) {
    mut(t).remove(span);
  }

 private:
  geom::IntervalSet& mut(TrackRef t) {
    return blocked[geom::axis(t.orient)][static_cast<std::size_t>(t.index)];
  }
};

/// Expects every occupancy query of track \p t in \p view to answer as
/// the model does: free_segment and free_segment_span (with its crossing
/// span) at \p v, is_free of \p v and of \p span, distance_to_blocked at
/// \p v and blocked_fraction of \p span.
inline void expect_matches(const GridView& view, const DenseRef& ref,
                           TrackRef t, geom::Coord v,
                           const geom::Interval& span) {
  const geom::IntervalSet& runs = ref.at(t);
  const std::optional<geom::Interval> gap =
      runs.free_gap_containing(view.span(t.orient), v);
  int first = -7, last = -7;
  ASSERT_EQ(view.free_segment_span(t, v, &first, &last), gap)
      << geom::orientation_tag(t.orient) << " track " << t.index << " at "
      << v;
  EXPECT_EQ(view.free_segment(t, v), gap);
  if (gap.has_value()) {
    const std::vector<geom::Coord>& perp =
        view.coords(geom::perpendicular(t.orient));
    const auto lower = [&perp](geom::Coord c) {
      return static_cast<int>(std::lower_bound(perp.begin(), perp.end(), c) -
                              perp.begin());
    };
    EXPECT_EQ(first, lower(gap->lo));
    EXPECT_EQ(last, lower(gap->hi + 1) - 1);
  }
  EXPECT_EQ(view.is_free(t, geom::Interval(v, v)), !runs.contains(v));
  EXPECT_EQ(view.is_free(t, span), !runs.intersects(span))
      << "[" << span.lo << ", " << span.hi << "]";
  EXPECT_EQ(view.distance_to_blocked(t, v),
            runs.distance_to_nearest_blocked(v))
      << geom::orientation_tag(t.orient) << " track " << t.index << " at "
      << v;
  const double fraction =
      span.length() == 0
          ? (runs.contains(span.lo) ? 1.0 : 0.0)
          : static_cast<double>(runs.overlap_length(span)) /
                static_cast<double>(span.length());
  EXPECT_EQ(view.blocked_fraction(t, span), fraction)
      << "[" << span.lo << ", " << span.hi << "]";
}

/// Expects crossing_free(i, j) in \p view to answer as the model does.
inline void expect_crossing_matches(const GridView& view, const DenseRef& ref,
                                    int i, int j) {
  const bool h_free =
      !ref.at({geom::Orientation::kHorizontal, i}).contains(view.v_x(j));
  const bool v_free =
      !ref.at({geom::Orientation::kVertical, j}).contains(view.h_y(i));
  EXPECT_EQ(view.crossing_free(i, j), h_free && v_free)
      << "crossing " << i << ", " << j;
}

}  // namespace ocr::tig::testing
