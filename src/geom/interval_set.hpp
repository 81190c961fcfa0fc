#pragma once
/// \file interval_set.hpp
/// \brief A set of disjoint closed intervals with block/free queries.
///
/// The level-B core keeps per-track runs in IntervalSets: the extents a
/// search read and the committed wiring new paths should not run beside
/// (levelb/footprint.hpp). Tests also use it as the reference model of a
/// track's occupancy, which tig::TrackRecord stores as free gaps instead.

#include <optional>
#include <vector>

#include "geom/interval.hpp"

namespace ocr::geom {

/// Maintains a canonical (sorted, non-overlapping, non-adjacent-merged)
/// list of blocked closed intervals over Coord.
class IntervalSet {
 public:
  /// Marks [iv.lo, iv.hi] as blocked, merging with existing runs.
  void add(const Interval& iv);

  /// Unmarks [iv.lo, iv.hi]; splits existing runs as needed.
  void remove(const Interval& iv);

  /// True if any coordinate of \p iv is blocked.
  bool intersects(const Interval& iv) const;

  /// True if the single coordinate \p v is blocked.
  bool contains(Coord v) const;

  /// Blocked length inside \p span, counting each run's clipped part as
  /// hi - lo. O(log k + runs inside the span).
  Coord overlap_length(const Interval& span) const;

  /// Maximal blocked runs in ascending order.
  const std::vector<Interval>& runs() const { return runs_; }

  /// The maximal free gap of \p universe containing \p v, if \p v is free
  /// and inside the universe. O(log k).
  std::optional<Interval> free_gap_containing(const Interval& universe,
                                              Coord v) const;

  /// Distance from \p v to the nearest blocked coordinate (in either
  /// direction), or nullopt when nothing is blocked.
  std::optional<Coord> distance_to_nearest_blocked(Coord v) const;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  std::vector<Interval> runs_;  // sorted by lo, pairwise disjoint
};

}  // namespace ocr::geom
