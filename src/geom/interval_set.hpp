#pragma once
/// \file interval_set.hpp
/// \brief A set of disjoint closed intervals with block/free queries.
///
/// Routing tracks keep an IntervalSet of *blocked* extents (obstacles and
/// wires already committed to the track). Path legality checks reduce to
/// "is [a, b] fully free on this track?", which this structure answers in
/// O(log k) for k maximal blocked runs.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "geom/interval.hpp"

namespace ocr::geom {

/// Replaces `v[first, last)` with `pieces[0, np)` in place: overwrites
/// the common prefix, then erases or inserts the difference, so the tail
/// shifts at most once.
template <typename T>
void replace_range(std::vector<T>& v, std::size_t first, std::size_t last,
                   const T* pieces, std::size_t np) {
  const std::size_t overwrite = std::min(np, last - first);
  const auto at = [&v](std::size_t k) {
    return v.begin() + static_cast<std::ptrdiff_t>(k);
  };
  std::copy(pieces, pieces + overwrite, at(first));
  if (np < last - first) {
    v.erase(at(first + np), at(last));
  } else if (np > last - first) {
    v.insert(at(last), pieces + overwrite, pieces + np);
  }
}

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

  /// True if the whole of \p iv is free (no blocked point inside).
  bool is_free(const Interval& iv) const { return !intersects(iv); }

  /// Total blocked length, counting each blocked run as hi - lo
  /// (zero-length runs block a single point but add no length).
  Coord blocked_length() const;

  /// Blocked length inside \p span, counting each run's clipped part as
  /// hi - lo. O(log k + runs inside the span).
  Coord overlap_length(const Interval& span) const;

  /// Maximal blocked runs in ascending order.
  const std::vector<Interval>& runs() const { return runs_; }

  bool empty() const { return runs_.empty(); }
  void clear() { runs_.clear(); }

  /// Enumerates the maximal free gaps of the universe [lo, hi] minus the
  /// blocked runs. Gaps are closed intervals; runs touching the boundary
  /// clip the gaps accordingly.
  std::vector<Interval> free_gaps(const Interval& universe) const;

  /// free_gaps, written into \p out (cleared first) so callers can reuse
  /// its capacity across rebuilds.
  void free_gaps_into(const Interval& universe,
                      std::vector<Interval>& out) const;

  /// The maximal free gap of \p universe containing \p v, if \p v is free
  /// and inside the universe. O(log k).
  std::optional<Interval> free_gap_containing(const Interval& universe,
                                              Coord v) const;

  /// Distance from \p v to the nearest blocked coordinate (in either
  /// direction), or nullopt when nothing is blocked. Used by the level-B
  /// cost function's corner-proximity term.
  std::optional<Coord> distance_to_nearest_blocked(Coord v) const;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  std::vector<Interval> runs_;  // sorted by lo, pairwise disjoint
};

}  // namespace ocr::geom
