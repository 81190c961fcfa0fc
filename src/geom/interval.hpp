#pragma once
/// \file interval.hpp
/// \brief Closed integer intervals [lo, hi].
///
/// Channel routing reasons about horizontal spans of nets; track blocking
/// reasons about blocked extents along a track. Both use closed intervals
/// on grid coordinates.

#include <algorithm>
#include <compare>
#include <ostream>

#include "geom/point.hpp"
#include "util/assert.hpp"

namespace ocr::geom {

/// Closed interval [lo, hi] over Coord. Empty intervals are not
/// representable; construction requires lo <= hi.
struct Interval {
  Coord lo = 0;
  Coord hi = 0;

  Interval() = default;
  Interval(Coord lo_in, Coord hi_in) : lo(lo_in), hi(hi_in) {
    OCR_ASSERT(lo_in <= hi_in, "Interval requires lo <= hi");
  }

  Coord length() const { return hi - lo; }
  bool contains(Coord v) const { return lo <= v && v <= hi; }
  bool contains(const Interval& other) const {
    return lo <= other.lo && other.hi <= hi;
  }

  /// True if the two closed intervals share at least one point.
  bool overlaps(const Interval& other) const {
    return lo <= other.hi && other.lo <= hi;
  }

  /// Smallest interval containing both.
  Interval hull(const Interval& other) const {
    return Interval(std::min(lo, other.lo), std::max(hi, other.hi));
  }

  friend constexpr auto operator<=>(const Interval&, const Interval&) =
      default;
};

/// The extent a leg from \p p to \p q covers along a track of orientation
/// \p o.
inline Interval leg_extent(const Point& p, const Point& q, Orientation o) {
  return Interval(std::min(along(p, o), along(q, o)),
                  std::max(along(p, o), along(q, o)));
}

std::ostream& operator<<(std::ostream& os, const Interval& iv);

}  // namespace ocr::geom
