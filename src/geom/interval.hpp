#pragma once
/// \file interval.hpp
/// \brief Closed integer intervals [lo, hi].
///
/// Channel routing reasons about horizontal spans of nets; track records
/// reason about free gaps along a track. Both use closed intervals on grid
/// coordinates.

#include <algorithm>
#include <compare>
#include <cstddef>
#include <ostream>
#include <vector>

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

std::ostream& operator<<(std::ostream& os, const Interval& iv);

}  // namespace ocr::geom
