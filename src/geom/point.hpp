#pragma once
/// \file point.hpp
/// \brief Integer lattice points and the Manhattan metric.
///
/// All geometry in the library is integral (database units, "dbu"); the
/// synthetic design rules express layer pitches in dbu, so no floating
/// point ever enters area/wirelength accounting.

#include <compare>
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace ocr::geom {

/// Database-unit coordinate. 64-bit: layout areas reach 1e7 x 1e7 dbu and
/// areas must not overflow when multiplied.
using Coord = std::int64_t;

/// Axis orientation of a wire segment or routing track.
enum class Orientation : std::uint8_t { kHorizontal, kVertical };

/// Returns the perpendicular orientation.
constexpr Orientation perpendicular(Orientation o) {
  return o == Orientation::kHorizontal ? Orientation::kVertical
                                       : Orientation::kHorizontal;
}

/// Single-character tag used in debug output ('H' / 'V').
constexpr char orientation_tag(Orientation o) {
  return o == Orientation::kHorizontal ? 'H' : 'V';
}

/// Both orientations in axis order, for code written once over them.
inline constexpr Orientation kOrientations[] = {Orientation::kHorizontal,
                                                Orientation::kVertical};

/// Array index of an orientation (kHorizontal = 0, kVertical = 1): state
/// kept per track family lives in two-entry arrays indexed by it.
constexpr std::size_t axis(Orientation o) {
  return static_cast<std::size_t>(o);
}

/// A point on the integer lattice.
struct Point {
  Coord x = 0;
  Coord y = 0;

  friend constexpr auto operator<=>(const Point&, const Point&) = default;
};

/// The coordinate of \p p that varies along a track of orientation \p o
/// (x on a horizontal track, y on a vertical one).
constexpr Coord along(const Point& p, Orientation o) {
  return o == Orientation::kHorizontal ? p.x : p.y;
}

/// The coordinate of \p p that a track of orientation \p o holds fixed:
/// the track's own coordinate when \p p lies on it.
constexpr Coord across(const Point& p, Orientation o) {
  return o == Orientation::kHorizontal ? p.y : p.x;
}

/// The point at \p along_coord on the \p o track at \p across_coord.
constexpr Point on_track(Orientation o, Coord along_coord,
                         Coord across_coord) {
  return o == Orientation::kHorizontal ? Point{along_coord, across_coord}
                                       : Point{across_coord, along_coord};
}

/// L1 (rectilinear) distance — the metric of the paper's Steiner trees.
constexpr Coord manhattan(const Point& a, const Point& b) {
  const Coord dx = a.x >= b.x ? a.x - b.x : b.x - a.x;
  const Coord dy = a.y >= b.y ? a.y - b.y : b.y - a.y;
  return dx + dy;
}

std::ostream& operator<<(std::ostream& os, const Point& p);
std::ostream& operator<<(std::ostream& os, Orientation o);

}  // namespace ocr::geom
