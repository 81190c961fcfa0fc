#pragma once
/// \file path.hpp
/// \brief Routed level-B paths: rectilinear polylines riding grid tracks.

#include <string>
#include <vector>

#include "geom/point.hpp"
#include "tig/track_grid.hpp"

namespace ocr::levelb {

/// A two-terminal connection realized on the level-B grid. The polyline
/// runs from the connection's first endpoint to its second; every leg is
/// axis-aligned and rides one grid track (horizontal legs on metal3,
/// vertical legs on metal4).
struct Path {
  /// Corner points including both endpoints (size >= 2, or empty for a
  /// degenerate zero-length connection).
  std::vector<geom::Point> points;
  /// Track carrying each leg; tracks.size() == points.size() - 1.
  std::vector<tig::TrackRef> tracks;

  bool empty() const { return points.size() < 2; }
  std::size_t num_legs() const {
    return points.empty() ? 0 : points.size() - 1;
  }

  /// Total Manhattan length.
  geom::Coord length() const;

  /// Number of direction changes (metal3<->metal4 vias).
  int corners() const;

  /// Drops zero-length legs and merges collinear consecutive legs,
  /// preserving endpoints; a merge that doubles a leg back onto its start
  /// drops that leg too, so the result is a fixed point. Produces the
  /// canonical form used for deduplication and corner counting. Compacts
  /// in place: never allocates.
  void canonicalize();

  /// "(x,y) -> (x,y) -> ..." for diagnostics.
  std::string to_string() const;

  friend bool operator==(const Path& a, const Path& b) {
    return a.points == b.points;
  }
};

/// Checks that \p path is rectilinear, rides its claimed tracks (each leg's
/// fixed coordinate equals the track's position), and starts/ends at the
/// given endpoints. Returns problems (empty = valid).
std::vector<std::string> validate_path(const tig::TrackGrid& grid,
                                       const Path& path,
                                       const geom::Point& a,
                                       const geom::Point& b);

}  // namespace ocr::levelb
