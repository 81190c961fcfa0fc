#include "levelb/optimize.hpp"

#include <algorithm>
#include <optional>

#include "util/assert.hpp"

namespace ocr::levelb {
namespace {

using geom::Coord;
using geom::Interval;
using geom::Orientation;
using geom::Point;
using tig::TrackRef;

/// Blocks (or unblocks) every leg of \p path on its track.
void set_path(tig::TrackGrid& grid, const Path& path, bool blocked) {
  for (std::size_t leg = 0; leg + 1 < path.points.size(); ++leg) {
    const TrackRef& t = path.tracks[leg];
    const Interval span =
        geom::leg_extent(path.points[leg], path.points[leg + 1], t.orient);
    if (blocked) {
      grid.block(t, span);
    } else {
      grid.unblock(t, span);
    }
  }
}

/// The track carrying a leg from \p p to \p q along \p o, when the leg
/// rides a real track and that track is free over it.
std::optional<TrackRef> free_leg_track(const tig::TrackGrid& grid,
                                       const Point& p, const Point& q,
                                       Orientation o) {
  const TrackRef t{o, grid.nearest(o, geom::across(p, o))};
  if (grid.coords(o)[static_cast<std::size_t>(t.index)] !=
          geom::across(p, o) ||
      !grid.is_free(t, geom::leg_extent(p, q, o))) {
    return std::nullopt;
  }
  return t;
}

bool point_on_leg(const Point& p, const Point& a, const Point& b) {
  if (a.y == b.y) {
    return p.y == a.y && std::min(a.x, b.x) <= p.x &&
           p.x <= std::max(a.x, b.x);
  }
  return p.x == a.x && std::min(a.y, b.y) <= p.y &&
         p.y <= std::max(a.y, b.y);
}

/// Attempts to replace the three legs points[i..i+3] (an HVH or VHV
/// staircase) with a single L through one of the two alternative corners.
/// \p junctions are same-net attachment points that must stay covered.
/// Returns true (and rewrites \p path) on success. The grid must NOT
/// contain this net's wiring while this runs.
bool flatten_staircase(const tig::TrackGrid& grid, Path& path,
                       std::size_t i,
                       const std::vector<Point>& junctions) {
  const Point& p0 = path.points[i];
  const Point& p3 = path.points[i + 3];
  // Junctions on the legs being removed (excluding the kept endpoints)
  // veto the rewrite.
  for (const Point& j : junctions) {
    if (j == p0 || j == p3) continue;
    if (point_on_leg(j, path.points[i], path.points[i + 1]) ||
        point_on_leg(j, path.points[i + 1], path.points[i + 2]) ||
        point_on_leg(j, path.points[i + 2], path.points[i + 3])) {
      return false;
    }
  }

  // Collinear endpoints: the staircase collapses to one straight leg.
  if (p0.x == p3.x || p0.y == p3.y) {
    const auto t = free_leg_track(grid, p0, p3,
                                  p0.y == p3.y ? Orientation::kHorizontal
                                               : Orientation::kVertical);
    if (!t) return false;
    std::vector<Point> points(path.points.begin(),
                              path.points.begin() + static_cast<long>(i) +
                                  1);
    std::vector<TrackRef> tracks(path.tracks.begin(),
                                 path.tracks.begin() +
                                     static_cast<long>(i));
    points.push_back(p3);
    tracks.push_back(*t);
    points.insert(points.end(),
                  path.points.begin() + static_cast<long>(i) + 4,
                  path.points.end());
    tracks.insert(tracks.end(),
                  path.tracks.begin() + static_cast<long>(i) + 3,
                  path.tracks.end());
    path.points = std::move(points);
    path.tracks = std::move(tracks);
    path.canonicalize();
    return true;
  }

  const Point corner_a{p3.x, p0.y};
  const Point corner_b{p0.x, p3.y};
  for (const Point& corner : {corner_a, corner_b}) {
    if (corner == p0 || corner == p3) continue;  // degenerate
    // Leg p0 -> corner, corner -> p3; both must ride real tracks.
    const Orientation first = corner.y == p0.y ? Orientation::kHorizontal
                                               : Orientation::kVertical;
    const auto t1 = free_leg_track(grid, p0, corner, first);
    const auto t2 =
        free_leg_track(grid, corner, p3, geom::perpendicular(first));
    if (!t1 || !t2) continue;
    // Rewrite.
    std::vector<Point> points(path.points.begin(),
                              path.points.begin() + static_cast<long>(i) +
                                  1);
    std::vector<TrackRef> tracks(path.tracks.begin(),
                                 path.tracks.begin() +
                                     static_cast<long>(i));
    points.push_back(corner);
    tracks.push_back(*t1);
    points.push_back(p3);
    tracks.push_back(*t2);
    points.insert(points.end(),
                  path.points.begin() + static_cast<long>(i) + 4,
                  path.points.end());
    tracks.insert(tracks.end(),
                  path.tracks.begin() + static_cast<long>(i) + 3,
                  path.tracks.end());
    path.points = std::move(points);
    path.tracks = std::move(tracks);
    path.canonicalize();
    return true;
  }
  return false;
}

}  // namespace

OptimizeStats straighten_corners(tig::TrackGrid& grid, LevelBResult& result,
                                 const OptimizeOptions& options) {
  OptimizeStats stats;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    bool changed = false;
    for (NetResult& net : result.nets) {
      if (net.paths.empty()) continue;
      // Lift the whole net off the grid; its own wiring must not block
      // its rewrites (same electrical node).
      for (const Path& path : net.paths) set_path(grid, path, false);

      // Same-net attachment points: endpoints of every path (later paths
      // attach to points on earlier paths' legs).
      std::vector<Point> junctions;
      for (const Path& path : net.paths) {
        if (path.points.empty()) continue;
        junctions.push_back(path.points.front());
        junctions.push_back(path.points.back());
      }
      // The router reserves terminal via sites as point blocks on both
      // tracks; those are this net's own and must not veto its rewrites.
      for (const Point& j : junctions) unblock_terminal(grid, j);

      for (Path& path : net.paths) {
        bool touched = false;
        bool local_change = true;
        while (local_change) {
          local_change = false;
          for (std::size_t i = 0; i + 3 < path.points.size(); ++i) {
            const int corners_before = path.corners();
            const Coord length_before = path.length();
            Path trial = path;
            if (!flatten_staircase(grid, trial, i, junctions)) continue;
            const int corners_after = trial.corners();
            const Coord length_after = trial.length();
            const bool better =
                corners_after < corners_before ||
                (corners_after == corners_before &&
                 length_after < length_before);
            if (!better) continue;
            stats.corners_removed += corners_before - corners_after;
            stats.length_saved += length_before - length_after;
            net.corners -= corners_before - corners_after;
            net.wire_length -= length_before - length_after;
            result.total_corners -= corners_before - corners_after;
            result.total_wire_length -= length_before - length_after;
            path = std::move(trial);
            local_change = true;
            touched = true;
            changed = true;
            break;
          }
        }
        if (touched) ++stats.paths_touched;
      }

      for (const Path& path : net.paths) set_path(grid, path, true);
      for (const Point& j : junctions) block_terminal(grid, j);
    }
    ++stats.passes;
    if (!changed) break;
  }
  return stats;
}

}  // namespace ocr::levelb
