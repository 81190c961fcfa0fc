#include "maze/hightower.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "util/assert.hpp"

namespace ocr::maze {
namespace {

using geom::Coord;
using geom::Interval;
using geom::Orientation;
using geom::Point;
using tig::TrackRef;

/// A probe line: a free extent of one track, entered at `entry`.
struct Probe {
  TrackRef track;
  Interval extent;   ///< free gap (varying coordinate)
  Coord fixed = 0;   ///< the track's own coordinate
  Point entry;       ///< where the parent probe crossed onto this track
  int parent = -1;   ///< index into the side's probe list
};

/// One side's search state (source or target).
struct Side {
  std::vector<Probe> probes;
  std::deque<int> frontier;
  std::set<std::pair<TrackRef, Coord>> visited;  // track, gap.lo

  bool mark(const TrackRef& t, const Interval& gap) {
    return visited.insert({t, gap.lo}).second;
  }
};

/// Seeds a side with the two probes through its terminal.
bool seed(const tig::TrackGrid& grid, const Point& p, Side& side) {
  OCR_ASSERT(grid.snap(p) == p, "hightower: terminal is not a grid crossing");
  bool any = false;
  for (const TrackRef& t : grid.tracks_at(p)) {
    const auto gap = grid.free_segment(t, geom::along(p, t.orient));
    if (!gap || !side.mark(t, *gap)) continue;
    side.probes.push_back(Probe{t, *gap, geom::across(p, t.orient), p, -1});
    side.frontier.push_back(static_cast<int>(side.probes.size()) - 1);
    any = true;
  }
  return any;
}

/// True if probes \p s (one side) and \p t (other side) cross; the
/// crossing point is returned through \p out.
bool probes_cross(const Probe& s, const Probe& t, Point* out) {
  if (s.track.orient == t.track.orient) return false;
  const Probe& h = s.track.orient == Orientation::kHorizontal ? s : t;
  const Probe& v = s.track.orient == Orientation::kHorizontal ? t : s;
  const Coord x = v.fixed;
  const Coord y = h.fixed;
  if (!h.extent.contains(x) || !v.extent.contains(y)) return false;
  *out = Point{x, y};
  return true;
}

/// Walks a side's parent chain from probe \p index, producing the corner
/// points from the terminal to \p junction (inclusive).
std::vector<Point> trace(const Side& side, int index,
                         const Point& junction) {
  std::vector<Point> points{junction};
  for (int p = index; p >= 0;
       p = side.probes[static_cast<std::size_t>(p)].parent) {
    points.push_back(side.probes[static_cast<std::size_t>(p)].entry);
  }
  std::reverse(points.begin(), points.end());
  return points;  // terminal ... junction
}

/// Track of the leg between consecutive points \p p -> \p q given the
/// probe chains; recomputed from geometry (legs are axis-aligned).
TrackRef leg_track(const tig::TrackGrid& grid, const Point& p,
                   const Point& q) {
  const Orientation o =
      p.y == q.y ? Orientation::kHorizontal : Orientation::kVertical;
  return TrackRef{o, grid.nearest(o, geom::across(p, o))};
}

}  // namespace

HightowerResult hightower_connect(const tig::TrackGrid& grid,
                                  const geom::Point& a, const geom::Point& b,
                                  const HightowerOptions& options) {
  HightowerResult result;
  if (a == b) {
    result.found = true;
    return result;
  }

  Side source;
  Side target;
  if (!seed(grid, a, source) || !seed(grid, b, target)) return result;
  result.probes_expanded = static_cast<long long>(source.probes.size()) +
                           static_cast<long long>(target.probes.size());

  const auto finish = [&](int s_index, int t_index, const Point& junction) {
    std::vector<Point> points = trace(source, s_index, junction);
    const std::vector<Point> back = trace(target, t_index, junction);
    // back = b ... junction; append reversed, skipping the junction.
    for (auto it = back.rbegin() + 1; it != back.rend(); ++it) {
      points.push_back(*it);
    }
    levelb::Path path;
    path.points = std::move(points);
    for (std::size_t leg = 0; leg + 1 < path.points.size(); ++leg) {
      if (path.points[leg] == path.points[leg + 1]) {
        // canonicalize() drops these; give them any track.
        path.tracks.push_back(grid.tracks_at(path.points[leg])[0]);
        continue;
      }
      path.tracks.push_back(
          leg_track(grid, path.points[leg], path.points[leg + 1]));
    }
    path.canonicalize();
    result.found = true;
    result.path = std::move(path);
  };

  // Check the seed probes against each other first.
  for (std::size_t s = 0; s < source.probes.size(); ++s) {
    for (std::size_t t = 0; t < target.probes.size(); ++t) {
      Point junction;
      if (probes_cross(source.probes[s], target.probes[t], &junction)) {
        finish(static_cast<int>(s), static_cast<int>(t), junction);
        return result;
      }
    }
  }

  // Alternate expanding the two sides.
  const auto expand_one = [&](Side& self, const Side& other,
                              const Point& goal, bool self_is_source)
      -> bool {
    if (self.frontier.empty()) return false;
    const int index = self.frontier.front();
    self.frontier.pop_front();
    ++result.probes_expanded;
    const Probe probe = self.probes[static_cast<std::size_t>(index)];

    // Candidate escape crossings along this probe: nearest the goal's
    // coordinate plus the two extremes (clamped to real tracks).
    std::vector<Coord> candidates;
    const Orientation o = probe.track.orient;
    const Coord clamped =
        std::clamp(geom::along(goal, o), probe.extent.lo, probe.extent.hi);
    candidates.push_back(clamped);
    candidates.push_back(probe.extent.lo);
    candidates.push_back(probe.extent.hi);

    int spawned = 0;
    for (const Coord c : candidates) {
      if (spawned >= options.branch) break;
      // Snap to the nearest perpendicular track inside the extent.
      const Orientation perp = geom::perpendicular(o);
      const TrackRef t{perp, grid.nearest(perp, c)};
      const Coord perp_coord =
          grid.coords(t.orient)[static_cast<std::size_t>(t.index)];
      if (!probe.extent.contains(perp_coord)) continue;
      const auto gap = grid.free_segment(t, probe.fixed);
      if (!gap) continue;
      if (!self.mark(t, *gap)) continue;
      Probe next{t, *gap, perp_coord,
                 geom::on_track(o, perp_coord, probe.fixed), index};
      self.probes.push_back(next);
      const int next_index = static_cast<int>(self.probes.size()) - 1;
      self.frontier.push_back(next_index);
      ++spawned;

      // Completion test against every probe of the other side.
      for (std::size_t o = 0; o < other.probes.size(); ++o) {
        Point junction;
        if (probes_cross(self.probes[static_cast<std::size_t>(next_index)],
                         other.probes[o], &junction)) {
          if (self_is_source) {
            finish(next_index, static_cast<int>(o), junction);
          } else {
            finish(static_cast<int>(o), next_index, junction);
          }
          return true;
        }
      }
    }
    return false;
  };

  int budget = options.max_probes;
  while (budget-- > 0 &&
         (!source.frontier.empty() || !target.frontier.empty())) {
    if (expand_one(source, target, b, /*self_is_source=*/true)) {
      return result;
    }
    if (expand_one(target, source, a, /*self_is_source=*/false)) {
      return result;
    }
  }
  return result;  // not found (line search is incomplete)
}

}  // namespace ocr::maze
