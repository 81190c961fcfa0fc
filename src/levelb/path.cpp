#include "levelb/path.hpp"

#include "util/assert.hpp"
#include "util/str.hpp"

namespace ocr::levelb {

geom::Coord Path::length() const {
  geom::Coord total = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    total += geom::manhattan(points[i - 1], points[i]);
  }
  return total;
}

int Path::corners() const {
  int count = 0;
  for (std::size_t i = 1; i + 1 < points.size(); ++i) {
    const geom::Point& prev = points[i - 1];
    const geom::Point& cur = points[i];
    const geom::Point& next = points[i + 1];
    const bool in_horizontal = prev.y == cur.y && prev.x != cur.x;
    const bool out_horizontal = cur.y == next.y && cur.x != next.x;
    if (in_horizontal != out_horizontal) ++count;
  }
  return count;
}

void Path::canonicalize() {
  if (points.size() < 2) return;
  OCR_ASSERT(tracks.size() + 1 == points.size(),
             "path has inconsistent leg/track counts");
  // Compacts in place: points[0..w] and tracks[0..w) are the kept prefix.
  // w < i throughout, so each write lands on an already-read slot.
  std::size_t w = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    const geom::Point p = points[i];
    const tig::TrackRef t = tracks[i - 1];
    if (p == points[w]) continue;  // zero-length leg
    const bool collinear =
        w >= 1 && tracks[w - 1] == t &&
        ((points[w].y == p.y && t.orient == geom::Orientation::kHorizontal) ||
         (points[w].x == p.x && t.orient == geom::Orientation::kVertical));
    if (collinear && p == points[w - 1]) {
      --w;  // the merge doubles the leg back onto its start: drop it
    } else if (collinear) {
      points[w] = p;  // extend the previous leg
    } else {
      ++w;
      points[w] = p;
      tracks[w - 1] = t;
    }
  }
  if (w == 0) {
    points.clear();
    tracks.clear();
    return;
  }
  points.resize(w + 1);
  tracks.resize(w);
}

std::string Path::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) out += " -> ";
    out += util::format("(%lld,%lld)", static_cast<long long>(points[i].x),
                        static_cast<long long>(points[i].y));
  }
  return out;
}

std::vector<std::string> validate_path(const tig::TrackGrid& grid,
                                       const Path& path,
                                       const geom::Point& a,
                                       const geom::Point& b) {
  std::vector<std::string> problems;
  if (path.empty()) {
    if (a != b) problems.push_back("empty path between distinct endpoints");
    return problems;
  }
  if (path.points.front() != a) problems.push_back("path does not start at a");
  if (path.points.back() != b) problems.push_back("path does not end at b");
  if (path.tracks.size() + 1 != path.points.size()) {
    problems.push_back("leg/track count mismatch");
    return problems;
  }
  for (std::size_t i = 0; i + 1 < path.points.size(); ++i) {
    const geom::Point& p = path.points[i];
    const geom::Point& q = path.points[i + 1];
    const tig::TrackRef& t = path.tracks[i];
    if (p.x != q.x && p.y != q.y) {
      problems.push_back(util::format("leg %zu is not axis-aligned", i));
      continue;
    }
    if (t.orient == geom::Orientation::kHorizontal) {
      if (p.y != q.y) {
        problems.push_back(
            util::format("leg %zu claims a horizontal track but moves in y",
                         i));
      } else if (grid.h_y(t.index) != p.y) {
        problems.push_back(
            util::format("leg %zu is off its horizontal track", i));
      }
    } else {
      if (p.x != q.x) {
        problems.push_back(
            util::format("leg %zu claims a vertical track but moves in x",
                         i));
      } else if (grid.v_x(t.index) != p.x) {
        problems.push_back(
            util::format("leg %zu is off its vertical track", i));
      }
    }
  }
  return problems;
}

}  // namespace ocr::levelb
