#include "maze/lee.hpp"

#include <deque>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace ocr::maze {
namespace {

using geom::Coord;
using geom::Interval;
using geom::Orientation;
using geom::Point;
using tig::TrackRef;

struct CellIndex {
  int i = 0;  // horizontal track
  int j = 0;  // vertical track
};

}  // namespace

LeeResult lee_connect(const tig::TrackGrid& grid, const geom::Point& a,
                      const geom::Point& b) {
  LeeResult result;
  const int nh = grid.num_h();
  const int nv = grid.num_v();
  const int ia = grid.nearest(Orientation::kHorizontal, a.y);
  const int ja = grid.nearest(Orientation::kVertical, a.x);
  const int ib = grid.nearest(Orientation::kHorizontal, b.y);
  const int jb = grid.nearest(Orientation::kVertical, b.x);
  OCR_ASSERT(grid.h_y(ia) == a.y && grid.v_x(ja) == a.x,
             "lee_connect: endpoint a is not a grid crossing");
  OCR_ASSERT(grid.h_y(ib) == b.y && grid.v_x(jb) == b.x,
             "lee_connect: endpoint b is not a grid crossing");

  if (a == b) {
    result.found = true;
    return result;
  }

  const auto cell = [nv](int i, int j) {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(nv) +
           static_cast<std::size_t>(j);
  };
  constexpr int kUnset = std::numeric_limits<int>::max();
  std::vector<int> dist(static_cast<std::size_t>(nh) *
                            static_cast<std::size_t>(nv),
                        kUnset);

  // Step legality: the track extent between adjacent crossings must be
  // free (the crossing coordinates are included, so blocked crossings
  // block every move through them).
  const auto can_step_h = [&grid](int i, int j_from, int j_to) {
    const Coord x1 = grid.v_x(std::min(j_from, j_to));
    const Coord x2 = grid.v_x(std::max(j_from, j_to));
    return grid.is_free({Orientation::kHorizontal, i}, Interval(x1, x2));
  };
  const auto can_step_v = [&grid](int j, int i_from, int i_to) {
    const Coord y1 = grid.h_y(std::min(i_from, i_to));
    const Coord y2 = grid.h_y(std::max(i_from, i_to));
    return grid.is_free({Orientation::kVertical, j}, Interval(y1, y2));
  };

  std::deque<CellIndex> wave;
  dist[cell(ia, ja)] = 0;
  wave.push_back(CellIndex{ia, ja});
  bool reached = false;
  while (!wave.empty() && !reached) {
    const CellIndex c = wave.front();
    wave.pop_front();
    ++result.cells_expanded;
    const int d = dist[cell(c.i, c.j)];
    const auto visit = [&](int i, int j) {
      if (dist[cell(i, j)] != kUnset) return;
      dist[cell(i, j)] = d + 1;
      if (i == ib && j == jb) {
        reached = true;
        return;
      }
      wave.push_back(CellIndex{i, j});
    };
    if (c.j + 1 < nv && can_step_h(c.i, c.j, c.j + 1)) visit(c.i, c.j + 1);
    if (c.j - 1 >= 0 && can_step_h(c.i, c.j, c.j - 1)) visit(c.i, c.j - 1);
    if (c.i + 1 < nh && can_step_v(c.j, c.i, c.i + 1)) visit(c.i + 1, c.j);
    if (c.i - 1 >= 0 && can_step_v(c.j, c.i, c.i - 1)) visit(c.i - 1, c.j);
  }
  if (dist[cell(ib, jb)] == kUnset) return result;  // unreachable

  // Retrace from b to a, preferring to continue straight so the final
  // path has few corners among shortest paths.
  std::vector<CellIndex> cells{CellIndex{ib, jb}};
  // Direction we are moving in during the *retrace* (b toward a).
  int di = 0;
  int dj = 0;
  CellIndex cur{ib, jb};
  while (!(cur.i == ia && cur.j == ja)) {
    const int d = dist[cell(cur.i, cur.j)];
    struct Step {
      int di, dj;
      bool legal;
    };
    const Step steps[4] = {
        {0, 1, cur.j + 1 < nv && can_step_h(cur.i, cur.j, cur.j + 1)},
        {0, -1, cur.j - 1 >= 0 && can_step_h(cur.i, cur.j, cur.j - 1)},
        {1, 0, cur.i + 1 < nh && can_step_v(cur.j, cur.i, cur.i + 1)},
        {-1, 0, cur.i - 1 >= 0 && can_step_v(cur.j, cur.i, cur.i - 1)},
    };
    int best = -1;
    for (int s = 0; s < 4; ++s) {
      if (!steps[s].legal) continue;
      const int ni = cur.i + steps[s].di;
      const int nj = cur.j + steps[s].dj;
      if (dist[cell(ni, nj)] != d - 1) continue;
      if (best < 0) best = s;
      if (steps[s].di == di && steps[s].dj == dj) {
        best = s;  // straight continuation wins
        break;
      }
    }
    OCR_ASSERT(best >= 0, "retrace lost the wavefront");
    di = steps[best].di;
    dj = steps[best].dj;
    cur = CellIndex{cur.i + di, cur.j + dj};
    cells.push_back(cur);
  }

  // cells runs b -> a; reverse and compress into legs.
  std::vector<CellIndex> fwd(cells.rbegin(), cells.rend());
  levelb::Path path;
  path.points.push_back(a);
  for (std::size_t k = 1; k < fwd.size(); ++k) {
    const Point p{grid.v_x(fwd[k].j), grid.h_y(fwd[k].i)};
    const bool horizontal_move = fwd[k].i == fwd[k - 1].i;
    const TrackRef track =
        horizontal_move
            ? TrackRef{Orientation::kHorizontal, fwd[k].i}
            : TrackRef{Orientation::kVertical, fwd[k].j};
    path.points.push_back(p);
    path.tracks.push_back(track);
  }
  path.canonicalize();
  result.found = true;
  result.path = std::move(path);
  return result;
}

}  // namespace ocr::maze
