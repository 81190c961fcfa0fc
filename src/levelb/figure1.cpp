#include "levelb/figure1.hpp"

namespace ocr::levelb {

Figure1Instance make_figure1_instance() {
  tig::TrackGrid grid({10, 20, 30, 40},              // h1..h4
                      {10, 20, 30, 40, 50, 60},      // v1..v6
                      geom::Rect(0, 0, 70, 50));
  // Net A: a committed wire on h4 between v1 and v2 — keeps the MBFS from
  // completing along h4 when entered left of v2.
  grid.block({geom::Orientation::kHorizontal, 3}, geom::Interval(12, 18));
  // Net C: a committed wire on v6 between h2 and h4 — blocks the direct
  // (h2, v6) completion from terminal B1's horizontal track.
  grid.block({geom::Orientation::kVertical, 5}, geom::Interval(25, 35));
  // Obstacle O1: blocks v4 around h2, so the MBFS rooted at h2 cannot turn
  // onto v4.
  grid.block({geom::Orientation::kVertical, 3}, geom::Interval(15, 25));

  return Figure1Instance{std::move(grid), geom::Point{20, 20},
                         geom::Point{60, 40}};
}

}  // namespace ocr::levelb
