#pragma once
/// \file grid_view.hpp
/// \brief GridView: a two-pointer value type giving the level-B search a
/// single read surface over either a plain TrackGrid or a TrackGrid seen
/// through a GridOverlay.
///
/// The serial step searches the live grid; an engine worker searches the
/// live grid, frozen for the batch, through its private overlay (its own
/// net's terminal braces). Both call the same MBFS/cost code, so that code
/// takes a GridView: geometry always comes from the base grid (overlays
/// never change geometry), and the occupancy queries (OccupancyQueries,
/// shared with TrackGrid) ask the record that `track(TrackRef)` picks,
/// branching once on the overlay pointer. GridView converts implicitly
/// from `const TrackGrid&`, so every pre-overlay call site compiles
/// unchanged.
///
/// A view is two pointers — pass it by value. It does not own anything;
/// both targets must outlive it.

#include "tig/overlay.hpp"
#include "tig/track_grid.hpp"

namespace ocr::tig {

class GridView : public OccupancyQueries<GridView> {
 public:
  // Implicit by design: serial callers keep passing a TrackGrid.
  GridView(const TrackGrid& grid) : grid_(&grid) {}
  GridView(const GridOverlay& overlay)
      : grid_(&overlay.base()), overlay_(&overlay) {}

  // ---- geometry (overlay-independent) ---------------------------------

  int num_h() const { return grid_->num_h(); }
  int num_v() const { return grid_->num_v(); }
  geom::Coord h_y(int i) const { return grid_->h_y(i); }
  geom::Coord v_x(int j) const { return grid_->v_x(j); }
  const std::vector<geom::Coord>& coords(geom::Orientation o) const {
    return grid_->coords(o);
  }
  int nearest(geom::Orientation o, geom::Coord c) const {
    return grid_->nearest(o, c);
  }
  std::array<TrackRef, 2> tracks_at(const geom::Point& p) const {
    return grid_->tracks_at(p);
  }
  geom::Point snap(const geom::Point& p) const { return grid_->snap(p); }
  geom::Interval span(geom::Orientation o) const { return grid_->span(o); }

  // ---- occupancy (dispatched to the overlay when present) -------------

  const TrackRecord& track(TrackRef t) const {
    return overlay_ != nullptr ? overlay_->track(t) : grid_->track(t);
  }
  const Gap& whole(geom::Orientation o) const { return grid_->whole(o); }

 private:
  const TrackGrid* grid_;
  const GridOverlay* overlay_ = nullptr;
};

}  // namespace ocr::tig
