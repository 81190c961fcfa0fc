#include "tig/overlay.hpp"

#include "util/assert.hpp"

namespace ocr::tig {

void GridOverlay::rebase(const TrackGrid* base) {
  OCR_ASSERT(base != nullptr, "GridOverlay needs a base grid");
  bool reshape = base_ != base;
  for (const geom::Orientation o : geom::kOrientations) {
    reshape |= slot_[geom::axis(o)].size() != base->coords(o).size();
  }
  if (reshape) {
    base_ = base;
    for (const geom::Orientation o : geom::kOrientations) {
      slot_[geom::axis(o)].reset(base->coords(o).size());
    }
  } else {
    // Same grid shape: clear only the touched slots (their chunks are
    // present by construction), keeping the directory chunks warm.
    for (TrackRef t : touched_) {
      *slot_[geom::axis(t.orient)].find(static_cast<std::size_t>(t.index)) =
          -1;
    }
  }
  // Retire the pool instead of destroying it: the records keep their
  // capacity for the next materializations.
  entries_used_ = 0;
  touched_.clear();
}

TrackRecord& GridOverlay::materialize(TrackRef t) {
  std::int32_t& slot =
      slot_[geom::axis(t.orient)].touch(static_cast<std::size_t>(t.index));
  if (slot < 0) {
    // Recycle a record retired by an earlier rebase (keeping its
    // capacity) or grow the pool.
    slot = static_cast<std::int32_t>(entries_used_++);
    if (entries_used_ > entries_.size()) {
      entries_.push_back(base_->track(t));
    } else {
      entries_[static_cast<std::size_t>(slot)] = base_->track(t);
    }
    touched_.push_back(t);
  }
  return entries_[static_cast<std::size_t>(slot)];
}

void GridOverlay::block(TrackRef t, const geom::Interval& span) {
  materialize(t).block(span, base_->whole(t.orient),
                       base_->coords(geom::perpendicular(t.orient)));
}

void GridOverlay::unblock(TrackRef t, const geom::Interval& span) {
  materialize(t).unblock(span, base_->whole(t.orient),
                         base_->coords(geom::perpendicular(t.orient)));
}

const TrackRecord& GridOverlay::track(TrackRef t) const {
  const std::int32_t slot =
      slot_[geom::axis(t.orient)].at(static_cast<std::size_t>(t.index));
  return slot < 0 ? base_->track(t) : entries_[static_cast<std::size_t>(slot)];
}

}  // namespace ocr::tig
