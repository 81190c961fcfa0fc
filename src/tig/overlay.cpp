#include "tig/overlay.hpp"

#include "util/assert.hpp"

namespace ocr::tig {

void GridOverlay::rebase(const TrackGrid* base) {
  OCR_ASSERT(base != nullptr, "GridOverlay needs a base grid");
  bool reshape = false;
  for (const geom::Orientation o : geom::kOrientations) {
    reshape |= slot_[geom::axis(o)].size() != base->coords(o).size();
  }
  if (reshape) {
    for (const geom::Orientation o : geom::kOrientations) {
      slot_[geom::axis(o)].assign(base->coords(o).size(), -1);
    }
  } else {
    // Same grid shape: clear only the touched slots.
    for (TrackRef t : touched_) {
      slot_[geom::axis(t.orient)][static_cast<std::size_t>(t.index)] = -1;
    }
  }
  base_ = base;
  // Retire the pool instead of destroying it: the records keep their
  // capacity for the next materializations.
  entries_used_ = 0;
  touched_.clear();
}

std::int32_t GridOverlay::slot(TrackRef t) const {
  const std::vector<std::int32_t>& dir = slot_[geom::axis(t.orient)];
  const auto i = static_cast<std::size_t>(t.index);
  OCR_ASSERT(i < dir.size(), "track index out of range");
  return dir[i];
}

TrackRecord& GridOverlay::materialize(TrackRef t) {
  std::int32_t s = slot(t);
  if (s < 0) {
    // Recycle a record retired by an earlier rebase (keeping its
    // capacity) or grow the pool.
    s = static_cast<std::int32_t>(entries_used_++);
    slot_[geom::axis(t.orient)][static_cast<std::size_t>(t.index)] = s;
    if (entries_used_ > entries_.size()) {
      entries_.push_back(base_->track(t));
    } else {
      entries_[static_cast<std::size_t>(s)] = base_->track(t);
    }
    touched_.push_back(t);
  }
  return entries_[static_cast<std::size_t>(s)];
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
  const std::int32_t s = slot(t);
  return s < 0 ? base_->track(t) : entries_[static_cast<std::size_t>(s)];
}

}  // namespace ocr::tig
