#include "tig/overlay.hpp"

#include "util/assert.hpp"

namespace ocr::tig {

void GridOverlay::rebase(const TrackGrid* base) {
  OCR_ASSERT(base != nullptr, "GridOverlay needs a base grid");
  if (base_ != base || h_slot_.size() != static_cast<std::size_t>(
                                             base->num_h()) ||
      v_slot_.size() != static_cast<std::size_t>(base->num_v())) {
    base_ = base;
    h_slot_.reset(static_cast<std::size_t>(base->num_h()));
    v_slot_.reset(static_cast<std::size_t>(base->num_v()));
  } else {
    // Same grid shape: clear only the touched slots (their chunks are
    // present by construction), keeping the directory chunks warm.
    for (const std::int32_t i : touched_h_) {
      *h_slot_.find(static_cast<std::size_t>(i)) = -1;
    }
    for (const std::int32_t j : touched_v_) {
      *v_slot_.find(static_cast<std::size_t>(j)) = -1;
    }
  }
  // Retire the pool instead of destroying it: the sets keep their run
  // capacity for the next materializations.
  entries_used_ = 0;
  touched_h_.clear();
  touched_v_.clear();
}

std::int32_t GridOverlay::acquire_entry(const geom::IntervalSet& src) {
  const std::size_t idx = entries_used_++;
  if (idx == entries_.size()) {
    entries_.push_back(src);
  } else {
    entries_[idx] = src;
  }
  return static_cast<std::int32_t>(idx);
}

geom::IntervalSet& GridOverlay::materialize_h(int i) {
  std::int32_t& slot = h_slot_.touch(static_cast<std::size_t>(i));
  if (slot < 0) {
    slot = acquire_entry(base_->h_blocked(i));
    touched_h_.push_back(static_cast<std::int32_t>(i));
  }
  return entries_[static_cast<std::size_t>(slot)];
}

geom::IntervalSet& GridOverlay::materialize_v(int j) {
  std::int32_t& slot = v_slot_.touch(static_cast<std::size_t>(j));
  if (slot < 0) {
    slot = acquire_entry(base_->v_blocked(j));
    touched_v_.push_back(static_cast<std::int32_t>(j));
  }
  return entries_[static_cast<std::size_t>(slot)];
}

void GridOverlay::block_h(int i, const geom::Interval& span) {
  materialize_h(i).add(span);
}

void GridOverlay::block_v(int j, const geom::Interval& span) {
  materialize_v(j).add(span);
}

void GridOverlay::unblock_h(int i, const geom::Interval& span) {
  materialize_h(i).remove(span);
}

void GridOverlay::unblock_v(int j, const geom::Interval& span) {
  materialize_v(j).remove(span);
}

const geom::IntervalSet& GridOverlay::h_blocked(int i) const {
  const std::int32_t slot = h_slot_.at(static_cast<std::size_t>(i));
  return slot < 0 ? base_->h_blocked(i)
                  : entries_[static_cast<std::size_t>(slot)];
}

const geom::IntervalSet& GridOverlay::v_blocked(int j) const {
  const std::int32_t slot = v_slot_.at(static_cast<std::size_t>(j));
  return slot < 0 ? base_->v_blocked(j)
                  : entries_[static_cast<std::size_t>(slot)];
}

bool GridOverlay::h_is_free(int i, const geom::Interval& span) const {
  const std::int32_t slot = h_slot_.at(static_cast<std::size_t>(i));
  if (slot < 0) return base_->h_is_free(i, span);
  return entries_[static_cast<std::size_t>(slot)].is_free(span);
}

bool GridOverlay::v_is_free(int j, const geom::Interval& span) const {
  const std::int32_t slot = v_slot_.at(static_cast<std::size_t>(j));
  if (slot < 0) return base_->v_is_free(j, span);
  return entries_[static_cast<std::size_t>(slot)].is_free(span);
}

std::optional<geom::Interval> GridOverlay::h_free_segment(
    int i, geom::Coord x) const {
  const std::int32_t slot = h_slot_.at(static_cast<std::size_t>(i));
  if (slot < 0) return base_->h_free_segment(i, x);
  return entries_[static_cast<std::size_t>(slot)].free_gap_containing(
      base_->h_span(), x);
}

std::optional<geom::Interval> GridOverlay::v_free_segment(
    int j, geom::Coord y) const {
  const std::int32_t slot = v_slot_.at(static_cast<std::size_t>(j));
  if (slot < 0) return base_->v_free_segment(j, y);
  return entries_[static_cast<std::size_t>(slot)].free_gap_containing(
      base_->v_span(), y);
}

std::optional<geom::Interval> GridOverlay::h_free_segment_span(
    int i, geom::Coord x, int* j_first, int* j_last) const {
  const std::int32_t slot = h_slot_.at(static_cast<std::size_t>(i));
  if (slot < 0) return base_->h_free_segment_span(i, x, j_first, j_last);
  const auto gap =
      entries_[static_cast<std::size_t>(slot)].free_gap_containing(
          base_->h_span(), x);
  if (gap) {
    *j_first = base_->first_v_at_or_above(gap->lo);
    *j_last = base_->last_v_at_or_below(gap->hi);
  }
  return gap;
}

std::optional<geom::Interval> GridOverlay::v_free_segment_span(
    int j, geom::Coord y, int* i_first, int* i_last) const {
  const std::int32_t slot = v_slot_.at(static_cast<std::size_t>(j));
  if (slot < 0) return base_->v_free_segment_span(j, y, i_first, i_last);
  const auto gap =
      entries_[static_cast<std::size_t>(slot)].free_gap_containing(
          base_->v_span(), y);
  if (gap) {
    *i_first = base_->first_h_at_or_above(gap->lo);
    *i_last = base_->last_h_at_or_below(gap->hi);
  }
  return gap;
}

bool GridOverlay::crossing_free(int i, int j) const {
  return !h_blocked(i).contains(base_->v_x(j)) &&
         !v_blocked(j).contains(base_->h_y(i));
}

std::optional<geom::Coord> GridOverlay::h_distance_to_blocked(
    int i, geom::Coord x) const {
  const std::int32_t slot = h_slot_.at(static_cast<std::size_t>(i));
  if (slot < 0) return base_->h_distance_to_blocked(i, x);
  return entries_[static_cast<std::size_t>(slot)]
      .distance_to_nearest_blocked(x);
}

std::optional<geom::Coord> GridOverlay::v_distance_to_blocked(
    int j, geom::Coord y) const {
  const std::int32_t slot = v_slot_.at(static_cast<std::size_t>(j));
  if (slot < 0) return base_->v_distance_to_blocked(j, y);
  return entries_[static_cast<std::size_t>(slot)]
      .distance_to_nearest_blocked(y);
}

double GridOverlay::h_blocked_fraction(int i,
                                       const geom::Interval& span) const {
  const std::int32_t slot = h_slot_.at(static_cast<std::size_t>(i));
  if (slot < 0) return base_->h_blocked_fraction(i, span);
  return blocked_fraction_of(entries_[static_cast<std::size_t>(slot)],
                             span);
}

double GridOverlay::v_blocked_fraction(int j,
                                       const geom::Interval& span) const {
  const std::int32_t slot = v_slot_.at(static_cast<std::size_t>(j));
  if (slot < 0) return base_->v_blocked_fraction(j, span);
  return blocked_fraction_of(entries_[static_cast<std::size_t>(slot)],
                             span);
}

}  // namespace ocr::tig
