#pragma once
/// \file overlay.hpp
/// \brief GridOverlay: a sparse, copy-on-touch occupancy delta over an
/// immutable base TrackGrid.
///
/// The parallel engine's workers search against the shared batch-start
/// grid but must unblock their own net's terminal crossings first. The
/// overlay carries those edits instead of a grid copy: a track's
/// TrackRecord is copied from the base on first mutation and receives the
/// same block/unblock a grid copy would, and every other track is answered
/// by the base grid's own record. The overlay only decides *which* record
/// answers for a TrackRef (`track`); GridView asks it the queries. So
/// (base + overlay) answers every query exactly as the mutated deep copy
/// would, by construction.
///
/// Thread contract: an overlay belongs to one thread. The base grid must
/// not be mutated while any overlay on another thread reads it; its
/// records are then only read, and reads never write.
///
/// Storage: one track→slot directory per orientation (indexed by
/// geom::axis), an int32 per track with -1 for untouched. The directories
/// are sized when the base grid's shape changes; a rebase onto a grid of
/// the same shape resets only the touched slots. The private records live
/// in a pool that survives rebase, which recycles their capacity.

#include <cstdint>
#include <vector>

#include "tig/track_grid.hpp"

namespace ocr::tig {

class GridOverlay {
 public:
  GridOverlay() = default;
  explicit GridOverlay(const TrackGrid* base) { rebase(base); }

  /// Drops every touched track and re-targets \p base (may be the same
  /// grid). O(touched tracks) while the grid shape stays, O(grid) when it
  /// changes.
  void rebase(const TrackGrid* base);

  const TrackGrid& base() const { return *base_; }

  /// Number of tracks with a private delta (observability/tests).
  std::size_t touched_tracks() const { return touched_.size(); }

  // ---- mutations (mirror TrackGrid's) ---------------------------------

  void block(TrackRef t, const geom::Interval& span);
  void unblock(TrackRef t, const geom::Interval& span);

  /// The record answering for track \p t: the private copy when touched,
  /// the base's otherwise.
  const TrackRecord& track(TrackRef t) const;

 private:
  /// Track \p t's private record, copied from the base on first touch.
  TrackRecord& materialize(TrackRef t);
  /// Track \p t's entry in slot_ (index-checked).
  std::int32_t slot(TrackRef t) const;

  const TrackGrid* base_ = nullptr;
  // track index -> entries_ index per orientation, -1 = untouched.
  std::vector<std::int32_t> slot_[2];
  // Pool of private records; [0, entries_used_) are live since the last
  // rebase, the rest are retired records kept for their capacity.
  std::vector<TrackRecord> entries_;
  std::size_t entries_used_ = 0;
  std::vector<TrackRef> touched_;  // for O(touched) rebase
};

}  // namespace ocr::tig
