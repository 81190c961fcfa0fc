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
/// Storage: the track→slot directories (one per orientation, indexed by
/// geom::axis) are chunked (64 tracks per chunk, default slot -1), so an
/// overlay over a 100k-track grid allocates directory chunks only around
/// the tracks it actually touches instead of two dense int32 arrays sized
/// to the whole grid per rebase. The private
/// records live in a pool that survives rebase, which recycles both the
/// records' capacity and the directory chunks.

#include <cstdint>
#include <vector>

#include "tig/track_grid.hpp"
#include "util/chunked.hpp"

namespace ocr::tig {

class GridOverlay {
 public:
  GridOverlay() = default;
  explicit GridOverlay(const TrackGrid* base) { rebase(base); }

  /// Drops every touched track and re-targets \p base (may be the same
  /// grid). O(touched tracks), not O(grid).
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

  const TrackGrid* base_ = nullptr;
  // track index -> entries_ index per orientation, -1 = untouched.
  // Chunked: only the directory chunks around touched tracks materialize.
  util::ChunkedVector<std::int32_t> slot_[2] = {
      util::ChunkedVector<std::int32_t>(-1),
      util::ChunkedVector<std::int32_t>(-1)};
  // Pool of private records; [0, entries_used_) are live since the last
  // rebase, the rest are retired records kept for their capacity.
  std::vector<TrackRecord> entries_;
  std::size_t entries_used_ = 0;
  std::vector<TrackRef> touched_;  // for O(touched) rebase
};

}  // namespace ocr::tig
