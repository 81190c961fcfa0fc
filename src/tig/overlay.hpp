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
/// answers (`h_track`/`v_track`); GridView asks it the queries. So (base +
/// overlay) answers every query exactly as the mutated deep copy would,
/// by construction.
///
/// Thread contract: an overlay belongs to one thread. The base grid must
/// not be mutated while any overlay on another thread reads it; its
/// records are then only read, and reads never write.
///
/// Storage: the track→slot directories are chunked (64 tracks per chunk,
/// default slot -1), so an overlay over a 100k-track grid allocates
/// directory chunks only around the tracks it actually touches instead of
/// two dense int32 arrays sized to the whole grid per rebase. The private
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

  bool has_base() const { return base_ != nullptr; }
  const TrackGrid& base() const { return *base_; }

  /// Number of tracks with a private delta (observability/tests).
  std::size_t touched_tracks() const {
    return touched_h_.size() + touched_v_.size();
  }

  // ---- mutations (mirror TrackGrid's) ---------------------------------

  void block_h(int i, const geom::Interval& span);
  void block_v(int j, const geom::Interval& span);
  void unblock_h(int i, const geom::Interval& span);
  void unblock_v(int j, const geom::Interval& span);

  /// The record answering for a track: the private copy when touched,
  /// the base's otherwise.
  const TrackRecord& h_track(int i) const;
  const TrackRecord& v_track(int j) const;

 private:
  /// Track \p i's private record, copied from the base on first touch.
  TrackRecord& materialize_h(int i);
  TrackRecord& materialize_v(int j);

  /// Pool slot holding a copy of \p src: recycles a record retired by an
  /// earlier rebase (keeping its capacity) or grows the pool.
  std::int32_t acquire_entry(const TrackRecord& src);

  const TrackGrid* base_ = nullptr;
  // track index -> entries_ index, -1 = untouched. Chunked: only the
  // directory chunks around touched tracks materialize.
  util::ChunkedVector<std::int32_t> h_slot_{-1};
  util::ChunkedVector<std::int32_t> v_slot_{-1};
  // Pool of private records; [0, entries_used_) are live since the last
  // rebase, the rest are retired records kept for their capacity.
  std::vector<TrackRecord> entries_;
  std::size_t entries_used_ = 0;
  std::vector<std::int32_t> touched_h_;  // for O(touched) rebase
  std::vector<std::int32_t> touched_v_;
};

}  // namespace ocr::tig
