#pragma once
/// \file overlay.hpp
/// \brief GridOverlay: a sparse, copy-on-touch occupancy delta over an
/// immutable base TrackGrid.
///
/// The parallel engine's workers search against the shared batch-start
/// grid but must unblock their own net's terminal crossings first. The
/// overlay carries those edits instead of a grid copy: it answers the
/// occupancy queries the MBFS search makes (free segments, distance to
/// blockage, blocked fraction) from a small set of *touched* tracks — each
/// a private IntervalSet copied from the base on first mutation — and
/// delegates every untouched track to the base grid, whose warmed GapCache
/// entries are pure reads safe to share across threads.
///
/// Identity argument: a touched track's IntervalSet is the base set with
/// the same block/unblock ops a full grid copy would have applied, and the
/// overlay computes its queries with the IntervalSet primitives
/// (free_gap_containing, first/last crossing index) that the gap-cache
/// tests prove equivalent to the TrackGrid's cached answers. So (base +
/// overlay) answers every query exactly as the mutated deep copy did, bit
/// for bit.
///
/// Thread contract: an overlay belongs to one thread. The base grid must
/// be immutable with a warmed gap cache while any overlay on another
/// thread references it (TrackGrid::warm_gap_cache).
///
/// Storage: the track→slot directories are chunked (64 tracks per chunk,
/// default slot -1), so an overlay over a 100k-track grid allocates
/// directory chunks only around the tracks it actually touches instead of
/// two dense int32 arrays sized to the whole grid per rebase. The private
/// IntervalSets live in a pool that survives rebase, which recycles both
/// the sets' run capacity and the directory chunks.

#include <cstdint>
#include <optional>
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

  // ---- occupancy queries (same semantics as TrackGrid's) --------------

  bool h_is_free(int i, const geom::Interval& span) const;
  bool v_is_free(int j, const geom::Interval& span) const;

  std::optional<geom::Interval> h_free_segment(int i, geom::Coord x) const;
  std::optional<geom::Interval> v_free_segment(int j, geom::Coord y) const;

  std::optional<geom::Interval> h_free_segment_span(int i, geom::Coord x,
                                                    int* j_first,
                                                    int* j_last) const;
  std::optional<geom::Interval> v_free_segment_span(int j, geom::Coord y,
                                                    int* i_first,
                                                    int* i_last) const;

  bool crossing_free(int i, int j) const;

  std::optional<geom::Coord> h_distance_to_blocked(int i,
                                                   geom::Coord x) const;
  std::optional<geom::Coord> v_distance_to_blocked(int j,
                                                   geom::Coord y) const;

  double h_blocked_fraction(int i, const geom::Interval& span) const;
  double v_blocked_fraction(int j, const geom::Interval& span) const;

  /// The effective blocked set of a track: the private delta when touched,
  /// the base's otherwise (tests and diagnostics).
  const geom::IntervalSet& h_blocked(int i) const;
  const geom::IntervalSet& v_blocked(int j) const;

 private:
  /// Index of track \p i's private set in entries_, materializing a copy
  /// of the base set on first touch.
  geom::IntervalSet& materialize_h(int i);
  geom::IntervalSet& materialize_v(int j);

  /// Pool slot holding a copy of \p src: recycles a set retired by an
  /// earlier rebase (keeping its run capacity) or grows the pool.
  std::int32_t acquire_entry(const geom::IntervalSet& src);

  const TrackGrid* base_ = nullptr;
  // track index -> entries_ index, -1 = untouched. Chunked: only the
  // directory chunks around touched tracks materialize.
  util::ChunkedVector<std::int32_t> h_slot_{-1};
  util::ChunkedVector<std::int32_t> v_slot_{-1};
  // Pool of private sets; [0, entries_used_) are live since the last
  // rebase, the rest are retired sets kept for their capacity.
  std::vector<geom::IntervalSet> entries_;
  std::size_t entries_used_ = 0;
  std::vector<std::int32_t> touched_h_;  // for O(touched) rebase
  std::vector<std::int32_t> touched_v_;
};

}  // namespace ocr::tig
