#pragma once
/// \file track_grid.hpp
/// \brief The level-B routing surface: horizontal and vertical tracks with
/// blocked extents.
///
/// The paper models the over-cell routing surface as "an array of
/// rectangular cells defined by horizontal and vertical routing tracks
/// that can have different spacing" (§3). Horizontal tracks carry metal3,
/// vertical tracks metal4. Obstacles (power straps, keep-outs, committed
/// wires) block extents of tracks; the free structure of each track is an
/// IntervalSet queried by the router.

#include <cstddef>
#include <optional>
#include <vector>

#include "geom/interval_set.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "tig/gap_cache.hpp"
#include "util/chunked.hpp"

namespace ocr::tig {

/// Identifies one track: its orientation and index in that orientation's
/// coordinate-sorted track list.
struct TrackRef {
  geom::Orientation orient = geom::Orientation::kHorizontal;
  int index = 0;

  friend constexpr auto operator<=>(const TrackRef&, const TrackRef&) =
      default;
};

/// The level-B track grid.
class TrackGrid {
 public:
  /// Builds a grid from explicit track coordinates (ascending, unique).
  /// \p h_ys are the y positions of horizontal tracks; \p v_xs the x
  /// positions of vertical tracks; \p extent the routable area.
  TrackGrid(std::vector<geom::Coord> h_ys, std::vector<geom::Coord> v_xs,
            const geom::Rect& extent);

  /// Builds a uniform grid covering \p extent with the given pitches.
  /// Tracks are inset by half a pitch from the extent boundary.
  static TrackGrid uniform(const geom::Rect& extent, geom::Coord h_pitch,
                           geom::Coord v_pitch);

  int num_h() const { return static_cast<int>(h_ys_.size()); }
  int num_v() const { return static_cast<int>(v_xs_.size()); }
  const geom::Rect& extent() const { return extent_; }

  geom::Coord h_y(int i) const { return h_ys_[static_cast<std::size_t>(i)]; }
  geom::Coord v_x(int j) const { return v_xs_[static_cast<std::size_t>(j)]; }

  /// Index of the track nearest to the given coordinate (ties -> lower).
  int nearest_h(geom::Coord y) const;
  int nearest_v(geom::Coord x) const;

  /// First horizontal-track index whose y >= \p y (num_h() when none) —
  /// with first_*_at_or_below, the index range of tracks inside a span.
  int first_h_at_or_above(geom::Coord y) const;
  int first_v_at_or_above(geom::Coord x) const;
  /// Last horizontal-track index whose y <= \p y (-1 when none).
  int last_h_at_or_below(geom::Coord y) const;
  int last_v_at_or_below(geom::Coord x) const;

  /// Grid crossing point of horizontal track \p i and vertical track \p j.
  geom::Point crossing(int i, int j) const {
    return geom::Point{v_x(j), h_y(i)};
  }

  /// Snaps an arbitrary point to its nearest grid crossing.
  geom::Point snap(const geom::Point& p) const {
    return crossing(nearest_h(p.y), nearest_v(p.x));
  }

  // ---- blocking --------------------------------------------------------

  /// Blocks the x-extent \p span on horizontal track \p i.
  void block_h(int i, const geom::Interval& span);
  /// Blocks the y-extent \p span on vertical track \p j.
  void block_v(int j, const geom::Interval& span);
  /// Unblocks (rip-up support).
  void unblock_h(int i, const geom::Interval& span);
  void unblock_v(int j, const geom::Interval& span);

  /// Blocks every horizontal-track extent covered by \p region (used for
  /// metal3 obstacles) — tracks whose y lies inside the region lose the
  /// region's x span.
  void block_region_h(const geom::Rect& region);
  /// Same for vertical tracks (metal4 obstacles).
  void block_region_v(const geom::Rect& region);

  // ---- queries ----------------------------------------------------------

  bool h_is_free(int i, const geom::Interval& span) const;
  bool v_is_free(int j, const geom::Interval& span) const;

  /// Maximal free extent of track \p i containing x (nullopt: blocked).
  std::optional<geom::Interval> h_free_segment(int i, geom::Coord x) const;
  std::optional<geom::Interval> v_free_segment(int j, geom::Coord y) const;

  /// h_free_segment, additionally reporting the index range of the
  /// crossing (perpendicular) tracks whose coordinate lies inside the
  /// gap: [*j_first, *j_last], empty when j_first > j_last. Untouched on
  /// a miss. Exactly first_v_at_or_above(gap.lo) / last_v_at_or_below(
  /// gap.hi), but memoized per gap in the gap cache — the MBFS expansion
  /// loop's iteration bounds without per-node binary searches.
  std::optional<geom::Interval> h_free_segment_span(int i, geom::Coord x,
                                                    int* j_first,
                                                    int* j_last) const;
  std::optional<geom::Interval> v_free_segment_span(int j, geom::Coord y,
                                                    int* i_first,
                                                    int* i_last) const;

  /// Whether the crossing of tracks (i, j) is free on both tracks.
  bool crossing_free(int i, int j) const;

  /// Distance along track \p i from x to the nearest blocked coordinate
  /// (nullopt if the track is completely free).
  std::optional<geom::Coord> h_distance_to_blocked(int i,
                                                   geom::Coord x) const;
  std::optional<geom::Coord> v_distance_to_blocked(int j,
                                                   geom::Coord y) const;

  /// Fraction of blocked length on track \p i within the x-window \p span
  /// (0 = fully free, 1 = fully blocked). Congestion estimation.
  double h_blocked_fraction(int i, const geom::Interval& span) const;
  double v_blocked_fraction(int j, const geom::Interval& span) const;

  /// The blocked set of track \p i. Never-touched tracks answer with a
  /// shared empty set (chunked storage materializes on first block).
  const geom::IntervalSet& h_blocked(int i) const {
    return h_blocked_.at(static_cast<std::size_t>(i));
  }
  const geom::IntervalSet& v_blocked(int j) const {
    return v_blocked_.at(static_cast<std::size_t>(j));
  }

  geom::Interval h_span() const { return extent_.x_span(); }
  geom::Interval v_span() const { return extent_.y_span(); }

  /// Materializes the free-gap cache entry of every *blocked* track so
  /// subsequent free-segment queries are pure reads (untouched tracks are
  /// answered by the cache's universe fast path, also a pure read).
  /// Required before sharing a const grid across threads (a parallel
  /// shard batch).
  void warm_gap_cache() const;

  /// Heap bytes of the occupancy state: blocked-set chunk storage, the
  /// IntervalSet runs inside it, the gap cache, and the track coordinate
  /// arrays. The `tig.grid_bytes` observability gauge.
  std::size_t grid_bytes() const;

  /// Materialized 64-track chunks across both blocked-set directories
  /// (observability/tests: how sparse the occupancy really is).
  std::size_t blocked_chunks() const {
    return h_blocked_.materialized_chunks() + v_blocked_.materialized_chunks();
  }

 private:
  std::vector<geom::Coord> h_ys_;
  std::vector<geom::Coord> v_xs_;
  geom::Rect extent_;
  util::ChunkedVector<geom::IntervalSet> h_blocked_;
  util::ChunkedVector<geom::IntervalSet> v_blocked_;
  /// Free-gap memo, one entry per track; mutable because it back-fills
  /// under const queries (see GapCache's thread contract). Copies carry
  /// their warm entries with them.
  mutable GapCache gap_cache_;
};

/// Fraction of \p span covered by the blocked runs of \p blocked — the
/// exact computation behind TrackGrid::h/v_blocked_fraction, shared with
/// GridOverlay so both answer bit-identically.
double blocked_fraction_of(const geom::IntervalSet& blocked,
                           const geom::Interval& span);

}  // namespace ocr::tig
