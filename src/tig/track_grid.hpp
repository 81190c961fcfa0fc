#pragma once
/// \file track_grid.hpp
/// \brief The level-B routing surface: horizontal and vertical tracks with
/// blocked extents.
///
/// The paper models the over-cell routing surface as "an array of
/// rectangular cells defined by horizontal and vertical routing tracks
/// that can have different spacing" (§3). Horizontal tracks carry metal3,
/// vertical tracks metal4. Obstacles (power straps, keep-outs, committed
/// wires) block extents of tracks; each track keeps one TrackRecord that
/// answers every occupancy query the router makes.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "geom/interval_set.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"
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

/// A maximal free gap of a track with its crossing span: [first, last]
/// are the indices of the perpendicular tracks whose coordinate lies
/// inside the gap (empty when first > last).
struct Gap {
  geom::Interval iv;
  int first = 0;
  int last = -1;
};

/// The occupancy record of one track: its blocked runs plus, kept in step
/// by every block/unblock, the sorted free gaps of the track's universe
/// with their crossing spans. Queries are const and pure reads, so any
/// number of threads may read a record nobody is mutating.
///
/// A record without blocked runs leaves its gap list unused: the whole
/// universe is free, and the grid passes that one gap (`whole`, a constant
/// per orientation) to the methods that need it.
class TrackRecord {
 public:
  const geom::IntervalSet& blocked() const { return blocked_; }

  /// Blocks \p span. A gap list patch replaces at most the gaps \p span
  /// touches with their two remainders; \p perp are the crossing
  /// coordinates the new spans index.
  void block(const geom::Interval& span, const Gap& whole,
             const std::vector<geom::Coord>& perp);
  /// Unblocks \p span: the freed range merges with every gap it touches
  /// or abuts into one.
  void unblock(const geom::Interval& span, const Gap& whole,
               const std::vector<geom::Coord>& perp);

  std::optional<geom::Interval> free_segment(geom::Coord v,
                                             const Gap& whole) const {
    const Gap* gap = gap_containing(v, whole);
    if (gap == nullptr) return std::nullopt;
    return gap->iv;
  }
  /// free_segment, also reporting the gap's crossing span (untouched on
  /// a miss).
  std::optional<geom::Interval> free_segment_span(geom::Coord v,
                                                  const Gap& whole,
                                                  int* first,
                                                  int* last) const {
    const Gap* gap = gap_containing(v, whole);
    if (gap == nullptr) return std::nullopt;
    *first = gap->first;
    *last = gap->last;
    return gap->iv;
  }

  bool is_free(const geom::Interval& span) const {
    return blocked_.is_free(span);
  }
  bool contains(geom::Coord v) const { return blocked_.contains(v); }
  /// Distance from \p v to the nearest blocked coordinate (nullopt if the
  /// track is completely free).
  std::optional<geom::Coord> distance_to_blocked(geom::Coord v) const {
    return blocked_.distance_to_nearest_blocked(v);
  }
  /// Fraction of \p span covered by blocked runs (0 = free, 1 = blocked).
  double blocked_fraction(const geom::Interval& span) const;

  /// Heap bytes of the runs and gaps (observability).
  std::size_t heap_bytes() const {
    return blocked_.runs().capacity() * sizeof(geom::Interval) +
           gaps_.capacity() * sizeof(Gap);
  }

 private:
  /// The free gap containing \p v, nullptr when \p v is blocked or
  /// outside the universe.
  const Gap* gap_containing(geom::Coord v, const Gap& whole) const {
    if (blocked_.empty()) return whole.iv.contains(v) ? &whole : nullptr;
    const auto it = std::lower_bound(
        gaps_.begin(), gaps_.end(), v,
        [](const Gap& gap, geom::Coord value) { return gap.iv.hi < value; });
    if (it == gaps_.end() || it->iv.lo > v) return nullptr;
    return &*it;
  }

  geom::IntervalSet blocked_;
  std::vector<Gap> gaps_;  ///< free_gaps(universe) while blocked_ is set
};

/// The occupancy queries, written once over the accessors a grid type
/// provides: `h_track(i)`/`v_track(j)` pick the record answering for a
/// track, `h_whole()`/`v_whole()` are the gap of a never-blocked track,
/// `h_y`/`v_x` the geometry. TrackGrid and GridView inherit them.
template <typename Grid>
class OccupancyQueries {
 public:
  bool h_is_free(int i, const geom::Interval& span) const {
    return self().h_track(i).is_free(span);
  }
  bool v_is_free(int j, const geom::Interval& span) const {
    return self().v_track(j).is_free(span);
  }

  /// Maximal free extent of track \p i containing x (nullopt: blocked).
  std::optional<geom::Interval> h_free_segment(int i, geom::Coord x) const {
    return self().h_track(i).free_segment(x, self().h_whole());
  }
  std::optional<geom::Interval> v_free_segment(int j, geom::Coord y) const {
    return self().v_track(j).free_segment(y, self().v_whole());
  }

  /// h_free_segment, additionally reporting the index range of the
  /// crossing (perpendicular) tracks whose coordinate lies inside the
  /// gap: [*j_first, *j_last], empty when j_first > j_last. Untouched on
  /// a miss. Exactly first_v_at_or_above(gap.lo) / last_v_at_or_below(
  /// gap.hi), stored with the gap — the MBFS expansion loop's iteration
  /// bounds without per-node binary searches.
  std::optional<geom::Interval> h_free_segment_span(int i, geom::Coord x,
                                                    int* j_first,
                                                    int* j_last) const {
    return self().h_track(i).free_segment_span(x, self().h_whole(),
                                               j_first, j_last);
  }
  std::optional<geom::Interval> v_free_segment_span(int j, geom::Coord y,
                                                    int* i_first,
                                                    int* i_last) const {
    return self().v_track(j).free_segment_span(y, self().v_whole(),
                                               i_first, i_last);
  }

  /// Whether the crossing of tracks (i, j) is free on both tracks.
  bool crossing_free(int i, int j) const {
    return !self().h_track(i).contains(self().v_x(j)) &&
           !self().v_track(j).contains(self().h_y(i));
  }

  /// Distance along track \p i from x to the nearest blocked coordinate
  /// (nullopt if the track is completely free).
  std::optional<geom::Coord> h_distance_to_blocked(int i,
                                                   geom::Coord x) const {
    return self().h_track(i).distance_to_blocked(x);
  }
  std::optional<geom::Coord> v_distance_to_blocked(int j,
                                                   geom::Coord y) const {
    return self().v_track(j).distance_to_blocked(y);
  }

  /// Fraction of blocked length on track \p i within the x-window \p span
  /// (0 = fully free, 1 = fully blocked). Congestion estimation.
  double h_blocked_fraction(int i, const geom::Interval& span) const {
    return self().h_track(i).blocked_fraction(span);
  }
  double v_blocked_fraction(int j, const geom::Interval& span) const {
    return self().v_track(j).blocked_fraction(span);
  }

 private:
  const Grid& self() const { return static_cast<const Grid&>(*this); }
};

/// The level-B track grid.
class TrackGrid : public OccupancyQueries<TrackGrid> {
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
  const std::vector<geom::Coord>& h_ys() const { return h_ys_; }
  const std::vector<geom::Coord>& v_xs() const { return v_xs_; }

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

  // ---- occupancy records (queries: OccupancyQueries) -------------------

  /// The record of track \p i. Never-touched tracks answer with a shared
  /// empty record (chunked storage materializes on first block).
  const TrackRecord& h_track(int i) const {
    return h_tracks_.at(static_cast<std::size_t>(i));
  }
  const TrackRecord& v_track(int j) const {
    return v_tracks_.at(static_cast<std::size_t>(j));
  }
  /// The free gap of a never-blocked track: the whole universe with the
  /// crossing span of every perpendicular track.
  const Gap& h_whole() const { return h_whole_; }
  const Gap& v_whole() const { return v_whole_; }

  geom::Interval h_span() const { return extent_.x_span(); }
  geom::Interval v_span() const { return extent_.y_span(); }

  /// Heap bytes of the occupancy state: record chunk storage, the runs and
  /// gaps inside it, and the track coordinate arrays. The
  /// `tig.grid_bytes` observability gauge.
  std::size_t grid_bytes() const;

  /// Materialized 64-track chunks across both record directories
  /// (observability/tests: how sparse the occupancy really is).
  std::size_t blocked_chunks() const {
    return h_tracks_.materialized_chunks() + v_tracks_.materialized_chunks();
  }

 private:
  std::vector<geom::Coord> h_ys_;
  std::vector<geom::Coord> v_xs_;
  geom::Rect extent_;
  Gap h_whole_;
  Gap v_whole_;
  util::ChunkedVector<TrackRecord> h_tracks_;
  util::ChunkedVector<TrackRecord> v_tracks_;
};

}  // namespace ocr::tig
