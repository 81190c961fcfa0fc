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
#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "geom/interval.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "util/assert.hpp"

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

/// The occupancy record of one track: the sorted free gaps of the track's
/// universe with their crossing spans. The blocked runs are the universe
/// between consecutive gaps, so nothing outside the universe is ever
/// blocked. Queries are const and pure reads, so any number of threads may
/// read a record nobody is mutating.
///
/// A record that was never blocked leaves its gap list unused: the whole
/// universe is free, and the grid passes that one gap (`whole`, a constant
/// per orientation) to every method.
class TrackRecord {
 public:
  /// Blocks \p span, clipped to the universe. A gap list patch replaces
  /// at most the gaps \p span touches with their two remainders; \p perp
  /// are the crossing coordinates the new spans index.
  void block(const geom::Interval& span, const Gap& whole,
             const std::vector<geom::Coord>& perp);
  /// Unblocks \p span: the freed range merges with every gap it touches
  /// or abuts into one.
  void unblock(const geom::Interval& span, const Gap& whole,
               const std::vector<geom::Coord>& perp);

  /// The free gap containing \p v, nullptr when \p v is blocked or
  /// outside the universe.
  const Gap* gap_containing(geom::Coord v, const Gap& whole) const {
    if (!patched_) return whole.iv.contains(v) ? &whole : nullptr;
    const auto it = first_reaching(gaps_.begin(), gaps_.end(), v);
    if (it == gaps_.end() || it->iv.lo > v) return nullptr;
    return &*it;
  }
  bool is_free(const geom::Interval& span, const Gap& whole) const;
  /// Distance from \p v to the nearest blocked coordinate (nullopt if the
  /// track is completely free).
  std::optional<geom::Coord> distance_to_blocked(geom::Coord v,
                                                 const Gap& whole) const;
  /// Fraction of \p span covered by blocked runs (0 = free, 1 = blocked).
  double blocked_fraction(const geom::Interval& span, const Gap& whole) const;

  /// Heap bytes of the gaps (observability).
  std::size_t heap_bytes() const { return gaps_.capacity() * sizeof(Gap); }

 private:
  /// The first gap of [first, last) whose hi is >= \p v.
  template <typename It>
  static It first_reaching(It first, It last, geom::Coord v) {
    return std::lower_bound(
        first, last, v,
        [](const Gap& gap, geom::Coord value) { return gap.iv.hi < value; });
  }

  std::vector<Gap> gaps_;
  bool patched_ = false;  ///< gaps_ is live: set by the first block
};

/// The occupancy queries, written once over the accessors a grid type
/// provides: `track(t)` picks the record answering for a track, `whole(o)`
/// is the gap of a never-blocked track of orientation o. Every query takes
/// the track as a TrackRef. TrackGrid and GridView inherit them.
template <typename Grid>
class OccupancyQueries {
 public:
  bool is_free(TrackRef t, const geom::Interval& span) const {
    return self().track(t).is_free(span, self().whole(t.orient));
  }

  /// Maximal free extent of track \p t containing \p v (nullopt: blocked).
  std::optional<geom::Interval> free_segment(TrackRef t, geom::Coord v) const {
    int first = 0, last = -1;
    return free_segment_span(t, v, &first, &last);
  }

  /// free_segment, additionally reporting the index range of the crossing
  /// (perpendicular) tracks whose coordinate lies inside the gap:
  /// [*first, *last], empty when first > last. Untouched on a miss.
  /// Exactly first_at_or_above / last_at_or_below of (gap.lo, gap.hi) on
  /// the perpendicular axis, stored with the gap — the MBFS expansion
  /// loop's iteration bounds without per-node binary searches. Always
  /// inlined: that loop calls it per crossing, and left out of line it
  /// slowed `congested-1k` by about 20%.
  [[gnu::always_inline]] std::optional<geom::Interval> free_segment_span(
      TrackRef t, geom::Coord v, int* first, int* last) const {
    const Gap* gap =
        self().track(t).gap_containing(v, self().whole(t.orient));
    if (gap == nullptr) return std::nullopt;
    *first = gap->first;
    *last = gap->last;
    return gap->iv;
  }

  /// Whether the crossing of tracks (i, j) is free on both tracks.
  bool crossing_free(int i, int j) const {
    return free_segment({geom::Orientation::kHorizontal, i}, self().v_x(j)) &&
           free_segment({geom::Orientation::kVertical, j}, self().h_y(i));
  }

  /// Distance along track \p t from \p v to the nearest blocked
  /// coordinate (nullopt if the track is completely free).
  std::optional<geom::Coord> distance_to_blocked(TrackRef t,
                                                 geom::Coord v) const {
    return self().track(t).distance_to_blocked(v, self().whole(t.orient));
  }

  /// Fraction of blocked length on track \p t within \p span (0 = fully
  /// free, 1 = fully blocked). Congestion estimation.
  double blocked_fraction(TrackRef t, const geom::Interval& span) const {
    return self().track(t).blocked_fraction(span, self().whole(t.orient));
  }

 private:
  const Grid& self() const { return static_cast<const Grid&>(*this); }
};

/// The level-B track grid. Each track family (orientation) is one entry of
/// an axis()-indexed array: its coordinates, the gap of a never-blocked
/// track and its records.
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

  int num_h() const { return static_cast<int>(axes_[0].coords.size()); }
  int num_v() const { return static_cast<int>(axes_[1].coords.size()); }
  const geom::Rect& extent() const { return extent_; }

  geom::Coord h_y(int i) const {
    return axes_[0].coords[static_cast<std::size_t>(i)];
  }
  geom::Coord v_x(int j) const {
    return axes_[1].coords[static_cast<std::size_t>(j)];
  }
  /// The coordinates of the \p o tracks (y for horizontal, x for
  /// vertical), ascending.
  const std::vector<geom::Coord>& coords(geom::Orientation o) const {
    return axes_[geom::axis(o)].coords;
  }

  /// Index of the \p o track nearest to coordinate \p c (ties -> lower).
  int nearest(geom::Orientation o, geom::Coord c) const;
  /// The horizontal and vertical track through \p p's nearest crossing,
  /// indexed by geom::axis().
  std::array<TrackRef, 2> tracks_at(const geom::Point& p) const {
    return {TrackRef{geom::Orientation::kHorizontal,
                     nearest(geom::Orientation::kHorizontal, p.y)},
            TrackRef{geom::Orientation::kVertical,
                     nearest(geom::Orientation::kVertical, p.x)}};
  }

  /// First \p o track index whose coordinate is >= \p c (the track
  /// count when none) — with last_at_or_below, the index range of the
  /// tracks inside a span.
  int first_at_or_above(geom::Orientation o, geom::Coord c) const;
  /// Last \p o track index whose coordinate is <= \p c (-1 when none).
  int last_at_or_below(geom::Orientation o, geom::Coord c) const;

  /// Grid crossing point of horizontal track \p i and vertical track \p j.
  geom::Point crossing(int i, int j) const {
    return geom::Point{v_x(j), h_y(i)};
  }

  /// Snaps an arbitrary point to its nearest grid crossing.
  geom::Point snap(const geom::Point& p) const {
    const std::array<TrackRef, 2> t = tracks_at(p);
    return crossing(t[0].index, t[1].index);
  }

  // ---- blocking --------------------------------------------------------

  /// Blocks the extent \p span (along the track) on track \p t.
  void block(TrackRef t, const geom::Interval& span);
  /// Unblocks (rip-up support).
  void unblock(TrackRef t, const geom::Interval& span);

  /// Blocks every horizontal-track extent covered by \p region (used for
  /// metal3 obstacles) — tracks whose y lies inside the region lose the
  /// region's x span.
  void block_region_h(const geom::Rect& region) {
    block_region(geom::Orientation::kHorizontal, region);
  }
  /// Same for vertical tracks (metal4 obstacles).
  void block_region_v(const geom::Rect& region) {
    block_region(geom::Orientation::kVertical, region);
  }

  // ---- occupancy records (queries: OccupancyQueries) -------------------

  /// The record of track \p t. A family that was never blocked holds no
  /// records and answers with one shared empty record.
  const TrackRecord& track(TrackRef t) const {
    const Axis& ax = axes_[geom::axis(t.orient)];
    const auto i = static_cast<std::size_t>(t.index);
    OCR_ASSERT(i < ax.coords.size(), "track index out of range");
    return ax.records.empty() ? kEmptyRecord : ax.records[i];
  }
  /// The free gap of a never-blocked \p o track: the whole universe with
  /// the crossing span of every perpendicular track.
  const Gap& whole(geom::Orientation o) const {
    return axes_[geom::axis(o)].whole;
  }
  /// The universe of a \p o track: the extent's x span for horizontal
  /// tracks, its y span for vertical ones.
  geom::Interval span(geom::Orientation o) const { return whole(o).iv; }

  /// Heap bytes of the occupancy state: the track coordinate arrays, the
  /// record arrays and the gaps inside each record. The
  /// `tig.grid_bytes` observability gauge.
  std::size_t grid_bytes() const;

 private:
  /// One track family. `records` stays empty until the family's first
  /// block, then holds one record per track: a grid that is never blocked
  /// (a pristine instance grid kept for copying) costs its coordinates
  /// alone.
  struct Axis {
    std::vector<geom::Coord> coords;
    Gap whole;
    std::vector<TrackRecord> records;
  };

  void block_region(geom::Orientation o, const geom::Rect& region);

  static const TrackRecord kEmptyRecord;

  Axis axes_[2];
  geom::Rect extent_;
};

}  // namespace ocr::tig
