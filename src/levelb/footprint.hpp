#pragma once
/// \file footprint.hpp
/// \brief TrackRunMap: closed intervals kept per track, keyed by TrackRef.
///
/// The level-B core keeps two such maps, both this class:
///
/// * **SearchFootprint** — the exact occupancy-read set of a path search.
///   Every occupancy query a level-B search makes (free-segment lookups
///   during the MBFS, blockage distances for the drg cost term, blocked
///   fractions for the acf term) depends on the blocked state of one
///   track interval; the footprint is the union of those intervals. The
///   engine checks batch results with it: a block-only commit whose
///   extents intersect no footprint interval cannot change the value of
///   any read the search performed, and therefore cannot change the
///   search's (deterministic) outcome.
/// * **SensitiveRuns** — committed wiring that new paths should not run
///   alongside (capacitive-coupling victims, §1), read by the w24
///   parallel-run cost term through `overlap`.

#include <cstddef>
#include <map>

#include "geom/interval_set.hpp"
#include "tig/track_grid.hpp"

namespace ocr::levelb {

class TrackRunMap {
 public:
  /// Adds [iv.lo, iv.hi] to \p track's runs. Overlapping and adjacent
  /// intervals merge.
  void add(const tig::TrackRef& track, const geom::Interval& iv) {
    runs_[track].add(iv);
  }
  void add_h(int track, const geom::Interval& iv) {
    add({geom::Orientation::kHorizontal, track}, iv);
  }
  void add_v(int track, const geom::Interval& iv) {
    add({geom::Orientation::kVertical, track}, iv);
  }

  /// True if [iv.lo, iv.hi] shares a point with \p track's runs (for a
  /// footprint: blocking it could change a read).
  bool intersects(const tig::TrackRef& track, const geom::Interval& iv) const {
    const auto it = runs_.find(track);
    return it != runs_.end() && it->second.intersects(iv);
  }

  /// Total length of \p span covered by \p track's runs.
  geom::Coord overlap(const tig::TrackRef& track,
                      const geom::Interval& span) const {
    const auto it = runs_.find(track);
    return it == runs_.end() ? 0 : it->second.overlap_length(span);
  }

  bool empty() const { return runs_.empty(); }
  /// Number of distinct tracks with runs (observability).
  std::size_t tracks() const { return runs_.size(); }

  friend bool operator==(const TrackRunMap&, const TrackRunMap&) = default;

 private:
  std::map<tig::TrackRef, geom::IntervalSet> runs_;
};

using SearchFootprint = TrackRunMap;
using SensitiveRuns = TrackRunMap;

}  // namespace ocr::levelb
