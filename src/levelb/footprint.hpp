#pragma once
/// \file footprint.hpp
/// \brief SearchFootprint: the exact occupancy-read set of a path search.
///
/// Every occupancy query a level-B search makes — free-segment lookups
/// during the MBFS, blockage distances for the drg cost term, blocked
/// fractions for the acf term — depends on the blocked state of one track
/// interval. The footprint is the union of those intervals, per track.
///
/// The engine checks parallel batch results with it: a block-only commit
/// whose extents intersect no footprint interval cannot change the value
/// of any read the search performed, and therefore cannot change the
/// search's (deterministic) outcome. This is the segment-level refinement
/// of the coarser SearchWindow check — a die-crossing wire only conflicts
/// with the searches that actually looked at the track intervals it
/// blocks.

#include <cstddef>
#include <map>

#include "geom/interval_set.hpp"
#include "tig/track_grid.hpp"

namespace ocr::levelb {

class SearchFootprint {
 public:
  /// Records that the search read the blocked state of [iv.lo, iv.hi] on
  /// the given track. Overlapping and adjacent reads merge.
  void add_h(int track, const geom::Interval& iv) { h_[track].add(iv); }
  void add_v(int track, const geom::Interval& iv) { v_[track].add(iv); }
  void add(const tig::TrackRef& track, const geom::Interval& iv);

  /// True if blocking [iv.lo, iv.hi] on \p track could change a read.
  bool intersects(const tig::TrackRef& track, const geom::Interval& iv) const;

  bool empty() const { return h_.empty() && v_.empty(); }
  /// Number of distinct tracks read (observability).
  std::size_t tracks() const { return h_.size() + v_.size(); }
  void clear() {
    h_.clear();
    v_.clear();
  }

 private:
  std::map<int, geom::IntervalSet> h_;
  std::map<int, geom::IntervalSet> v_;
};

}  // namespace ocr::levelb
