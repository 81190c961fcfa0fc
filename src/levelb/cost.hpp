#pragma once
/// \file cost.hpp
/// \brief The paper's path-selection cost function (§3.2).
///
///   C = w1·wl + Σ_j ( w21·drg_j + w22·dup_j + w23·acf_j )
///
/// * `wl`   — wire length of the candidate path, measured in pitch units
///            so it is commensurate with the dimensionless corner terms;
/// * `drg`  — proximity of corner j to routed grid points (blocked track
///            extents): 1 / (1 + d / pitch), d = distance to nearest
///            blockage along the corner's two tracks;
/// * `dup`  — proximity of corner j to unrouted net terminals: sum of
///            (1 - manhattan / R) over terminals within radius R;
/// * `acf`  — area congestion factor: mean blocked fraction of the two
///            tracks within a window around the corner.
///
/// The paper's recommendation — w1 = 1, w21 = w22 = w23 = 1/2 for sparse
/// problems, heavier w2x for dense ones — is the default here.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geom/interval_set.hpp"
#include "geom/point.hpp"
#include "levelb/footprint.hpp"
#include "tig/grid_view.hpp"
#include "tig/track_grid.hpp"

namespace ocr::levelb {

struct CostWeights {
  double w1 = 1.0;    ///< wire length
  double w21 = 0.5;   ///< corner proximity to routed grid points
  double w22 = 0.5;   ///< corner proximity to unrouted terminals
  double w23 = 0.5;   ///< area congestion factor
  /// Extension term (§3.2: "additional terms can be included in the cost
  /// function, for example, to prevent parallel routing of sensitive
  /// nets"): penalty per pitch of running parallel to a sensitive wire on
  /// an adjacent track. 0 disables.
  double w24 = 0.0;
};

/// Uniform bucket index over a flat point array, for the dup term's
/// radius queries (only points within R of a corner contribute). Points
/// fall into square buckets of edge `cell` dbu; only occupied buckets are
/// stored — sorted bucket keys, each bucket's entries in ascending flat
/// index — so memory is O(points) however large the die.
class PointBuckets {
 public:
  /// (flat index, manhattan distance) of one dup_sum hit.
  using Hit = std::pair<std::size_t, geom::Coord>;

  PointBuckets() = default;
  /// Indexes \p points (flat index = position) into buckets of edge
  /// \p cell dbu (>= 1).
  PointBuckets(const std::vector<geom::Point>& points, geom::Coord cell);

  /// Σ (1 - d / radius) over the points at flat index >= \p from whose
  /// manhattan distance d to \p p is below \p radius, added in ascending
  /// flat index: the order of a linear scan, so the sum is bit-identical
  /// to one. A radius of `cell` reads the 3x3 buckets around \p p; any
  /// radius is exact. \p hits is scratch; \p tested counts the points
  /// whose distance was computed.
  double dup_sum(const geom::Point& p, geom::Coord radius, std::size_t from,
                 std::vector<Hit>& hits, long long& tested) const;

 private:
  struct Entry {
    geom::Point p;
    std::size_t index = 0;
  };

  geom::Coord cell_ = 1;
  std::vector<std::uint64_t> keys_;   // occupied bucket keys, ascending
  std::vector<std::size_t> starts_;   // keys_.size() + 1 offsets into entries_
  std::vector<Entry> entries_;        // grouped by bucket, index-ascending
};

/// The terminals of the nets after one ordering position: the entries of
/// an index at flat index >= `from` (UnroutedSuffix::suffix). Default-
/// constructed = no unrouted terminals (rip-up re-routes).
struct UnroutedView {
  const PointBuckets* index = nullptr;
  std::size_t from = 0;
};

struct SearchWorkspace;  // workspace.hpp: caller-owned scratch + counters

/// Context shared by all corner evaluations of one connection.
struct CostContext {
  /// Terminals of nets not yet routed; the dup term steers corners away
  /// from them.
  UnroutedView unrouted;
  /// Remaining terminals of the current net, added to the dup term after
  /// the unrouted ones (optional).
  const std::vector<geom::Point>* own_terminals = nullptr;
  /// Radius of the dup term, in dbu.
  geom::Coord dup_radius = 0;
  /// Half-width of the acf congestion window around a corner, in dbu.
  geom::Coord acf_window = 0;
  /// Normalization pitch (average of the grid's h/v pitches), in dbu.
  geom::Coord pitch = 1;
  /// Committed sensitive wiring for the w24 parallel-run term (optional).
  const SensitiveRuns* sensitive = nullptr;
  /// When set, every occupancy read the cost terms make is recorded here
  /// as a (track, interval) dependency. The engine checks batch searches
  /// against it; serial callers leave it null.
  SearchFootprint* footprint = nullptr;
  /// When set, the dup term uses its scratch and counts the points it
  /// tests there; null uses throwaway scratch.
  SearchWorkspace* workspace = nullptr;
};

/// Builds a CostContext with radii derived from the grid's mean pitch.
/// \p own_terminals becomes CostContext::own_terminals; callers with
/// unrouted nets set CostContext::unrouted afterwards.
CostContext make_cost_context(const tig::GridView& grid,
                              const std::vector<geom::Point>* own_terminals,
                              double dup_radius_pitches = 8.0,
                              double acf_window_pitches = 4.0);

/// drg_j for a corner at \p p joining horizontal track \p h and vertical
/// track \p v (indices into the grid).
double corner_drg(const tig::GridView& grid, const CostContext& ctx,
                  const geom::Point& p, int h, int v);

/// dup_j for a corner at \p p.
double corner_dup(const CostContext& ctx, const geom::Point& p);

/// acf_j for a corner at \p p on tracks (h, v).
double corner_acf(const tig::GridView& grid, const CostContext& ctx,
                  const geom::Point& p, int h, int v);

/// Full corner penalty w21·drg + w22·dup + w23·acf.
double corner_cost(const tig::GridView& grid, const CostWeights& weights,
                   const CostContext& ctx, const geom::Point& p, int h,
                   int v);

/// w24 penalty of one path leg: overlap (in pitches) with sensitive runs
/// on the leg's own and adjacent tracks. Zero when ctx.sensitive is null.
double leg_parallel_cost(const tig::GridView& grid,
                         const CostWeights& weights, const CostContext& ctx,
                         const tig::TrackRef& track,
                         const geom::Interval& span);

}  // namespace ocr::levelb
