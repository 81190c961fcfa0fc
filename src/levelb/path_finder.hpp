#pragma once
/// \file path_finder.hpp
/// \brief Modified breadth-first search over the Track Intersection Graph
/// (paper §3.1) and cost-based path selection (§3.2).
///
/// For a two-terminal connection (a, b) the finder runs two MBFS passes —
/// one rooted at a's vertical track, one at a's horizontal track — each
/// with two targets (b's vertical and horizontal tracks). Every vertex
/// (maximal free track segment) is examined at most once per pass, which
/// excludes paths with more than one corner on the same track; target
/// vertices are exempt, so all distinct minimum-corner arrivals are
/// collected. The expansion order records two Path Selection Trees; the
/// best candidate is chosen by the §3.2 cost function with bounding.
///
/// A vertical-rooted pass that finds nothing but reaches the horizontal
/// root's segment proves the horizontal-rooted pass fails too (both
/// search one component of the segment graph); that pass is then
/// credited with the first pass's counts instead of being run (DESIGN.md
/// §8). Results, stats and footprints are the same either way.

#include <string>
#include <vector>

#include "levelb/cost.hpp"
#include "levelb/path.hpp"
#include "tig/grid_view.hpp"
#include "tig/track_grid.hpp"
#include "util/cancel.hpp"

namespace ocr::levelb {

struct SearchWorkspace;  // workspace.hpp: caller-owned scratch buffers

/// One vertex of a Path Selection Tree: a free track segment entered at a
/// specific crossing.
struct TreeNode {
  tig::TrackRef track;
  geom::Interval extent;  ///< maximal free extent containing the entry
  geom::Point entry;      ///< corner where the path turned onto this track
  int parent = -1;        ///< tree parent index (-1 = root)
  int depth = 0;          ///< corners so far (root = 0)
  /// Index range of the perpendicular tracks crossing the extent
  /// (cross_lo > cross_hi = none). Captured from the track record's gap
  /// at node creation so expansion needs no per-node binary searches.
  int cross_lo = 0;
  int cross_hi = -1;
};

/// The expansion tree of one MBFS pass (paper Figure 2).
struct PathSelectionTree {
  std::vector<TreeNode> nodes;  ///< nodes[0] is the root when non-empty

  /// Pretty-prints the tree with "v<i>/h<i>" track labels (1-based, as in
  /// the paper's figures).
  std::string to_string() const;
};

/// Search-effort statistics, used by the scaling bench.
struct SearchStats {
  int vertices_examined = 0;
  int candidates = 0;
  int window_growths = 0;

  SearchStats& operator+=(const SearchStats& o) {
    vertices_examined += o.vertices_examined;
    candidates += o.candidates;
    window_growths += o.window_growths;
    return *this;
  }
};

/// Options for PathFinder (top-level so its defaults are usable as a
/// default constructor argument).
struct PathFinderOptions {
  CostWeights weights;
  /// Initial search-window margin beyond the terminals' bounding box, in
  /// tracks. It grows x4 per failed step; after two steps the search
  /// takes the full grid.
  int window_margin = 3;
  /// Populate Result::tree_v / tree_h (costs memory; used by the Figure
  /// 1/2 reproduction and by tests). Also runs every horizontal-rooted
  /// pass, including those the vertical-rooted pass proved fail, so that
  /// tree_h is always the real tree.
  bool keep_trees = false;
  /// Cooperative cancellation, observed every few vertex expansions. A
  /// connect() that sees the token fire returns found = false with
  /// Result::cancelled set. A token that never fires leaves results
  /// bit-identical to an untokened run.
  util::CancelToken cancel;
};

/// Finds minimum-corner paths between grid crossings.
class PathFinder {
 public:
  using Options = PathFinderOptions;

  struct Result {
    bool found = false;
    bool cancelled = false;         ///< the cancel token fired mid-search
    bool budget_exhausted = false;  ///< vertex budget spent before found
    Path path;             ///< best path (canonical form)
    int corners = 0;       ///< corners of the best path
    SearchStats stats;
    /// Expansion trees of the two passes; populated only when
    /// Options::keep_trees is set (they are copied out of the workspace).
    PathSelectionTree tree_v;  ///< pass rooted at a's vertical track
    PathSelectionTree tree_h;  ///< pass rooted at a's horizontal track
  };

  /// \p grid is captured as a view; serial callers pass their TrackGrid
  /// (implicitly converted) and mutate it between connect() calls as nets
  /// commit, engine workers pass a GridOverlay over the batch-start grid.
  /// Whatever the view references must outlive the finder.
  explicit PathFinder(tig::GridView grid,
                      Options options = PathFinderOptions());

  /// Connects grid crossings \p a and \p b (both must lie exactly on a
  /// horizontal and a vertical track). \p ctx supplies the cost terms'
  /// context. \p ws supplies the search's scratch buffers — pass the same
  /// workspace across connects to keep steady-state searches allocation-
  /// free (results never depend on the workspace's history). Returns
  /// found = false when no path exists even on the full grid.
  ///
  /// \p vertex_budget caps the vertices this connect may examine (both
  /// MBFS passes plus window growths); 0 = unlimited. Reaching it fails
  /// the search with Result::budget_exhausted — deterministically, since
  /// vertex expansion order is fixed. route_single_net passes what is
  /// left of the net's LevelBOptions::net_vertex_budget. A proven pass
  /// counts its credited vertices; when they would reach the budget the
  /// pass is run instead, so the search stops on the same vertex as when
  /// every pass runs.
  Result connect(const geom::Point& a, const geom::Point& b,
                 const CostContext& ctx, SearchWorkspace& ws,
                 long long vertex_budget = 0) const;

  /// Convenience overload owning a throwaway workspace (tests, one-shot
  /// callers). Hot paths should hold a workspace and use the overload.
  Result connect(const geom::Point& a, const geom::Point& b,
                 const CostContext& ctx) const;

 private:
  tig::GridView grid_;
  Options options_;
};

}  // namespace ocr::levelb
