#pragma once
/// \file router.hpp
/// \brief The level-B over-cell router: serial net processing over the
/// whole layout area (paper §3).
///
/// Nets are routed one at a time in longest-distance-first order (§3,
/// user-overridable). Two-terminal nets are a single path search;
/// multi-terminal nets follow the §3.3 modified-Prim scheme: repeatedly
/// attach the terminal closest to the net's already-routed geometry,
/// connecting it to the nearest point of that geometry (terminals and
/// Steiner attachment points alike). A net's own wire never blocks its own
/// later connections (same electrical node); the completed net's extents
/// are committed to the grid before the next net starts, which is the
/// paper's O(t) per-connection array update.
///
/// RouteRun is that pass, written once: the prologue, the serial step, the
/// commit step and the rip-up epilogue. LevelBRouter drives it position by
/// position; the parallel engine (src/engine/) drives the same object and
/// only replaces the serial step with a batch search where that is exact.

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "levelb/net_core.hpp"
#include "levelb/workspace.hpp"
#include "tig/track_grid.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace ocr::levelb {

/// One ordering position's routing outcome, before it commits.
struct RoutedNet {
  NetResult result;
  std::vector<Committed> committed;  ///< extents commit() blocks
  SearchStats stats;                 ///< this net's search effort
  long long search_us = 0;           ///< time of its route_single_net call
};

/// One level-B run over a grid: everything between "here are the nets"
/// and the LevelBResult. Positions must commit in order 0..size()-1; the
/// grid then holds the exact serial prefix at every step.
class RouteRun {
 public:
  /// Extra fields a caller appends to a position's `net` trace event.
  using TraceFields =
      std::initializer_list<std::pair<const char*, util::TraceValue>>;

  /// The prologue: orders \p nets, snaps and reserves their terminals on
  /// \p grid and indexes the unrouted suffix. \p grid, \p options and
  /// \p nets must outlive the run. \p mode is the `mode` field of the
  /// run's `net` trace events.
  RouteRun(tig::TrackGrid& grid, const LevelBOptions& options,
           const std::vector<BNet>& nets, const char* mode = "serial");

  std::size_t size() const { return order_.size(); }

  /// The net and snapped terminals at each ordering position.
  const std::vector<const BNet*>& nets() const { return nets_; }
  const std::vector<const std::vector<geom::Point>*>& terminals() const {
    return terminals_;
  }

  /// Position \p k's search inputs. Its sensitive registry holds the nets
  /// committed so far, so the request is exact for a search that runs
  /// after every earlier sensitive net committed.
  NetRouteRequest request(std::size_t k) const {
    return NetRouteRequest{nets_[k]->id, terminals_[k], unrouted_.suffix(k),
                           &sensitive_};
  }

  /// Wiring committed at position \p k (empty until it commits).
  const std::vector<Committed>& committed(std::size_t k) const {
    return committed_[k];
  }

  /// The serial step: routes position \p k on the live grid, with its own
  /// terminal crossings released for the search.
  RoutedNet route_serial(std::size_t k);

  /// The commit step: blocks \p routed's extents into the grid (the
  /// paper's per-connection array update), registers them when the net is
  /// sensitive, observes the `levelb.net_*` histograms and, when tracing,
  /// records the `net` event with \p extra appended.
  void commit(std::size_t k, RoutedNet routed, TraceFields extra = {});

  /// The epilogue: rip-up rounds, metrics, and the assembled result.
  /// Call once, after every position committed.
  LevelBResult finish();

 private:
  tig::TrackGrid& grid_;
  const LevelBOptions& options_;
  const char* mode_;
  std::vector<std::size_t> order_;
  std::vector<std::vector<geom::Point>> snapped_;  ///< parallel to nets
  UnroutedSuffix unrouted_;
  std::vector<const BNet*> nets_;
  std::vector<const std::vector<geom::Point>*> terminals_;

  SensitiveRuns sensitive_;
  std::vector<NetResult> results_;
  std::vector<std::vector<Committed>> committed_;
  SearchStats stats_;
  SearchWorkspace workspace_;  // every serial search of this run
  util::NetSearchHistograms hists_;
};

/// Serial level-B router over a TrackGrid.
class LevelBRouter {
 public:
  /// \p grid must outlive the router; committed nets block its tracks.
  LevelBRouter(tig::TrackGrid& grid, LevelBOptions options = {});

  /// Routes \p nets (order adjusted per options). Nets with < 2 distinct
  /// snapped terminals are trivially complete.
  LevelBResult route(const std::vector<BNet>& nets);

 private:
  tig::TrackGrid& grid_;
  LevelBOptions options_;
};

}  // namespace ocr::levelb
