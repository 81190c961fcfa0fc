#pragma once
/// \file partition.hpp
/// \brief Conflict-graph spatial sharding: the engine's batch planner.
///
/// Two nets whose search regions are far apart cannot read each other's
/// wiring, so they can route at the same time. The shard planner turns
/// that observation into a schedule. Each ordering
/// position gets a *declared region*: its terminal bounding box inflated
/// by the expected search halo (window growth + congestion-window reads).
/// Scanning positions in the serial ordering, a batch is the maximal run
/// of consecutive positions whose regions are pairwise disjoint — i.e. a
/// greedy coloring of the region-overlap conflict graph, constrained to
/// order-convex color classes. The constraint is what keeps recovery
/// exact: when every batch is a contiguous ordering interval and batches
/// commit in order, the live grid at any position k inside a batch is
/// exactly the serial prefix [0, k) — so a net whose search escaped its
/// declared region can be re-routed serially with no rollback.
///
/// Sensitive nets close their batch (they stay its last member): their
/// commit updates the SensitiveRuns registry, which the w24 cost term
/// reads *without* touching the grid, so no later net may share a batch
/// with one. With that rule, the batch-start registry is position-exact
/// for every member.
///
/// The plan is a performance device, not a correctness proof: free-gap
/// and blockage-distance reads can extend past any declared region on
/// sparse tracks, so the engine still verifies each batch member's exact
/// read set against the wiring its same-batch predecessors committed and
/// re-routes the rare escapee serially (see engine.cpp route_sharded).

#include <cstddef>
#include <vector>

#include "geom/rect.hpp"
#include "levelb/net_core.hpp"

namespace ocr::engine {

struct ShardPlanOptions {
  /// Routing pitch the halo scales with (max of the grid's h/v pitches).
  geom::Coord pitch = 1;
  /// Region inflation in pitches. Covers the first search-window growth
  /// steps plus the acf congestion-window reads; larger values trade
  /// batch length for fewer escapes. Purely a tuning knob — escapes are
  /// caught at commit time either way.
  int halo_pitches = 16;
};

/// One batch: the ordering positions [begin, end), pairwise
/// region-disjoint and routable in parallel against the batch-start grid.
struct ShardBatch {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
};

struct ShardPlan {
  /// Declared region per ordering position (meaningless where
  /// has_region[k] is false — nets with no terminals conflict with
  /// nothing and join any batch).
  std::vector<geom::Rect> regions;
  std::vector<char> has_region;
  /// Order-convex cover of [0, n): batches[i].end == batches[i+1].begin.
  std::vector<ShardBatch> batches;

  std::size_t positions() const {
    return batches.empty() ? 0 : batches.back().end;
  }
  std::size_t max_batch() const;
  /// Mean batch length — the planner's parallelism estimate (an upper
  /// bound on achievable speedup).
  double mean_batch() const;
};

/// Builds the batch schedule for nets already in ordering sequence.
/// Deterministic: a pure function of the terminal geometry, the sensitive
/// flags and the options.
ShardPlan build_shard_plan(
    const std::vector<const levelb::BNet*>& nets_by_position,
    const std::vector<const std::vector<geom::Point>*>& terminals_by_position,
    const ShardPlanOptions& options);

}  // namespace ocr::engine
