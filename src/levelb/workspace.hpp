#pragma once
/// \file workspace.hpp
/// \brief Caller-owned scratch state for PathFinder::connect.
///
/// One MBFS expansion is the router's innermost hot path; the workspace
/// removes its steady-state heap traffic by letting the *caller* own every
/// buffer the search needs and reuse it across connects:
///
/// * **Visited marks** — one slot per (orientation, track), stamped with a
///   generation counter. Starting a pass bumps the generation instead of
///   clearing; a slot's content is live only when its stamp matches. Each
///   slot holds the free segments already visited on that track (almost
///   always one). Because a track's free segments are disjoint, "crossing
///   coordinate inside a visited segment" is exactly the
///   (orientation, track, segment.lo) visited-set test of the original
///   `std::set` — and it runs *before* the free-segment lookup, so
///   re-probed crossings skip the occupancy query entirely.
/// * **Index-based BFS queue** — a vector with a head cursor; no deque
///   chunk churn.
/// * **Tree / arrival / candidate buffers** — node storage for both Path
///   Selection Trees, the arrival lists, the materialized candidate
///   polylines (canonicalized in place), the distinct-candidate table and
///   list, all cleared-with-capacity between passes.
/// * **Net-level buffers** — the per-Prim-iteration target list and the
///   net's own-terminal dup list of route_single_net, plus the dup term's
///   hit scratch.
/// * **Work counters** — plain integers the search bumps as it goes
///   (crossing-loop iterations, dup points tested, second passes proven
///   to fail and the vertices credited for them, candidates whose cost
///   selection started), folded into the metrics registry once per run
///   by publish_metrics(). They count work, never steer it.
///
/// Thread contract: a workspace belongs to exactly one thread at a time
/// (a level-B run's serial step, or one engine worker slot). It never
/// influences routing *results* — only where the intermediate state lives
/// — so runs with fresh, reused, or shared-across-nets workspaces are
/// bit-identical.

#include <cstdint>
#include <vector>

#include "levelb/path_finder.hpp"
#include "util/arena.hpp"
#include "util/metrics.hpp"

namespace ocr::levelb {

/// One target attachment found by an MBFS pass (internal to connect).
struct SearchArrival {
  int parent = 0;       ///< tree node the target was reached from
  geom::Point corner;   ///< crossing onto the target track
  tig::TrackRef target; ///< which target track was reached
};

/// Reusable scratch state for PathFinder::connect. Default-constructed
/// empty; sized lazily against the grid on first use.
struct SearchWorkspace {
  /// Generation-stamped visited marks for one track. The first visited
  /// segment is stored inline — almost every track sees exactly one per
  /// pass, so the hot-path membership test touches only this slot (one
  /// contiguous array element), not a heap-allocated vector.
  /// Overflow segments (the rare >1-per-track case) live in the
  /// workspace arena: a raw pointer + capacity, stamped with the arena
  /// epoch they were allocated under. `connect` resets the arena, which
  /// reclaims every overflow list at once; a stale epoch stamp tells
  /// `visit` the pointer is from a previous connect and must be
  /// re-allocated, never dereferenced.
  struct VisitSlot {
    std::uint64_t gen = 0;            ///< stamp; live iff == generation
    geom::Interval first{0, 0};       ///< first visited segment (count>=1)
    int count = 0;                    ///< visited segments this pass
    geom::Interval* overflow = nullptr;  ///< segments beyond the first
    int overflow_cap = 0;             ///< arena elements at `overflow`
    std::uint64_t arena_epoch = 0;    ///< arena.epoch() at allocation
  };

  /// One slot per track, per orientation (indexed by geom::axis).
  std::vector<VisitSlot> visited[2];
  std::uint64_t generation = 0;       ///< bumped per MBFS pass

  std::vector<int> queue;             ///< BFS FIFO (head is a cursor)

  PathSelectionTree tree_v;           ///< vertical-rooted pass nodes
  PathSelectionTree tree_h;           ///< horizontal-rooted pass nodes
  std::vector<SearchArrival> arrivals_v;
  std::vector<SearchArrival> arrivals_h;

  /// One slot of the open-addressing distinct-candidate table.
  struct DistinctSlot {
    std::uint64_t hash = 0;  ///< path hash of candidates[index]
    int index = -1;          ///< candidate index; -1 = empty slot
  };

  std::vector<Path> candidates;       ///< materialized candidate polylines
  std::vector<DistinctSlot> distinct; ///< table; a power-of-two prefix used
  std::vector<int> unique;            ///< distinct candidates, first seen first
  std::vector<int> unique_corners;    ///< their corners(), parallel to `unique`

  std::vector<geom::Point> targets;     ///< route_single_net attachment list
  std::vector<geom::Point> own_terminals;  ///< the net's unattached terminals
  std::vector<PointBuckets::Hit> dup_hits;  ///< corner_dup scratch

  /// Crossing-loop iterations of run_mbfs (`levelb.mbfs_crossings`).
  long long mbfs_crossings = 0;
  /// Points whose distance corner_dup computed (`levelb.dup_points_tested`).
  long long dup_points_tested = 0;
  /// h-rooted passes skipped because the failing v-rooted pass proved
  /// they fail (`levelb.mbfs_passes_proven`), and the vertices credited
  /// for them without being expanded (`levelb.mbfs_vertices_proven`).
  long long mbfs_passes_proven = 0;
  long long mbfs_vertices_proven = 0;
  /// Minimum-corner distinct candidates whose cost selection started
  /// (`levelb.candidates_evaluated`).
  long long candidates_evaluated = 0;

  /// Bump storage for the per-connect scratch (visited overflow lists).
  /// Reset at every connect entry: O(1), keeps its blocks, and bumps the
  /// epoch that invalidates the VisitSlot overflow pointers above.
  util::Arena arena;

  /// Fills `unique` with the distinct non-empty polylines among
  /// candidates[0, count), in first-occurrence order, and
  /// `unique_corners` with their corners(). Linear in \p count, and
  /// allocation-free once the buffers have warmed up. Degenerate legs can
  /// collapse distinct track sequences onto one wire, so the search
  /// cannot rule duplicates out.
  void collect_distinct(std::size_t count);

  /// Sizes the visited arrays for \p grid (no-op when already sized).
  /// connect() calls this itself; exposed for tests. Accepts any view
  /// (overlays never change track counts).
  void prepare(const tig::GridView& grid) {
    for (const geom::Orientation o : geom::kOrientations) {
      std::vector<VisitSlot>& slots = visited[geom::axis(o)];
      if (slots.size() != grid.coords(o).size()) {
        slots.assign(grid.coords(o).size(), VisitSlot{});
      }
    }
  }

  /// Folds this workspace's arena high-water marks into the global
  /// registry (`levelb.arena_*` gauges, atomic-max across every workspace
  /// that reports — a run's serial step and each engine worker slot).
  /// Called once when the owner finishes a run, never per connect.
  void publish_arena_metrics() const {
    util::MetricsRegistry& reg = util::MetricsRegistry::global();
    reg.gauge("levelb.arena_high_water_bytes")
        .set_max(static_cast<long long>(arena.high_water_bytes()));
    reg.gauge("levelb.arena_reserved_bytes")
        .set_max(static_cast<long long>(arena.reserved_bytes()));
  }

  /// publish_arena_metrics() plus the work counters, added to the
  /// `levelb.*` registry counters of the same names (summed over every
  /// workspace that reports) and zeroed, so a workspace reused across
  /// runs reports each run once.
  void publish_metrics() {
    publish_arena_metrics();
    util::MetricsRegistry& reg = util::MetricsRegistry::global();
    reg.counter("levelb.mbfs_crossings").add(mbfs_crossings);
    reg.counter("levelb.dup_points_tested").add(dup_points_tested);
    reg.counter("levelb.mbfs_passes_proven").add(mbfs_passes_proven);
    reg.counter("levelb.mbfs_vertices_proven").add(mbfs_vertices_proven);
    reg.counter("levelb.candidates_evaluated").add(candidates_evaluated);
    mbfs_crossings = 0;
    dup_points_tested = 0;
    mbfs_passes_proven = 0;
    mbfs_vertices_proven = 0;
    candidates_evaluated = 0;
  }
};

}  // namespace ocr::levelb
