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
///   slot holds the first free segment visited on that track; the rare
///   later ones are chained through one shared `visited_more` vector,
///   cleared with its capacity kept at the start of each pass. Because a
///   track's free segments are disjoint, "crossing coordinate inside a
///   visited segment" is exactly the (orientation, track, segment.lo)
///   visited-set test of the original `std::set` — and it runs *before*
///   the free-segment lookup, so re-probed crossings skip the occupancy
///   query entirely.
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
///   selection started), named once in kWorkCounters and folded into the
///   metrics registry once per run by publish_metrics(). They count work,
///   never steer it.
///
/// Thread contract: a workspace belongs to exactly one thread at a time
/// (a level-B run's serial step, or one engine worker slot). It never
/// influences routing *results* — only where the intermediate state lives
/// — so runs with fresh, reused, or shared-across-nets workspaces are
/// bit-identical.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "levelb/path_finder.hpp"
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
  /// contiguous array element). Later segments of the track are a list
  /// through `visited_more`, headed by `more` (-1 = none).
  struct VisitSlot {
    std::uint64_t gen = 0;       ///< stamp; live iff == generation
    geom::Interval first{0, 0};  ///< first visited segment
    int more = -1;               ///< newest later segment in visited_more
  };

  /// One later visited segment of a track and the index of the one
  /// recorded before it on that track (-1 = none).
  struct VisitMore {
    geom::Interval seg;
    int next = -1;
  };

  /// One slot per track, per orientation (indexed by geom::axis).
  std::vector<VisitSlot> visited[2];
  std::uint64_t generation = 0;       ///< bumped per MBFS pass
  std::vector<VisitMore> visited_more;  ///< this pass's later segments
  /// Most visited_more entries any finished pass held.
  std::size_t visited_more_high_water = 0;

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

  // Work counters, named in kWorkCounters below.
  long long mbfs_crossings = 0;        ///< run_mbfs crossing-loop iterations
  long long dup_points_tested = 0;     ///< points corner_dup measured
  long long mbfs_passes_proven = 0;    ///< h-passes proven to fail, not run
  long long mbfs_vertices_proven = 0;  ///< vertices credited for them
  long long candidates_evaluated = 0;  ///< cost selections started

  /// Fills `unique` with the distinct non-empty polylines among
  /// candidates[0, count), in first-occurrence order, and
  /// `unique_corners` with their corners(). Linear in \p count, and
  /// allocation-free once the buffers have warmed up. Degenerate legs can
  /// collapse distinct track sequences onto one wire, so the search
  /// cannot rule duplicates out.
  void collect_distinct(std::size_t count);

  /// Starts an MBFS pass: forgets every visited mark in O(1) by bumping
  /// the generation, and empties visited_more, keeping its capacity.
  void begin_pass() {
    visited_more_high_water =
        std::max(visited_more_high_water, visited_more.size());
    visited_more.clear();
    ++generation;
  }

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

  /// Folds this workspace's visited_more footprint into the global
  /// registry, atomic-max across every workspace that reports (a run's
  /// serial step and each engine worker slot): the largest pass's entries
  /// as `levelb.visited_more_high_water_bytes` and the vector's capacity
  /// as `levelb.visited_more_reserved_bytes`, both in bytes. Called once
  /// when the owner finishes a run, never per connect.
  void publish_arena_metrics() const {
    const std::size_t high_water =
        std::max(visited_more_high_water, visited_more.size());
    util::MetricsRegistry& reg = util::MetricsRegistry::global();
    reg.gauge("levelb.visited_more_high_water_bytes")
        .set_max(static_cast<long long>(high_water * sizeof(VisitMore)));
    reg.gauge("levelb.visited_more_reserved_bytes")
        .set_max(static_cast<long long>(visited_more.capacity() *
                                        sizeof(VisitMore)));
  }

  /// publish_arena_metrics() plus the work counters, added to their
  /// registry counters (summed over every workspace that reports) and
  /// zeroed, so a workspace reused across runs reports each run once.
  void publish_metrics();
};

/// A SearchWorkspace work counter and its registry name.
struct WorkCounter {
  const char* name;
  long long SearchWorkspace::*member;
};

/// The one list of work counters: publish_metrics() folds each into the
/// registry counter it names, and the benches read them back as registry
/// deltas under `levelb.`, so a new counter is a member plus a line here.
inline constexpr WorkCounter kWorkCounters[] = {
    {"levelb.mbfs_crossings", &SearchWorkspace::mbfs_crossings},
    {"levelb.dup_points_tested", &SearchWorkspace::dup_points_tested},
    {"levelb.mbfs_passes_proven", &SearchWorkspace::mbfs_passes_proven},
    {"levelb.mbfs_vertices_proven", &SearchWorkspace::mbfs_vertices_proven},
    {"levelb.candidates_evaluated", &SearchWorkspace::candidates_evaluated},
};

inline void SearchWorkspace::publish_metrics() {
  publish_arena_metrics();
  util::MetricsRegistry& reg = util::MetricsRegistry::global();
  for (const WorkCounter& c : kWorkCounters) {
    reg.counter(c.name).add(this->*c.member);
    this->*c.member = 0;
  }
}

/// True when the current pass visited a free segment of \p slot's track
/// that contains \p v. A pure read: a stale stamp means "not visited".
/// A track's free segments are disjoint, so containment of the crossing
/// coordinate is exactly the (orientation, track, segment.lo) visited-set
/// test of the paper's single-examination rule.
inline bool visited_holds(const SearchWorkspace& ws,
                          const SearchWorkspace::VisitSlot& slot,
                          geom::Coord v) {
  if (slot.gen != ws.generation) return false;
  if (slot.first.contains(v)) return true;
  for (int m = slot.more; m >= 0;) {
    const SearchWorkspace::VisitMore& e =
        ws.visited_more[static_cast<std::size_t>(m)];
    if (e.seg.contains(v)) return true;
    m = e.next;
  }
  return false;
}

/// Records \p seg visited on \p slot's track in the current pass. Callers
/// have already established that some point of seg is not visited, which
/// (disjointness again) means seg itself is new. A stale slot is
/// overwritten whole; a live one chains seg through visited_more.
///
/// Always inlined: as a call inside the MBFS expansion loop it makes the
/// loop keep its state in memory across the call (about 10% of connect
/// time).
[[gnu::always_inline]] inline void visit(SearchWorkspace& ws,
                                         SearchWorkspace::VisitSlot& slot,
                                         const geom::Interval& seg) {
  if (slot.gen != ws.generation) {
    slot = SearchWorkspace::VisitSlot{ws.generation, seg, -1};
    return;
  }
  ws.visited_more.push_back(SearchWorkspace::VisitMore{seg, slot.more});
  slot.more = static_cast<int>(ws.visited_more.size()) - 1;
}

}  // namespace ocr::levelb
